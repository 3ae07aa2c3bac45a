(* Quickstart: the paper's Fig. 5 walk-through on a counting loop.

   Builds a small program with the IR builder, shows its native, SWIFT-R
   (instruction triplication) and ELZAR (AVX data replication) forms, runs
   all three on the simulated machine, and finally injects a bit flip into
   the hardened build and watches ELZAR's majority voting mask it.

   Run with: dune exec examples/quickstart.exe *)

let build_program () =
  let m = Ir.Builder.create_module () in
  let open Ir.Builder in
  let b, _ = func m "main" [] ~ret:Ir.Types.i64 in
  let acc = fresh b ~name:"acc" Ir.Types.i64 in
  assign b acc (i64c 0);
  (* the Fig. 5 loop: increment until the bound is reached *)
  for_ b ~name:"i" ~lo:(i64c 0) ~hi:(i64c 10_000) (fun i ->
      assign b acc (add b (Ir.Instr.Reg acc) i));
  call0 b "output_i64" [ Ir.Instr.Reg acc ];
  ret b (Some (Ir.Instr.Reg acc));
  m

let show title m =
  Printf.printf "---- %s ----\n" title;
  print_string (Ir.Printer.func_to_string (Option.get (Ir.Instr.find_func m "main")))

let run_and_report build m =
  let r = Elzar.run build m "main" in
  Printf.printf "%-14s cycles=%-8d instrs=%-8d avx=%-8d output=%s\n"
    (Elzar.build_name build) r.Cpu.Machine.wall_cycles
    r.Cpu.Machine.totals.Cpu.Counters.instrs r.Cpu.Machine.totals.Cpu.Counters.avx_instrs
    (Digest.to_hex r.Cpu.Machine.output_digest)

let () =
  let m = build_program () in
  Ir.Verifier.verify_exn m;
  show "native IR (Fig. 5a)" m;
  show "SWIFT-R: triplicated instructions + majority voting (Fig. 5b)"
    (Elzar.prepare Elzar.Swiftr m);
  show "ELZAR: data replicated in YMM registers, vbr branches (Fig. 5c)"
    (Elzar.prepare (Elzar.Hardened Elzar.Harden_config.default) m);

  Printf.printf "---- executing all builds ----\n";
  run_and_report Elzar.Native m;
  run_and_report Elzar.Swiftr m;
  run_and_report (Elzar.Hardened Elzar.Harden_config.default) m;

  Printf.printf "---- injecting a bit flip into the hardened build ----\n";
  let spec =
    Fault.make_spec (Elzar.prepare (Elzar.Hardened Elzar.Harden_config.default) m) "main"
  in
  let golden = Fault.golden spec in
  Printf.printf "golden run: %d injectable instructions\n"
    golden.Cpu.Machine.inject_sites;
  let outcome =
    Fault.classify ~golden
      (Fault.run_experiment spec
         {
           Fault.at = golden.Cpu.Machine.inject_sites / 2;
           lane = 2;
           bit = 17;
           second = None;
           kind = Cpu.Machine.Reg_flip;
         })
  in
  Printf.printf "fault at instruction %d, lane 2, bit 17: %s\n"
    (golden.Cpu.Machine.inject_sites / 2)
    (Fault.outcome_to_string outcome)

(* Engine equivalence: the compiled engine must be bit-identical to the
   reference interpreter — same wall cycles, per-thread counters, output
   bytes, traps and fault-site streams — across every workload and build
   flavour, with and without an armed injection.  Plain runs check the
   hook-free closures; armed, census and undo-log runs check the closures
   with those hooks compiled in.  Also checks that restoring a mid-run
   snapshot and resuming reproduces the straight run exactly (the
   soundness condition behind campaign fast-forward), and that the
   compiled engine's supervision hooks keep quantum-boundary
   discipline. *)

let builds =
  [
    Elzar.Native;
    Elzar.Native_novec;
    Elzar.Hardened Elzar.Harden_config.default;
    Elzar.Swiftr;
  ]

let cfg_with engine = { Cpu.Machine.default_config with Cpu.Machine.engine }

let check_result name (a : Cpu.Machine.result) (b : Cpu.Machine.result) =
  let open Cpu.Machine in
  Alcotest.(check int) (name ^ ": wall_cycles") a.wall_cycles b.wall_cycles;
  Alcotest.(check string) (name ^ ": output") a.output_bytes b.output_bytes;
  Alcotest.(check (option string))
    (name ^ ": trap")
    (Option.map string_of_trap a.trap)
    (Option.map string_of_trap b.trap);
  Alcotest.(check int) (name ^ ": inject_sites") a.inject_sites b.inject_sites;
  Alcotest.(check int) (name ^ ": mem_sites") a.mem_sites b.mem_sites;
  Alcotest.(check int) (name ^ ": branch_sites") a.branch_sites b.branch_sites;
  Alcotest.(check int) (name ^ ": recovered") a.recovered_faults b.recovered_faults;
  Alcotest.(check int) (name ^ ": reexecutions") a.reexecutions b.reexecutions;
  Alcotest.(check bool) (name ^ ": injected") a.fault_injected b.fault_injected;
  (* catch-all structural equality: counters lists, detect latency, ... *)
  if a <> b then Alcotest.failf "%s: results differ structurally" name

(* every workload, every build flavour: reference == compiled *)
let check_engines (w : Workloads.Workload.t) () =
  List.iter
    (fun b ->
      let run engine =
        Workloads.Workload.execute ~machine_cfg:(cfg_with engine) w ~build:b ~nthreads:2
          ~size:Workloads.Workload.Tiny
      in
      let name = w.Workloads.Workload.name ^ "/" ^ Elzar.build_name b in
      check_result name (run Cpu.Machine.Reference) (run Cpu.Machine.Compiled))
    builds

(* armed injections: every armed kind's fault must fire, and the per-kind
   site streams and fault hooks must fire at the same instruction under
   both engines *)
let check_inject_engines () =
  let w = Workloads.Registry.find "hist" in
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  List.iter
    (fun (kind, at, reexec_retries) ->
      let inject =
        Some { Cpu.Machine.at; lane = 1; bit = 13; second = None; kind }
      in
      let run engine =
        Workloads.Workload.execute
          ~machine_cfg:
            { Cpu.Machine.default_config with Cpu.Machine.engine; inject; reexec_retries }
          w ~build:harden ~nthreads:2 ~size:Workloads.Workload.Tiny
      in
      let name =
        Printf.sprintf "inject %s@%d/r%d"
          (Cpu.Machine.fault_kind_to_string kind)
          at reexec_retries
      in
      let r_ref = run Cpu.Machine.Reference in
      Alcotest.(check bool) (name ^ ": fault fired") true r_ref.Cpu.Machine.fault_injected;
      check_result name r_ref (run Cpu.Machine.Compiled))
    [
      (Cpu.Machine.Reg_flip, 5_000, 0);
      (Cpu.Machine.Reg_flip, 50_000, 0);
      (Cpu.Machine.Reg_flip, 20_000, 2);
      (Cpu.Machine.Mem_flip, 2_000, 0);
      (Cpu.Machine.Addr_flip, 3_000, 0);
      (Cpu.Machine.Branch_flip, 1_000, 0);
    ]

(* the counting (site-census) runs must agree too *)
let check_count_sites () =
  let w = Workloads.Registry.find "linreg" in
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  let run engine =
    Workloads.Workload.execute
      ~machine_cfg:
        { Cpu.Machine.default_config with Cpu.Machine.engine; count_inject_sites = true }
      w ~build:harden ~nthreads:2 ~size:Workloads.Workload.Tiny
  in
  check_result "count-sites" (run Cpu.Machine.Reference) (run Cpu.Machine.Compiled)

(* snapshot/restore: resuming from any mid-run snapshot must reproduce the
   straight run bit-for-bit, under either engine *)
let check_snapshot_resume engine () =
  let w = Workloads.Registry.find "linreg" in
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  let spec = Workloads.Workload.fi_spec w ~build:harden () in
  let cfg =
    {
      Cpu.Machine.default_config with
      Cpu.Machine.engine;
      reexec_retries = spec.Fault.reexec_retries;
    }
  in
  let make_machine () =
    let m = Cpu.Machine.create ~cfg ~flags_cmp:spec.Fault.flags_cmp spec.Fault.modul in
    spec.Fault.init m;
    m
  in
  let snaps = ref [] in
  let q = ref 0 in
  let m = make_machine () in
  let golden =
    Cpu.Machine.run ~args:spec.Fault.args m spec.Fault.entry ~on_quantum:(fun mm ->
        incr q;
        if !q mod 40 = 0 then snaps := Cpu.Machine.snapshot mm :: !snaps)
  in
  if !snaps = [] then Alcotest.fail "no snapshots captured";
  (* newest, oldest and a middle snapshot *)
  let all = Array.of_list !snaps in
  let picks = [ 0; Array.length all / 2; Array.length all - 1 ] in
  List.iter
    (fun i ->
      let sn = all.(i) in
      let r = Cpu.Machine.resume (Cpu.Machine.restore ~cfg sn) in
      check_result
        (Printf.sprintf "snapshot@%d" (Cpu.Machine.snapshot_instrs sn))
        golden r)
    (List.sort_uniq compare picks)

(* Machine memory costs the pages a run touches, not the 64 MB address
   space: create + init + run + snapshot + restore of a tiny hardened
   workload allocates less than 8 MB in all (most of it the simulation's
   own), where one whole-image copy alone would be 64 MB. *)
let check_machine_alloc () =
  let w = Workloads.Registry.find "black" in
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  let spec = Workloads.Workload.fi_spec w ~build:harden ~nthreads:1 () in
  let before = Gc.allocated_bytes () in
  let m = Cpu.Machine.create ~flags_cmp:spec.Fault.flags_cmp spec.Fault.modul in
  spec.Fault.init m;
  ignore (Cpu.Machine.run ~args:spec.Fault.args m spec.Fault.entry);
  ignore (Cpu.Machine.restore (Cpu.Machine.snapshot m));
  let mb = (Gc.allocated_bytes () -. before) /. 1048576. in
  if mb >= 8. then Alcotest.failf "create..restore allocated %.1f MB (limit 8)" mb

(* campaign fast-forward: the full report (per-outcome stats and every
   observation, including wall cycles and detection latencies) must be
   bit-identical with fast-forward on or off, and for any worker count *)
let check_campaign_fast_forward () =
  let w = Workloads.Registry.find "linreg" in
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  let spec = Workloads.Workload.fi_spec w ~build:harden () in
  let base = Campaign.single ~seed:19 ~n:24 ~jobs:1 ~fast_forward:false spec in
  List.iter
    (fun jobs ->
      let ff = Campaign.single ~seed:19 ~n:24 ~jobs ~fast_forward:true spec in
      Alcotest.(check bool)
        (Printf.sprintf "ff jobs=%d: same stats" jobs)
        true
        (ff.Campaign.stats = base.Campaign.stats);
      Alcotest.(check bool)
        (Printf.sprintf "ff jobs=%d: same outcomes" jobs)
        true
        (ff.Campaign.outcomes = base.Campaign.outcomes))
    [ 1; 2; 4 ];
  (* and across fault models, whose sites draw on the mem/branch streams *)
  List.iter
    (fun model ->
      let off = Campaign.model_campaign ~seed:23 ~n:8 ~jobs:1 ~fast_forward:false ~model spec in
      let on = Campaign.model_campaign ~seed:23 ~n:8 ~jobs:2 ~fast_forward:true ~model spec in
      Alcotest.(check bool)
        (Fault.model_to_string model ^ ": ff report identical")
        true
        (off.Campaign.stats = on.Campaign.stats && off.Campaign.outcomes = on.Campaign.outcomes))
    [ Fault.Mem; Fault.Addr; Fault.Cf; Fault.Mixed ]

(* campaigns under the compiled engine: the full report must be
   bit-identical to a reference-engine full-replay campaign on the same
   (small) plan, for any worker count and fault model *)
let check_compiled_campaign () =
  let w = Workloads.Registry.find "linreg" in
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  let spec = Workloads.Workload.fi_spec w ~build:harden () in
  let rspec = { spec with Fault.engine = Cpu.Machine.Reference } in
  let base = Campaign.single ~seed:19 ~n:10 ~jobs:1 ~fast_forward:false rspec in
  List.iter
    (fun jobs ->
      let c = Campaign.single ~seed:19 ~n:10 ~jobs ~fast_forward:true spec in
      Alcotest.(check bool)
        (Printf.sprintf "compiled jobs=%d: same stats" jobs)
        true
        (c.Campaign.stats = base.Campaign.stats);
      Alcotest.(check bool)
        (Printf.sprintf "compiled jobs=%d: same outcomes" jobs)
        true
        (c.Campaign.outcomes = base.Campaign.outcomes))
    [ 1; 2; 4 ];
  List.iter
    (fun model ->
      let r = Campaign.model_campaign ~seed:23 ~n:4 ~jobs:1 ~fast_forward:false ~model rspec in
      let c = Campaign.model_campaign ~seed:23 ~n:4 ~jobs:2 ~fast_forward:true ~model spec in
      Alcotest.(check bool)
        (Fault.model_to_string model ^ ": compiled report identical")
        true
        (r.Campaign.stats = c.Campaign.stats && r.Campaign.outcomes = c.Campaign.outcomes))
    [ Fault.Mem; Fault.Addr; Fault.Cf; Fault.Mixed ]

(* one source for the default engine: a default campaign spec runs on the
   same engine as a default machine *)
let check_default_engine () =
  let w = Workloads.Registry.find "linreg" in
  let modul = (Workloads.Workload.fi_spec w ~build:Elzar.Native ()).Fault.modul in
  Alcotest.(check string)
    "default spec engine = default machine engine"
    (Cpu.Machine.engine_to_string Cpu.Machine.default_config.Cpu.Machine.engine)
    (Cpu.Machine.engine_to_string (Fault.make_spec modul "main").Fault.engine)

(* lazy compilation: the compiled engine fills a function's closure row,
   one closure per instruction, on its first entry and never before; the
   reference interpreter compiles nothing, and a restored machine starts
   with every row empty and recompiles on resume *)
let check_compile_on_entry () =
  let w = Workloads.Registry.find "hist" in
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  let spec = Workloads.Workload.fi_spec w ~build:harden () in
  let cfg engine = { Cpu.Machine.default_config with Cpu.Machine.engine } in
  let make engine =
    let m =
      Cpu.Machine.create ~cfg:(cfg engine) ~flags_cmp:spec.Fault.flags_cmp spec.Fault.modul
    in
    spec.Fault.init m;
    m
  in
  let compiled_rows (m : Cpu.Machine.t) =
    Array.fold_left
      (fun n row -> if Array.length row > 0 then n + 1 else n)
      0 m.Cpu.Machine.kcode
  in
  let check_rows name (m : Cpu.Machine.t) =
    Array.iteri
      (fun i row ->
        let cf = m.Cpu.Machine.code.Cpu.Code.cfuncs.(i) in
        if Array.length row > 0 then
          Alcotest.(check int)
            (Printf.sprintf "%s: %s has one closure per instruction" name cf.Cpu.Code.cf_name)
            (Array.length cf.Cpu.Code.code) (Array.length row))
      m.Cpu.Machine.kcode
  in
  let entry_id (m : Cpu.Machine.t) =
    (Cpu.Code.lookup m.Cpu.Machine.code spec.Fault.entry).Cpu.Code.cf_id
  in
  let m = make Cpu.Machine.Compiled in
  Alcotest.(check int) "nothing compiled before the run" 0 (compiled_rows m);
  let snap = ref None in
  let _ =
    Cpu.Machine.run ~args:spec.Fault.args m spec.Fault.entry ~on_quantum:(fun mm ->
        if !snap = None then snap := Some (Cpu.Machine.snapshot mm))
  in
  check_rows "compiled" m;
  Alcotest.(check bool) "entry function compiled" true
    (Array.length m.Cpu.Machine.kcode.(entry_id m) > 0);
  let m_ref = make Cpu.Machine.Reference in
  let _ = Cpu.Machine.run ~args:spec.Fault.args m_ref spec.Fault.entry in
  Alcotest.(check int) "reference compiles nothing" 0 (compiled_rows m_ref);
  match !snap with
  | None -> Alcotest.fail "no snapshot captured"
  | Some sn ->
      let m2 = Cpu.Machine.restore ~cfg:(cfg Cpu.Machine.Compiled) sn in
      Alcotest.(check int) "restored machine starts uncompiled" 0 (compiled_rows m2);
      let _ = Cpu.Machine.resume m2 in
      check_rows "resumed" m2;
      Alcotest.(check bool) "resume recompiles" true (compiled_rows m2 > 0)

(* supervision boundary discipline under the compiled engine: the abort
   hook is polled exactly once per scheduling quantum (not once per
   instruction), and a cooperative abort still cuts the run short *)
let check_supervision () =
  let w = Workloads.Registry.find "hist" in
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  let spec = Workloads.Workload.fi_spec w ~build:harden () in
  let run_cfg cfg ~on_quantum =
    let m = Cpu.Machine.create ~cfg ~flags_cmp:spec.Fault.flags_cmp spec.Fault.modul in
    spec.Fault.init m;
    Cpu.Machine.run ~args:spec.Fault.args ~on_quantum m spec.Fault.entry
  in
  let quanta = ref 0 and polls = ref 0 in
  let cfg =
    {
      Cpu.Machine.default_config with
      Cpu.Machine.engine = Cpu.Machine.Compiled;
      abort =
        Some
          (fun () ->
            incr polls;
            false);
    }
  in
  let r = run_cfg cfg ~on_quantum:(fun _ -> incr quanta) in
  Alcotest.(check (option string))
    "no trap" None
    (Option.map Cpu.Machine.string_of_trap r.Cpu.Machine.trap);
  Alcotest.(check bool) "ran more than one quantum" true (!quanta > 1);
  Alcotest.(check int) "abort polled once per quantum" !quanta !polls;
  let polls2 = ref 0 in
  let abort_cfg =
    {
      cfg with
      Cpu.Machine.abort =
        Some
          (fun () ->
            incr polls2;
            !polls2 >= 6);
    }
  in
  match run_cfg abort_cfg ~on_quantum:(fun _ -> ()) with
  | (_ : Cpu.Machine.result) -> Alcotest.fail "abort hook did not raise under compiled engine"
  | exception Cpu.Machine.Abort ->
      Alcotest.(check int) "aborted at the sixth boundary" 6 !polls2

(* The execution trace (one line per retired instruction, formatted by
   one shared helper) must be byte-identical under both engines, across
   both threads and the hardened/unhardened boundary. *)
let check_trace_engines () =
  let w = Workloads.Registry.find "hist" in
  let trace engine =
    let buf = Buffer.create 4096 in
    let cfg = { (cfg_with engine) with Cpu.Machine.trace = Some buf } in
    let r =
      Workloads.Workload.execute ~machine_cfg:cfg w
        ~build:(Elzar.Hardened Elzar.Harden_config.default) ~nthreads:2
        ~size:Workloads.Workload.Tiny
    in
    (r, Buffer.contents buf)
  in
  let rr, tr = trace Cpu.Machine.Reference and rc, tc = trace Cpu.Machine.Compiled in
  check_result "traced run" rr rc;
  let contains needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length tr && (String.sub tr i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "second thread traced" true (contains "\nT1 ");
  Alcotest.(check bool) "hardened code traced" true (contains " H@");
  Alcotest.(check bool) "unhardened code traced" true (contains " .@");
  Alcotest.(check int) "trace length" (String.length tr) (String.length tc);
  Alcotest.(check bool) "trace byte-identical" true (String.equal tr tc)

let workload_cases =
  List.map
    (fun w ->
      Alcotest.test_case ("equiv " ^ w.Workloads.Workload.name) `Quick (check_engines w))
    (Workloads.Registry.all @ Workloads.Registry.micro)

let tests =
  workload_cases
  @ [
      Alcotest.test_case "equiv under injection" `Quick check_inject_engines;
      Alcotest.test_case "equiv site census" `Quick check_count_sites;
      Alcotest.test_case "equiv trace" `Quick check_trace_engines;
      Alcotest.test_case "snapshot resume (reference)" `Quick
        (check_snapshot_resume Cpu.Machine.Reference);
      Alcotest.test_case "snapshot resume (compiled)" `Quick
        (check_snapshot_resume Cpu.Machine.Compiled);
      Alcotest.test_case "machine memory allocation bound" `Quick check_machine_alloc;
      Alcotest.test_case "campaign fast-forward bit-identical" `Quick
        check_campaign_fast_forward;
      Alcotest.test_case "campaign compiled vs reference bit-identical" `Quick
        check_compiled_campaign;
      Alcotest.test_case "default engine has one source" `Quick check_default_engine;
      Alcotest.test_case "compile on first entry" `Quick check_compile_on_entry;
      Alcotest.test_case "supervision quantum discipline" `Quick check_supervision;
    ]

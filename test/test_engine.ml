(* Engine equivalence: the compiled engine must be bit-identical to the
   reference interpreter — same wall cycles, per-thread counters, output
   bytes, traps and fault-site streams — across every workload and build
   flavour, with and without an armed injection.  Plain runs check the
   hook-free closures; armed, census and undo-log runs check the closures
   with those hooks compiled in.  Also checks that restoring a mid-run
   snapshot and resuming reproduces the straight run exactly (the
   soundness condition behind campaign fast-forward), that every counted
   campaign outcome equals its experiment run from scratch, and that the
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
   straight run bit-for-bit, under either engine.  The re-execution build
   also snapshots live checkpoints, whose [ck_frame] and [ck_caller] the
   copy re-points into the copied frames: from a snapshot whose
   checkpointed call has callers below it, a 2-2 lane split (no majority,
   so the thread rolls back) must match the same fault run from scratch
   and leave the snapshot as it was. *)
let check_snapshot_resume engine () =
  List.iter
    (fun (name, hc) ->
      let w = Workloads.Registry.find name in
      let spec = Workloads.Workload.fi_spec w ~build:(Elzar.Hardened hc) () in
      let cfg =
        {
          Cpu.Machine.default_config with
          Cpu.Machine.engine;
          count_inject_sites = true;
          reexec_retries = spec.Fault.reexec_retries;
        }
      in
      let make_machine cfg =
        let m = Cpu.Machine.create ~cfg ~flags_cmp:spec.Fault.flags_cmp spec.Fault.modul in
        spec.Fault.init m;
        m
      in
      let nested_ck (th : Cpu.Machine.thread) =
        match th.Cpu.Machine.ck with Some ck -> ck.Cpu.Machine.ck_caller <> [] | None -> false
      in
      let snaps = ref [] and ck_snap = ref None in
      let q = ref 0 in
      let golden =
        Cpu.Machine.run ~args:spec.Fault.args (make_machine cfg) spec.Fault.entry
          ~on_quantum:(fun mm ->
            incr q;
            if !q mod 40 = 0 then snaps := Cpu.Machine.snapshot mm :: !snaps;
            if !ck_snap = None && List.exists nested_ck mm.Cpu.Machine.threads then
              ck_snap := Some (Cpu.Machine.snapshot mm))
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
            (Printf.sprintf "%s: snapshot@%d" name (Cpu.Machine.snapshot_instrs sn))
            golden r)
        (List.sort_uniq compare picks);
      if spec.Fault.reexec_retries > 0 then
        match !ck_snap with
        | None -> Alcotest.failf "%s: no nested live checkpoint to snapshot" name
        | Some sn ->
            Alcotest.(check bool)
              (name ^ ": restored machine holds a live checkpoint")
              true
              (List.exists
                 (fun th -> th.Cpu.Machine.ck <> None)
                 (Cpu.Machine.restore ~cfg sn).Cpu.Machine.threads);
            let after, _, _ = Cpu.Machine.snapshot_sites sn in
            let armed at =
              {
                cfg with
                Cpu.Machine.inject =
                  Some
                    {
                      Cpu.Machine.at;
                      lane = 0;
                      bit = 3;
                      second = Some (1, 3);
                      kind = Cpu.Machine.Reg_flip;
                    };
              }
            in
            (* the first site past the snapshot whose fault rolls back *)
            let rec find at =
              if at > min golden.Cpu.Machine.inject_sites (after + 200) then
                Alcotest.failf "%s: no rollback within 200 sites of site %d" name after
              else
                let r = Cpu.Machine.resume (Cpu.Machine.restore ~cfg:(armed at) sn) in
                if r.Cpu.Machine.reexecutions > 0 then (at, r) else find (at + 1)
            in
            let at, r = find (after + 1) in
            check_result
              (Printf.sprintf "%s: rollback at site %d from snapshot@%d" name at
                 (Cpu.Machine.snapshot_instrs sn))
              (Cpu.Machine.run ~args:spec.Fault.args (make_machine (armed at)) spec.Fault.entry)
              r;
            (* the rollback ran on copies: the snapshot is unchanged *)
            check_result
              (Printf.sprintf "%s: snapshot@%d after the rollback" name
                 (Cpu.Machine.snapshot_instrs sn))
              golden
              (Cpu.Machine.resume (Cpu.Machine.restore ~cfg sn)))
    [ ("linreg", Elzar.Harden_config.default); ("pca", Elzar.Harden_config.reexec) ]

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

(* The compiled engine's per-instruction path allocates nothing: the
   register file is unboxed bytes and lane semantics run inline.  What
   is left is per function (its closures, compiled on first entry), per
   call (frame, arguments), per builtin and per memory access (the boxed
   address and value handed to [Memory] and [Cache]).  Minor words per
   retired instruction over a whole run are deterministic, so this bound
   guards the allocation-free path without timing noise. *)
let check_run_alloc () =
  let w = Workloads.Registry.find "km" in
  List.iter
    (fun (build, bound) ->
      let spec = Workloads.Workload.fi_spec w ~build ~nthreads:2 ~size:Workloads.Workload.Tiny () in
      let m = Cpu.Machine.create ~flags_cmp:spec.Fault.flags_cmp spec.Fault.modul in
      spec.Fault.init m;
      let before = Gc.minor_words () in
      let r = Cpu.Machine.run ~args:spec.Fault.args m spec.Fault.entry in
      let words = Gc.minor_words () -. before in
      let per_instr = words /. float_of_int r.Cpu.Machine.totals.Cpu.Counters.instrs in
      if per_instr > bound then
        Alcotest.failf "km/%s: %.2f minor words per instruction (limit %.1f)"
          (Elzar.build_name build) per_instr bound)
    [ (Elzar.Hardened Elzar.Harden_config.default, 3.0); (Elzar.Native, 1.5) ]

(* campaigns: each counted outcome must equal a from-scratch run of its
   experiment on the reference engine — no snapshot, the whole fault-free
   prefix replayed — observed against the golden run, for every fault
   model; every planned experiment must be counted; [stats] must be the
   fold of [outcomes]; and the report must not depend on the worker
   count *)
let check_campaign_from_scratch () =
  let w = Workloads.Registry.find "linreg" in
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  let spec = Workloads.Workload.fi_spec w ~build:harden () in
  let rspec = { spec with Fault.engine = Cpu.Machine.Reference } in
  let golden = Fault.golden rspec in
  let max_instrs = Fault.hang_budget ~golden rspec in
  (* jobs 1/2/4 count the same experiments: run each one once *)
  let scratch = Hashtbl.create 64 in
  let from_scratch e =
    match Hashtbl.find_opt scratch e with
    | Some o -> o
    | None ->
        let o = Fault.observe ~golden (Fault.run_experiment ~max_instrs rspec e) in
        Hashtbl.add scratch e o;
        o
  in
  let check name n (r : Campaign.report) =
    (* every site is drawn inside the golden run's streams, so every
       experiment is reached *)
    Alcotest.(check int) (name ^ ": none unreached") 0 r.Campaign.not_reached;
    Alcotest.(check int) (name ^ ": all counted") n (Array.length r.Campaign.outcomes);
    Array.iteri
      (fun i (e, o) ->
        if o <> from_scratch e then
          Alcotest.failf "%s: outcome %d differs from its from-scratch run" name i)
      r.Campaign.outcomes;
    Alcotest.(check bool)
      (name ^ ": stats are the fold of outcomes")
      true
      (r.Campaign.stats
      = Array.fold_left
          (fun s (_, o) -> Fault.add_outcome s o.Fault.o_outcome)
          Fault.empty_stats r.Campaign.outcomes)
  in
  List.iter
    (fun (name, n, campaign) ->
      let base = campaign 1 in
      check (name ^ " jobs=1") n base;
      List.iter
        (fun jobs ->
          let r = campaign jobs in
          let name = Printf.sprintf "%s jobs=%d" name jobs in
          check name n r;
          Alcotest.(check bool)
            (name ^ ": same outcomes as jobs=1")
            true
            (r.Campaign.outcomes = base.Campaign.outcomes))
        [ 2; 4 ])
    (("single", 24, fun jobs -> Campaign.single ~seed:19 ~n:24 ~jobs spec)
    :: List.map
         (fun model ->
           ( Fault.model_to_string model,
             8,
             fun jobs -> Campaign.model_campaign ~seed:23 ~n:8 ~jobs ~model spec ))
         Fault.all_models)

(* the golden-capture contract fast-forward relies on: the capturing run
   is the golden run (plans are drawn from it); it keeps 1 to 24
   snapshots (Fault's [max_snapshots]), oldest first; and a machine that
   already injected refuses to be snapshotted *)
let check_golden_capture () =
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  List.iter
    (fun (name, size) ->
      let w = Workloads.Registry.find name in
      let spec = Workloads.Workload.fi_spec w ~build:harden ~size () in
      let g, snaps = Fault.golden_capture spec in
      if g <> Fault.golden spec then Alcotest.failf "%s: capture differs from golden" name;
      let n = Array.length snaps in
      if n < 1 || n > 24 then Alcotest.failf "%s: %d snapshots (expected 1 to 24)" name n;
      Array.iteri
        (fun i sn ->
          let instrs = Cpu.Machine.snapshot_instrs in
          if i > 0 && instrs snaps.(i - 1) >= instrs sn then
            Alcotest.failf "%s: snapshot %d is not after snapshot %d" name i (i - 1))
        snaps)
    (* linreg tiny keeps every capture; hist small (~775K instructions)
       captures more than 24 and thins *)
    [ ("linreg", Workloads.Workload.Tiny); ("hist", Workloads.Workload.Small) ];
  let w = Workloads.Registry.find "linreg" in
  let spec = Workloads.Workload.fi_spec w ~build:harden () in
  let inject =
    Some { Cpu.Machine.at = 10; lane = 0; bit = 3; second = None; kind = Cpu.Machine.Reg_flip }
  in
  let m =
    Cpu.Machine.create ~cfg:{ Cpu.Machine.default_config with Cpu.Machine.inject }
      ~flags_cmp:spec.Fault.flags_cmp spec.Fault.modul
  in
  spec.Fault.init m;
  let r = Cpu.Machine.run ~args:spec.Fault.args m spec.Fault.entry in
  Alcotest.(check bool) "fault fired" true r.Cpu.Machine.fault_injected;
  Alcotest.check_raises "snapshot after injection"
    (Invalid_argument "Machine.snapshot: fault already injected")
    (fun () -> ignore (Cpu.Machine.snapshot m))

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

(* ---- single-op differential ----
   One instruction at a time, on both engines: every binop, fbinop,
   icmp, fcmp and cast descriptor over every element width, scalar and
   4-lane, with its operands as full-width registers, constants, scalar
   registers broadcast over the lanes and 2-lane registers wrapped over
   4.  The workloads reach only some of these (op, width, shape)
   combinations.  The instruction is built directly, not through the
   verifier, so it also covers raw lanes above the element's width (what
   a flipped bit leaves behind). *)

type op =
  | Op_bin of Ir.Instr.binop
  | Op_fbin of Ir.Instr.fbinop
  | Op_icmp of Ir.Instr.icmp
  | Op_fcmp of Ir.Instr.fcmp
  | Op_cast of Ir.Instr.cast * Ir.Types.scalar  (** to this element type *)

type shape = Slot | Const | Bcast | Wrap

let elems = Ir.Types.[ I1; I8; I16; I32; I64; F32; F64 ]

(* every (op, operand element) pair *)
let all_ops =
  let open Ir.Instr in
  let over es ops = List.concat_map (fun op -> List.map (fun e -> (op, e)) es) ops in
  let floats = Ir.Types.[ F32; F64 ] in
  over elems
    (List.map (fun o -> Op_bin o) [ Add; Sub; Mul; Sdiv; Udiv; Srem; Urem; And; Or; Xor; Shl; Lshr; Ashr ])
  @ over floats (List.map (fun o -> Op_fbin o) [ Fadd; Fsub; Fmul; Fdiv ])
  @ over elems (List.map (fun c -> Op_icmp c) [ Ieq; Ine; Islt; Isle; Isgt; Isge; Iult; Iule; Iugt; Iuge ])
  @ over floats (List.map (fun c -> Op_fcmp c) [ Foeq; Fone; Folt; Fole; Fogt; Foge ])
  @ over elems
      (List.concat_map
         (fun k -> List.map (fun d -> Op_cast (k, d)) elems)
         [ Trunc; Zext; Sext; Fptosi; Sitofp; Fpext; Fptrunc; Bitcast ])

(* lane values biased to the edges of element type [e]: zero, one, the
   sign bit and its neighbours, all-ones, shift counts, float specials
   and out-of-range [fptosi] inputs; now and then a raw 64-bit pattern *)
let edge_values (e : Ir.Types.scalar) =
  let w = Ir.Types.bits e in
  let mask = Cpu.Value.mask_of_width w in
  let sign = Int64.shift_left 1L (min w 64 - 1) in
  let ints =
    [ 0L; 1L; 2L; 7L; 63L; 64L; mask; Int64.sub mask 1L; sign; Int64.pred sign; Int64.succ sign ]
  in
  let specials =
    [ 0.; -0.; 1.; -1.5; 0.1; Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; 1e30; -1e30;
      2147483648.; -3e9; 9.3e18; -9.3e18; 1e300; 5e-324 ]
  in
  match e with
  | Ir.Types.F32 -> ints @ List.map Cpu.Value.f32_encode specials @ [ 0x7FC0_0001L; 0x0000_0001L ]
  | Ir.Types.F64 -> ints @ List.map Cpu.Value.f64_encode specials @ [ 0x7FF0_0000_0000_0001L ]
  | _ -> ints

let draw_lane st e =
  match Random.State.int st 10 with
  | 0 -> Random.State.bits64 st
  | 1 | 2 -> Cpu.Value.canon e (Random.State.bits64 st)
  | _ ->
      let vs = edge_values e in
      List.nth vs (Random.State.int st (List.length vs))

(* A module whose [main] sets up the operands, runs the one instruction
   and outputs every lane of its result. *)
let single_op_module (op, e) ~lanes ~(shapes : shape list) ~(values : int64 array list) =
  let open Ir in
  let m = Builder.create_module () in
  let b, _ = Builder.func m ~hardened:false "main" [] in
  let vty e n = if n = 1 then Types.Scalar e else Types.Vector (e, n) in
  let raw v = Instr.Imm (Types.i64, v) in
  let fill n vs =
    let r = Builder.fresh b (vty e n) in
    if n = 1 then Builder.emit b (Instr.Mov (r, raw vs.(0)))
    else
      for j = 0 to n - 1 do
        Builder.emit b (Instr.Insertlane (r, Instr.Reg r, j, raw vs.(j)))
      done;
    Instr.Reg r
  in
  let operand shape vs =
    match shape with
    | Const -> Instr.Imm (vty e lanes, vs.(0))
    | Slot -> fill lanes vs
    | Bcast -> fill 1 vs
    | Wrap -> fill 2 vs
  in
  let args = List.map2 operand shapes values in
  let dty =
    match op with
    | Op_bin _ | Op_fbin _ -> vty e lanes
    | Op_icmp _ | Op_fcmp _ -> if lanes = 1 then Types.i1 else vty (Types.mask_elem e) lanes
    | Op_cast (_, d) -> vty d lanes
  in
  let d = Builder.fresh b dty in
  Builder.emit b
    (match (op, args) with
    | Op_bin o, [ x; y ] -> Instr.Binop (d, o, x, y)
    | Op_fbin o, [ x; y ] -> Instr.Fbinop (d, o, x, y)
    | Op_icmp c, [ x; y ] -> Instr.Icmp (d, c, x, y)
    | Op_fcmp c, [ x; y ] -> Instr.Fcmp (d, c, x, y)
    | Op_cast (k, _), [ x ] -> Instr.Cast (d, k, x)
    | _ -> assert false);
  for j = 0 to lanes - 1 do
    let lane =
      if lanes = 1 then Instr.Reg d
      else begin
        let x = Builder.fresh b Types.i64 in
        Builder.emit b (Instr.Extractlane (x, Instr.Reg d, j));
        Instr.Reg x
      end
    in
    Builder.call0 b "output_i64" [ lane ]
  done;
  Builder.ret b None;
  m

let run_single engine modul =
  Cpu.Machine.run (Cpu.Machine.create ~cfg:(cfg_with engine) modul) "main"

let describe (op, e) ~lanes shapes values =
  let op_name =
    match op with
    | Op_bin o -> Ir.Printer.string_of_binop o
    | Op_fbin o -> Ir.Printer.string_of_fbinop o
    | Op_icmp c -> "icmp " ^ Ir.Printer.string_of_icmp c
    | Op_fcmp c -> "fcmp " ^ Ir.Printer.string_of_fcmp c
    | Op_cast (k, d) -> Ir.Printer.string_of_cast k ^ " to " ^ Ir.Types.scalar_to_string d
  in
  Printf.sprintf "%s %s x%d [%s]" op_name (Ir.Types.scalar_to_string e) lanes
    (String.concat "; "
       (List.map2
          (fun sh vs ->
            let vs = if sh = Const then [| vs.(0) |] else vs in
            Printf.sprintf "%s %s"
              (match sh with Slot -> "slot" | Const -> "const" | Bcast -> "bcast" | Wrap -> "wrap")
              (String.concat "," (Array.to_list (Array.map (Printf.sprintf "0x%Lx") vs))))
          shapes values))

let check_single_op st ((op, e) as oe) ~lanes =
  let arity = match op with Op_cast _ -> 1 | _ -> 2 in
  let shape () =
    if lanes = 1 then if Random.State.bool st then Slot else Const
    else [| Slot; Slot; Const; Bcast; Wrap |].(Random.State.int st 5)
  in
  let shapes = List.init arity (fun _ -> shape ()) in
  let values = List.init arity (fun _ -> Array.init lanes (fun _ -> draw_lane st e)) in
  let same shapes values =
    let modul = single_op_module oe ~lanes ~shapes ~values in
    let r = run_single Cpu.Machine.Reference modul in
    if r <> run_single Cpu.Machine.Compiled modul then
      QCheck.Test.fail_reportf "engines differ on %s" (describe oe ~lanes shapes values);
    r
  in
  ignore (same shapes values);
  (* a zero divisor must trap, alike, under both engines *)
  match op with
  | Op_bin Ir.Instr.(Sdiv | Udiv | Srem | Urem) ->
      let values = [ List.hd values; Array.make lanes 0L ] in
      let r = same [ List.hd shapes; Const ] values in
      if r.Cpu.Machine.trap <> Some Cpu.Machine.Div_by_zero then
        QCheck.Test.fail_reportf "%s: no division trap" (describe oe ~lanes shapes values)
  | _ -> ()

let prop_single_op =
  QCheck.Test.make ~count:6 ~name:"single-op differential: reference = compiled"
    QCheck.(make Gen.int ~print:string_of_int)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      List.iter
        (fun oe -> List.iter (fun lanes -> check_single_op st oe ~lanes) [ 1; 4 ])
        all_ops;
      true)

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
      Alcotest.test_case "run allocation per instruction" `Quick check_run_alloc;
      Alcotest.test_case "campaign = from-scratch reference runs" `Quick
        check_campaign_from_scratch;
      Alcotest.test_case "golden capture contract" `Quick check_golden_capture;
      Alcotest.test_case "default engine has one source" `Quick check_default_engine;
      Alcotest.test_case "compile on first entry" `Quick check_compile_on_entry;
      Alcotest.test_case "supervision quantum discipline" `Quick check_supervision;
      QCheck_alcotest.to_alcotest prop_single_op;
    ]

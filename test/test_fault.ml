(* Fault-injection framework tests: classification, correction properties,
   the window of vulnerability and its closure by future-AVX, and the
   parallel campaign engine (determinism across worker counts, redraw of
   unreached sites, checkpoint/resume, non-aliasing double flips). *)

let check_bool = Alcotest.(check bool)

(* A hardened pure-compute kernel: parameters in, long register-only
   computation, one output.  No loads inside the hardened region means no
   extracted-address window: EVERY single-lane fault must be corrected or
   masked — never an SDC, never a crash. *)
let pure_compute_module ?(hardened = true) () =
  let m = Ir.Builder.create_module () in
  let open Ir.Builder in
  let b, ps = func m ~hardened "kernel" [ ("x", Ir.Types.i64) ] ~ret:Ir.Types.i64 in
  let x = match ps with [ p ] -> Ir.Instr.Reg p | _ -> assert false in
  let acc = fresh b ~name:"acc" Ir.Types.i64 in
  assign b acc x;
  for_ b ~lo:(i64c 0) ~hi:(i64c 40) (fun i ->
      let t = xor b (Reg acc) (shl b (Reg acc) (i64c 13)) in
      let t2 = add b t (mul b i (i64c 0x9E37)) in
      assign b acc (lshr b t2 (i64c 1)));
  ret b (Some (Reg acc));
  let b, _ = func m ~hardened:false "main" [ ("n", Ir.Types.i64) ] in
  let r = callv b ~ret:Ir.Types.i64 "kernel" [ i64c 123456789 ] in
  call0 b "output_i64" [ r ];
  ret b None;
  m

let spec_of build =
  Fault.make_spec (Elzar.prepare build (pure_compute_module ())) "main" ~args:[| 1L |]
    ~flags_cmp:(Elzar.uses_flags_cmp build) ~reexec_retries:(Elzar.reexec_retries build)

(* Outcome of one register SEU: flip [bit] of one lane of the destination
   of the [at]-th injection-eligible instruction. *)
let reg_flip spec ~golden ~at ~lane ~bit =
  Fault.classify ~golden
    (Fault.run_experiment spec
       { Fault.at; lane; bit; second = None; kind = Cpu.Machine.Reg_flip })

let test_pure_compute_always_protected () =
  let spec = spec_of (Elzar.Hardened Elzar.Harden_config.default) in
  let golden = Fault.golden spec in
  let sites = golden.Cpu.Machine.inject_sites in
  check_bool "has injection sites" true (sites > 100);
  (* sweep a deterministic sample of injection points, lanes and bits *)
  let bad = ref 0 and corrected = ref 0 in
  for k = 0 to 80 do
    let at = 1 + (k * 7 mod sites) in
    let outcome =
      reg_flip spec ~golden ~at ~lane:(k mod 4) ~bit:((k * 11) mod 64)
    in
    match outcome with
    | Fault.Elzar_corrected ->
        incr corrected
    | Fault.Masked -> ()
    | Fault.Hang | Fault.Deadlock | Fault.Os_detected | Fault.Sdc | Fault.Not_reached ->
        incr bad
  done;
  (* the only unprotected dataflow is the single return-value extract
     (the same window-of-vulnerability class as §V-C) *)
  check_bool "at most the return-extract window leaks" true (!bad <= 2);
  check_bool "some faults actively corrected" true (!corrected > 0)

let test_native_is_vulnerable () =
  let spec = spec_of Elzar.Native_novec in
  let golden = Fault.golden spec in
  let sites = golden.Cpu.Machine.inject_sites in
  let sdc = ref 0 in
  for k = 0 to 60 do
    let at = 1 + (k * 5 mod sites) in
    match reg_flip spec ~golden ~at ~lane:0 ~bit:(k mod 64) with
    | Fault.Sdc -> incr sdc
    | _ -> ()
  done;
  check_bool "native suffers SDCs" true (!sdc > 5)

let test_campaign_stats_consistent () =
  let spec = spec_of (Elzar.Hardened Elzar.Harden_config.default) in
  let r = Campaign.model_campaign ~model:Fault.Reg ~seed:7 ~n:40 ~jobs:1 spec in
  let s = r.Campaign.stats in
  Alcotest.(check int) "runs counted" 40 s.Fault.runs;
  Alcotest.(check int) "outcomes partition runs" 40
    (s.Fault.hang + s.Fault.deadlock + s.Fault.os_detected + s.Fault.corrected
   + s.Fault.masked + s.Fault.sdc);
  Alcotest.(check int) "outcomes array matches plan" 40 (Array.length r.Campaign.outcomes)

(* The engine's core guarantee: pre-drawn experiments make the stats
   bit-identical no matter how many worker domains execute them. *)
let test_campaign_parallel_deterministic () =
  let spec = spec_of (Elzar.Hardened Elzar.Harden_config.default) in
  let r1 = Campaign.model_campaign ~model:Fault.Reg ~seed:13 ~n:24 ~jobs:1 spec in
  let r2 = Campaign.model_campaign ~model:Fault.Reg ~seed:13 ~n:24 ~jobs:2 spec in
  let r4 = Campaign.model_campaign ~model:Fault.Reg ~seed:13 ~n:24 ~jobs:4 spec in
  check_bool "1 vs 2 workers: same stats" true (r1.Campaign.stats = r2.Campaign.stats);
  check_bool "1 vs 4 workers: same stats" true (r1.Campaign.stats = r4.Campaign.stats);
  check_bool "1 vs 2 workers: same per-experiment outcomes" true
    (r1.Campaign.outcomes = r2.Campaign.outcomes);
  check_bool "1 vs 4 workers: same per-experiment outcomes" true
    (r1.Campaign.outcomes = r4.Campaign.outcomes);
  let double = Fault.Double { same_bit = true } in
  let d1 = Campaign.model_campaign ~model:double ~seed:17 ~n:12 ~jobs:1 spec in
  let d4 = Campaign.model_campaign ~model:double ~seed:17 ~n:12 ~jobs:4 spec in
  check_bool "double campaign: 1 vs 4 workers identical" true
    (d1.Campaign.stats = d4.Campaign.stats && d1.Campaign.outcomes = d4.Campaign.outcomes)

(* An experiment whose site is never executed must be classified
   Not_reached (and discarded by campaigns), not Masked. *)
let test_not_reached () =
  let spec = spec_of (Elzar.Hardened Elzar.Harden_config.default) in
  let golden = Fault.golden spec in
  let sites = golden.Cpu.Machine.inject_sites in
  let r =
    Fault.run_experiment spec
      {
        Fault.at = (10 * sites) + 1;
        lane = 0;
        bit = 5;
        second = None;
        kind = Cpu.Machine.Reg_flip;
      }
  in
  check_bool "no fault injected" false r.Cpu.Machine.fault_injected;
  check_bool "classified Not_reached" true (Fault.classify ~golden r = Fault.Not_reached);
  check_bool "Not_reached does not dilute stats" true
    (Fault.add_outcome Fault.empty_stats Fault.Not_reached = Fault.empty_stats)

(* Interrupt a checkpointed campaign partway (via the cancellation flag),
   then resume it: the resumed run must restore the completed experiments
   instead of re-executing them and end with exactly the stats of an
   uninterrupted run. *)
let test_checkpoint_resume () =
  let spec = spec_of (Elzar.Hardened Elzar.Harden_config.default) in
  let path = Filename.temp_file "elzar_campaign" ".ck" in
  Sys.remove path;
  let baseline = Campaign.model_campaign ~model:Fault.Reg ~seed:21 ~n:40 ~jobs:1 spec in
  let cancel = Atomic.make false in
  let partial =
    Campaign.model_campaign ~model:Fault.Reg ~seed:21 ~n:40 ~jobs:1 ~checkpoint:path ~cancel
      ~progress:(fun p -> if p.Campaign.completed >= 35 then Atomic.set cancel true)
      spec
  in
  check_bool "campaign interrupted" true partial.Campaign.interrupted;
  check_bool "checkpoint file written" true (Sys.file_exists path);
  let resumed =
    Campaign.model_campaign ~model:Fault.Reg ~seed:21 ~n:40 ~jobs:1 ~checkpoint:path spec
  in
  check_bool "resumed campaign matches uninterrupted stats" true
    (resumed.Campaign.stats = baseline.Campaign.stats);
  check_bool "resume re-executed only the remainder" true
    (resumed.Campaign.experiments_run < 40);
  check_bool "checkpoint removed after completion" true (not (Sys.file_exists path))

(* ---- property: the second flip of a double-bit SEU never aliases the
   first after the wrap to the destination's lane count (the bug this
   guards against silently turned double campaigns into fault-free runs) *)

let prop_second_flip_never_cancels =
  QCheck.Test.make ~count:1000 ~name:"second flip never cancels the first"
    QCheck.(
      quad (int_range 1 8) (int_bound 31) (int_bound 63) (pair (int_bound 200) (int_bound 63)))
    (fun (dlanes, lane, bit, (lane2, bit2)) ->
      let l2, b2 = Cpu.Machine.second_flip ~dlanes ~lane ~bit ~lane2 ~bit2 in
      let l1 = lane mod dlanes and b1 = bit land 63 in
      l2 >= 0 && l2 < dlanes && b2 >= 0 && b2 < 64 && (l2, b2) <> (l1, b1))

(* The campaign's own draw: the raw second lane is always at a non-zero
   offset so the common 4-lane destinations never alias even pre-wrap. *)
let prop_double_draw_distinct =
  let golden = lazy (Fault.golden (spec_of (Elzar.Hardened Elzar.Harden_config.default))) in
  QCheck.Test.make ~count:300 ~name:"double draws: lanes distinct for 4-lane destinations"
    QCheck.(triple small_nat (int_range 1 5000) bool)
    (fun (seed, sites, same_bit) ->
      let golden = { (Lazy.force golden) with Cpu.Machine.inject_sites = sites } in
      let e = Campaign.draw ~seed ~model:(Fault.Double { same_bit }) golden () in
      match e.Fault.second with
      | Some (lane2, _) -> (lane2 - e.Fault.lane) mod 4 <> 0 && lane2 <> e.Fault.lane
      | None -> false)

(* ---- property: an injected flip actually changes the destination
   register.  The kernel is a chain of bijective ops (xor/add/odd-mul), so
   if the flip lands, the final output MUST differ from the golden run —
   an unchanged output would mean the flip never hit the register. *)

let bijective_chain_module () =
  let m = Ir.Builder.create_module () in
  let open Ir.Builder in
  let b, ps = func m "kernel" [ ("x", Ir.Types.i64) ] ~ret:Ir.Types.i64 in
  let x = match ps with [ p ] -> Ir.Instr.Reg p | _ -> assert false in
  let t1 = xor b x (i64c 0x5A5A5A5A) in
  let t2 = add b t1 (i64c 0x1234567) in
  let t3 = mul b t2 (i64c 0x9E3779B1) in
  let t4 = xor b t3 (i64c 0x0F0F0F0F) in
  ret b (Some t4);
  let b, _ = func m ~hardened:false "main" [ ("n", Ir.Types.i64) ] in
  let r = callv b ~ret:Ir.Types.i64 "kernel" [ i64c 987654321 ] in
  call0 b "output_i64" [ r ];
  ret b None;
  m

let prop_flip_changes_register =
  let spec =
    Fault.make_spec (Elzar.prepare Elzar.Native_novec (bijective_chain_module ())) "main"
      ~args:[| 1L |]
  in
  let golden = Fault.golden spec in
  let sites = golden.Cpu.Machine.inject_sites in
  QCheck.Test.make ~count:200 ~name:"injected flip changes the destination register"
    QCheck.(triple small_nat (int_bound 63) (int_bound 31))
    (fun (k, bit, lane) ->
      let at = 1 + (k mod sites) in
      let r =
        Fault.run_experiment spec
          { Fault.at; lane; bit; second = None; kind = Cpu.Machine.Reg_flip }
      in
      (* the site is always reached, the flip always lands, and — every op
         being a bijection in the flipped register — always propagates *)
      r.Cpu.Machine.fault_injected
      && r.Cpu.Machine.output_bytes <> golden.Cpu.Machine.output_bytes
      && Fault.classify ~golden r = Fault.Sdc)

(* The extended recovery handles every single-bit fault the basic one does. *)
let test_extended_recovery () =
  let spec =
    spec_of
      (Elzar.Hardened { Elzar.Harden_config.default with recovery = Elzar.Harden_config.Extended })
  in
  let golden = Fault.golden spec in
  let sites = golden.Cpu.Machine.inject_sites in
  let bad = ref 0 in
  for k = 0 to 50 do
    let at = 1 + (k * 13 mod sites) in
    match reg_flip spec ~golden ~at ~lane:(k mod 4) ~bit:((k * 3) mod 64) with
    | Fault.Hang | Fault.Deadlock | Fault.Os_detected | Fault.Sdc | Fault.Not_reached ->
        incr bad
    | Fault.Elzar_corrected | Fault.Masked -> ()
  done;
  check_bool "extended recovery: at most the return window leaks" true (!bad <= 2)

(* In a load-heavy kernel the future-AVX gather mode closes the extracted
   address window: corrected faults still occur, via the FPGA-style vote. *)
let test_future_avx_corrects () =
  let m = Ir.Builder.create_module () in
  Ir.Builder.global m "a" 512;
  let open Ir.Builder in
  let b, _ = func m "kernel" [] ~ret:Ir.Types.i64 in
  let acc = fresh b ~name:"acc" Ir.Types.i64 in
  assign b acc (i64c 0);
  for_ b ~lo:(i64c 0) ~hi:(i64c 60) (fun i ->
      let v = load b Ir.Types.i64 (gep b (Ir.Instr.Glob "a") (and_ b i (i64c 63)) 8) in
      assign b acc (add b (Reg acc) v));
  ret b (Some (Reg acc));
  let b, _ = func m ~hardened:false "main" [ ("n", Ir.Types.i64) ] in
  let r = callv b ~ret:Ir.Types.i64 "kernel" [] in
  call0 b "output_i64" [ r ];
  ret b None;
  let build = Elzar.Hardened Elzar.Harden_config.future_avx in
  let spec =
    Fault.make_spec (Elzar.prepare build m) "main" ~args:[| 1L |]
      ~flags_cmp:(Elzar.uses_flags_cmp build)
  in
  let golden = Fault.golden spec in
  let sites = golden.Cpu.Machine.inject_sites in
  let bad = ref 0 in
  for k = 0 to 60 do
    let at = 1 + (k * 3 mod sites) in
    match reg_flip spec ~golden ~at ~lane:(k mod 4) ~bit:((k * 7) mod 64) with
    | Fault.Sdc -> incr bad
    | _ -> ()
  done;
  check_bool "gather mode: almost no SDCs" true (!bad <= 2)

(* ---- majority4: the recovery vote itself ---- *)

let test_majority4 () =
  let of_arr a = Cpu.Machine.majority4 ~n:(Array.length a) (fun i -> a.(i)) in
  Alcotest.(check int64) "3-1 split returns the majority" 7L (of_arr [| 7L; 7L; 9L; 7L |]);
  Alcotest.(check int64) "4-0 split returns the value" 5L (of_arr [| 5L; 5L; 5L; 5L |]);
  Alcotest.(check int64) "pair among four wins" 3L (of_arr [| 1L; 3L; 2L; 3L |]);
  Alcotest.(check int64) "2-2 split picks the first pair" 1L (of_arr [| 1L; 1L; 2L; 2L |]);
  let raises a =
    match of_arr a with
    | _ -> false
    | exception Cpu.Machine.Trap Cpu.Machine.Elzar_fatal -> true
  in
  check_bool "all-distinct has no majority" true (raises [| 1L; 2L; 3L; 4L |])

(* ---- the re-execution pipeline end to end: find a double-bit same-bit
   fault that fail-stops the Extended build (a 2-2 lane split, no
   majority), then check the same fault is *corrected* under Reexec — the
   rollback restarts the hardened call and the one-shot injection does not
   re-fire — and still fail-stops under an exhausted (0-budget) Reexec. *)

let test_reexec_corrects_no_majority () =
  let ext = spec_of (Elzar.Hardened Elzar.Harden_config.extended) in
  let rex = spec_of (Elzar.Hardened Elzar.Harden_config.reexec) in
  let rex0 =
    spec_of
      (Elzar.Hardened
         { Elzar.Harden_config.default with recovery = Elzar.Harden_config.Reexec 0 })
  in
  let golden = Fault.golden ext in
  let sites = golden.Cpu.Machine.inject_sites in
  let exp_at at =
    { Fault.at; lane = 0; bit = 3; second = Some (1, 3); kind = Cpu.Machine.Reg_flip }
  in
  (* scan for a site where the 2-2 split reaches a vote and fail-stops *)
  let rec find at =
    if at > min sites 120 then None
    else
      let r = Fault.run_experiment ext (exp_at at) in
      if r.Cpu.Machine.trap = Some Cpu.Machine.Elzar_fatal then Some at else find (at + 1)
  in
  match find 1 with
  | None -> Alcotest.fail "no fail-stopping 2-2 fault found in the first 120 sites"
  | Some at ->
      let r = Fault.run_experiment rex (exp_at at) in
      check_bool "reexec run rolled back" true (r.Cpu.Machine.reexecutions > 0);
      check_bool "reexec run retried the vote" true (r.Cpu.Machine.retried_faults > 0);
      Alcotest.(check string) "reexec outcome"
        (Fault.outcome_to_string Fault.Elzar_corrected)
        (Fault.outcome_to_string (Fault.classify ~golden r));
      check_bool "detection latency recorded" true (r.Cpu.Machine.detect_latency <> None);
      let r0 = Fault.run_experiment rex0 (exp_at at) in
      Alcotest.(check string) "exhausted budget still fail-stops"
        (Fault.outcome_to_string Fault.Os_detected)
        (Fault.outcome_to_string (Fault.classify ~golden r0))

(* ---- per-model campaigns: kernel with hardened loads and branches so
   every site stream is non-empty, then the engine's core guarantee per
   fault model: bit-identical stats and observations for 1/2/4 workers. *)

let loads_and_branches_module () =
  let m = Ir.Builder.create_module () in
  Ir.Builder.global m "a" 512;
  let open Ir.Builder in
  let b, _ = func m "kernel" [] ~ret:Ir.Types.i64 in
  let acc = fresh b ~name:"acc" Ir.Types.i64 in
  assign b acc (i64c 0);
  for_ b ~lo:(i64c 0) ~hi:(i64c 50) (fun i ->
      let v = load b Ir.Types.i64 (gep b (Ir.Instr.Glob "a") (and_ b i (i64c 63)) 8) in
      assign b acc (add b (Reg acc) (xor b v (shl b i (i64c 2)))));
  ret b (Some (Reg acc));
  let b, _ = func m ~hardened:false "main" [ ("n", Ir.Types.i64) ] in
  let r = callv b ~ret:Ir.Types.i64 "kernel" [] in
  call0 b "output_i64" [ r ];
  ret b None;
  m

let loads_and_branches_spec () =
  Fault.make_spec
    (Elzar.prepare (Elzar.Hardened Elzar.Harden_config.default) (loads_and_branches_module ()))
    "main" ~args:[| 1L |]

let test_model_campaigns_deterministic () =
  let spec = loads_and_branches_spec () in
  let golden = Fault.golden spec in
  check_bool "mem sites counted" true (golden.Cpu.Machine.mem_sites > 0);
  check_bool "branch sites counted" true (golden.Cpu.Machine.branch_sites > 0);
  List.iter
    (fun model ->
      let r1 = Campaign.model_campaign ~seed:5 ~n:10 ~jobs:1 ~model spec in
      let r2 = Campaign.model_campaign ~seed:5 ~n:10 ~jobs:2 ~model spec in
      let r4 = Campaign.model_campaign ~seed:5 ~n:10 ~jobs:4 ~model spec in
      let tag = Fault.model_to_string model in
      check_bool (tag ^ ": 1 vs 2 workers identical") true
        (r1.Campaign.stats = r2.Campaign.stats && r1.Campaign.outcomes = r2.Campaign.outcomes);
      check_bool (tag ^ ": 1 vs 4 workers identical") true
        (r1.Campaign.stats = r4.Campaign.stats && r1.Campaign.outcomes = r4.Campaign.outcomes))
    Fault.all_models

(* ---- plan pin: the MD5 of the (at, lane, bit, second, kind) of the 64
   experiments each model draws for seed 42 against one fixed golden run,
   the loads-and-branches kernel's.  [Reg] and [Double] plans are seeded
   with the seed alone, the other models' with the seed salted by the
   model's name.  A change to any model's seeding or draw order shows up
   here; regenerate the table only in a change that means to alter plans,
   and say so in CHANGES.md. *)

let expected_plans =
  [
    (Fault.Reg, "89d8ec8525db2e4ca5c5084bfb9e3e72");
    (Fault.Double { same_bit = true }, "b2b34ca5cbde5299d3eb972e1eb4a744");
    (Fault.Double { same_bit = false }, "e3228fe56a508c48061d428c525eec6d");
    (Fault.Mem, "b30c2549baaa1e709c1bf5693da99e5a");
    (Fault.Addr, "72eec8587411751e81573fe6bb1f529f");
    (Fault.Cf, "836198c0bee656a0f740edc55c8716b0");
    (Fault.Mixed, "20e4b8c0587c750973469322f87e11d0");
  ]

let test_plan_pin () =
  let golden = Fault.golden (loads_and_branches_spec ()) in
  Alcotest.(check (list int))
    "golden site streams (register, memory, branch)" [ 858; 50; 102 ]
    Cpu.Machine.[ golden.inject_sites; golden.mem_sites; golden.branch_sites ];
  List.iter
    (fun (model, md5) ->
      let draw = Campaign.draw ~seed:42 ~model golden in
      let b = Buffer.create 1024 in
      for _ = 1 to 64 do
        let e = draw () in
        Printf.bprintf b "%d %d %d %s %s\n" e.Fault.at e.Fault.lane e.Fault.bit
          (match e.Fault.second with
          | None -> "-"
          | Some (l, b) -> Printf.sprintf "%d:%d" l b)
          (Cpu.Machine.fault_kind_to_string e.Fault.kind)
      done;
      Alcotest.(check string)
        (Fault.model_to_string model)
        md5
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    expected_plans

(* ---- a model whose site stream is empty is rejected up front ---- *)

let test_empty_stream_rejected () =
  let rejects what spec model =
    match Campaign.model_campaign ~n:1 ~jobs:1 ~model spec with
    | _ -> Alcotest.failf "%s: %s campaign ran" what (Fault.model_to_string model)
    | exception Invalid_argument _ -> ()
  in
  (* nothing hardened: every stream is empty *)
  let unhardened =
    Fault.make_spec
      (Elzar.prepare (Elzar.Hardened Elzar.Harden_config.default)
         (pure_compute_module ~hardened:false ()))
      "main" ~args:[| 1L |]
  in
  List.iter (rejects "unhardened module" unhardened) Fault.all_models;
  (* a straight-line kernel hardened without checks has no conditional
     branch to divert (with checks, the vote before its return is one),
     but its register stream is not empty *)
  let straight =
    Fault.make_spec
      (Elzar.prepare (Elzar.Hardened Elzar.Harden_config.no_checks)
         (bijective_chain_module ()))
      "main" ~args:[| 1L |]
  in
  rejects "branch-free kernel" straight Fault.Cf;
  Alcotest.(check int) "branch-free kernel: reg campaign runs" 4
    (Campaign.model_campaign ~n:4 ~jobs:1 ~model:Fault.Reg straight).Campaign.stats.Fault.runs

(* ---- deadlocks are their own bucket, folded into crashed% ---- *)

let test_deadlock_counted_separately () =
  let spec = spec_of (Elzar.Hardened Elzar.Harden_config.default) in
  let golden = Fault.golden spec in
  let r = { golden with Cpu.Machine.trap = Some Cpu.Machine.Deadlock } in
  Alcotest.(check string) "classified as deadlock"
    (Fault.outcome_to_string Fault.Deadlock)
    (Fault.outcome_to_string (Fault.classify ~golden r));
  let s = Fault.add_outcome Fault.empty_stats Fault.Deadlock in
  Alcotest.(check int) "deadlock bucket" 1 s.Fault.deadlock;
  Alcotest.(check int) "not in hang bucket" 0 s.Fault.hang;
  check_bool "still a crash for Table I" true (Fault.crashed_pct s = 100.0)

(* ---- hang budget derives from the golden run, floored and capped ---- *)

let test_hang_budget () =
  let spec = spec_of (Elzar.Hardened Elzar.Harden_config.default) in
  let golden = Fault.golden spec in
  let b = Fault.hang_budget ~golden spec in
  let expect =
    min spec.Fault.max_instrs
      (max 1_000_000 (20 * golden.Cpu.Machine.totals.Cpu.Counters.instrs))
  in
  Alcotest.(check int) "budget formula" expect b;
  check_bool "budget well below the default cap" true (b < spec.Fault.max_instrs);
  let tight = { spec with Fault.max_instrs = 500 } in
  Alcotest.(check int) "spec budget stays an upper bound" 500
    (Fault.hang_budget ~golden tight)

(* ---- a corrupt checkpoint file restarts the campaign instead of
   crashing it (and instead of silently resuming garbage) ---- *)

let test_corrupt_checkpoint_restarts () =
  let spec = spec_of (Elzar.Hardened Elzar.Harden_config.default) in
  let baseline = Campaign.model_campaign ~model:Fault.Reg ~seed:31 ~n:12 ~jobs:1 spec in
  let path = Filename.temp_file "elzar_campaign" ".ck" in
  let oc = open_out_bin path in
  output_string oc "not a checkpoint at all";
  close_out oc;
  let r = Campaign.model_campaign ~model:Fault.Reg ~seed:31 ~n:12 ~jobs:1 ~checkpoint:path spec in
  check_bool "campaign completed from scratch" true
    (r.Campaign.stats = baseline.Campaign.stats);
  Alcotest.(check int) "all experiments re-executed" baseline.Campaign.experiments_run
    r.Campaign.experiments_run;
  if Sys.file_exists path then Sys.remove path

(* ---- the Fig. 13-extension acceptance property: under the adversarial
   double-bit same-bit campaign, Reexec strictly reduces crashed%
   relative to Extended (no-majority faults become corrections) ---- *)

let test_reexec_reduces_crashes () =
  let ext = spec_of (Elzar.Hardened Elzar.Harden_config.extended) in
  let rex = spec_of (Elzar.Hardened Elzar.Harden_config.reexec) in
  let double = Fault.Double { same_bit = true } in
  let re = Campaign.model_campaign ~model:double ~seed:29 ~n:30 ~jobs:2 ext in
  let rr = Campaign.model_campaign ~model:double ~seed:29 ~n:30 ~jobs:2 rex in
  let ce = Fault.crashed_pct re.Campaign.stats
  and cr = Fault.crashed_pct rr.Campaign.stats in
  check_bool "extended fail-stops some 2-2 faults" true (ce > 0.0);
  check_bool
    (Printf.sprintf "reexec crashes less (%.1f%% < %.1f%%)" cr ce)
    true (cr < ce);
  check_bool "reexec converts them into corrections" true
    (rr.Campaign.stats.Fault.corrected > re.Campaign.stats.Fault.corrected)

(* An invalidated checkpoint keeps no undo log: rollback never reads it,
   so the log is dropped where coverage ends instead of when the
   checkpointed call returns.  In a fault-free run of streamcluster's
   re-execution build, hardened calls reach builtins that end coverage
   mid-call; at every quantum boundary each invalid checkpoint must hold an
   empty log.  Dropping it changes no result: the output is the native
   build's, and nothing rolls back. *)
let test_invalid_checkpoint_drops_log () =
  let w = Workloads.Registry.find "scluster" in
  let spec_for build = Workloads.Workload.fi_spec w ~build () in
  let spec = spec_for (Elzar.Hardened Elzar.Harden_config.reexec) in
  let cfg =
    { Cpu.Machine.default_config with Cpu.Machine.reexec_retries = spec.Fault.reexec_retries }
  in
  let m = Cpu.Machine.create ~cfg ~flags_cmp:spec.Fault.flags_cmp spec.Fault.modul in
  spec.Fault.init m;
  let invalid = ref 0 in
  let r =
    Cpu.Machine.run ~args:spec.Fault.args m spec.Fault.entry ~on_quantum:(fun mm ->
        List.iter
          (fun (th : Cpu.Machine.thread) ->
            match th.Cpu.Machine.ck with
            | Some ck when not ck.Cpu.Machine.ck_valid ->
                incr invalid;
                if ck.Cpu.Machine.ck_log <> [] || ck.Cpu.Machine.ck_log_len <> 0 then
                  Alcotest.failf "thread %d: invalid checkpoint holds %d undo entries"
                    th.Cpu.Machine.tid ck.Cpu.Machine.ck_log_len
            | _ -> ())
          mm.Cpu.Machine.threads)
  in
  check_bool "some checkpoint was invalidated mid-call" true (!invalid > 0);
  check_bool "no trap" true (r.Cpu.Machine.trap = None);
  Alcotest.(check int) "nothing rolled back" 0 r.Cpu.Machine.reexecutions;
  Alcotest.(check string)
    "output is the native build's"
    (Fault.golden (spec_for Elzar.Native)).Cpu.Machine.output_digest r.Cpu.Machine.output_digest

(* ---- results pin: the deterministic results of one campaign per fault
   model, and the golden runs behind them, pinned by MD5 so a change to
   execution, site counting, snapshot restore or plan drawing that moves
   any reported figure fails here.  A change that means to move them
   regenerates the table (the failure prints every row) and says so. ---- *)

let pin_build name = List.assoc name Elzar.builds

let pin_spec wl build =
  Workloads.Workload.fi_spec (Workloads.Registry.find wl) ~build:(pin_build build) ()

let md5 s = Digest.to_hex (Digest.string s)

(* "campaign <model>": [Report.campaign_results] of a 16-experiment hist
   campaign, under elzar-reexec for the double models (whose 2-2 splits
   only re-execution corrects) and elzar for the others. *)
let campaign_pin model =
  let build = match model with Fault.Double _ -> "elzar-reexec" | _ -> "elzar" in
  let r = Campaign.model_campaign ~n:16 ~jobs:2 ~model (pin_spec "hist" build) in
  ( "campaign " ^ Fault.model_to_string model,
    md5 (Obs.Json.to_string (Report.campaign_results r)) )

(* "golden <wl> <build>": the golden run's cycles, counter totals, output
   and its three site counts. *)
let golden_pin (wl, build) =
  let g = Fault.golden (pin_spec wl build) in
  let open Cpu.Machine in
  ( Printf.sprintf "golden %s %s" wl build,
    md5
      (Printf.sprintf "%d %s %s %d %d %d" g.wall_cycles
         (Obs.Json.to_string ~compact:true (Report.counters g.totals))
         g.output_digest g.inject_sites g.mem_sites g.branch_sites) )

let expected_results =
  [
    ("campaign reg", "a1788d63e69cb269bb26adaf83a01afa");
    ("campaign double", "490cc50b460c8b891af1dec85154aafc");
    ("campaign double-any-bit", "6ef408832b0fc39d1eb9aed36c0a9be0");
    ("campaign mem", "888e908ebc9c6fe57d66c0144db2a580");
    ("campaign addr", "19f2702989c7532382b52431738a8044");
    ("campaign cf", "9a6d131ed0a011f9b3f9e44a724d1f60");
    ("campaign mixed", "c1c43e9e6db283b3464b982661349cb2");
    ("golden hist native", "ea496937626524214c94d34e5c67619b");
    ("golden hist elzar", "388461a1742d4899d52d9789667794f7");
    ("golden hist elzar-reexec", "388461a1742d4899d52d9789667794f7");
    ("golden linreg native", "56ff59a2b7a65a7fd44af4f880d9ba1a");
    ("golden linreg elzar", "167eab7cd3ad4cb9eacb7ca3e749bd27");
    ("golden linreg elzar-reexec", "167eab7cd3ad4cb9eacb7ca3e749bd27");
    ("golden km native", "5223686d00f75fc46e3799de2f6edfc4");
    ("golden km elzar", "035fc821da09043e3a35b68220253dbc");
    ("golden km elzar-reexec", "035fc821da09043e3a35b68220253dbc");
  ]

let test_results_pin () =
  let goldens =
    List.concat_map
      (fun wl -> List.map (fun b -> (wl, b)) [ "native"; "elzar"; "elzar-reexec" ])
      [ "hist"; "linreg"; "km" ]
  in
  Alcotest.(check (list (pair string string)))
    "results table" expected_results
    (List.map campaign_pin Fault.all_models @ List.map golden_pin goldens)

let tests =
  [
    Alcotest.test_case "results pin" `Quick test_results_pin;
    Alcotest.test_case "pure compute fully protected" `Slow test_pure_compute_always_protected;
    Alcotest.test_case "native is vulnerable" `Quick test_native_is_vulnerable;
    Alcotest.test_case "campaign stats partition" `Quick test_campaign_stats_consistent;
    Alcotest.test_case "campaign parallel determinism" `Quick
      test_campaign_parallel_deterministic;
    Alcotest.test_case "not-reached sites are discarded" `Quick test_not_reached;
    Alcotest.test_case "checkpoint and resume" `Quick test_checkpoint_resume;
    Alcotest.test_case "extended recovery" `Slow test_extended_recovery;
    Alcotest.test_case "future-AVX closes the window" `Slow test_future_avx_corrects;
    Alcotest.test_case "majority4 vote" `Quick test_majority4;
    Alcotest.test_case "reexec corrects no-majority faults" `Quick
      test_reexec_corrects_no_majority;
    Alcotest.test_case "reexec: invalid checkpoint drops its undo log" `Quick
      test_invalid_checkpoint_drops_log;
    Alcotest.test_case "model campaigns worker-invariant" `Quick
      test_model_campaigns_deterministic;
    Alcotest.test_case "plan pin per model" `Quick test_plan_pin;
    Alcotest.test_case "empty site stream rejected" `Quick test_empty_stream_rejected;
    Alcotest.test_case "deadlocks counted separately" `Quick test_deadlock_counted_separately;
    Alcotest.test_case "hang budget from golden run" `Quick test_hang_budget;
    Alcotest.test_case "corrupt checkpoint restarts" `Quick test_corrupt_checkpoint_restarts;
    Alcotest.test_case "reexec reduces crashed% vs extended" `Slow test_reexec_reduces_crashes;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_second_flip_never_cancels; prop_double_draw_distinct; prop_flip_changes_register ]

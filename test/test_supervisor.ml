(* Supervised campaign execution tests: every chaos path end-to-end
   against the real engine (host-exception retry/quarantine, wall-clock
   deadlines, worker death and loop restart), quarantine persistence
   across checkpoint resume, bit-identity of the deterministic results
   with a direct full replay and for any worker count, cooperative
   cancellation, and the supervisor's deadline arithmetic.

   The workload is Test_fault's pure-compute kernel: a single
   deterministic path whose injection sites are all always reached, so a
   campaign of [n] experiments yields exactly [n] outcomes in plan-slot
   order (no Not_reached redraws).  That makes the strongest assertion
   cheap: quarantining slot [s] must yield precisely the reference
   outcomes with index [s] removed. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let spec () = Test_fault.spec_of (Elzar.Hardened Elzar.Harden_config.default)

(* The campaign every test here runs: 16 register SEUs drawn from seed 51. *)
let campaign = Campaign.model_campaign ~model:Fault.Reg ~seed:51 ~n:16

(* Tight deadline knobs for the deadline tests: cold-start deadline
   factor x floor = 0.4 s, so a hung run is cut off quickly. *)
let tight =
  { Supervisor.default with Supervisor.deadline_factor = 2.0; deadline_floor = 0.2 }

(* The reference the campaign is checked against, built without the
   campaign engine: the plan [campaign] draws, each experiment run by a
   direct full replay and observed against the golden run. *)
let reference =
  let r =
    lazy
      (let spec = spec () in
       let golden = Fault.golden spec in
       let max_instrs = Fault.hang_budget ~golden spec in
       let draw = Campaign.draw ~seed:51 ~model:Fault.Reg golden in
       Array.map
         (fun e -> (e, Fault.observe ~golden (Fault.run_experiment ~max_instrs spec e)))
         (Array.init 16 (fun _ -> draw ())))
  in
  fun () -> Lazy.force r

(* Reference outcomes with the given plan slots removed: what a campaign
   that quarantined exactly those slots must report. *)
let outcomes_without slots =
  Array.of_list
    (List.filteri (fun i _ -> not (List.mem i slots)) (Array.to_list (reference ())))

let results_equal (r : Campaign.report) (expect : (Fault.experiment * Fault.obs) array)
    =
  r.Campaign.outcomes = expect
  && r.Campaign.stats
     = Array.fold_left
         (fun s (_, o) -> Fault.add_outcome s o.Fault.o_outcome)
         Fault.empty_stats expect

(* ---- the campaign engine vs direct replay: bit-identical at any job count ---- *)

let test_campaign_matches_direct_replay () =
  check_bool "reference has no discards" true
    (Array.for_all
       (fun (_, o) -> o.Fault.o_outcome <> Fault.Not_reached)
       (reference ()));
  let caller = (Domain.self () :> int) in
  List.iter
    (fun jobs ->
      (* the domains experiments finished on: worker 0 is the caller *)
      let seen = ref [] in
      let progress _ =
        let d = (Domain.self () :> int) in
        if not (List.mem d !seen) then seen := d :: !seen
      in
      let r = campaign ~jobs ~progress (spec ()) in
      check_bool
        (Printf.sprintf "campaign jobs=%d matches direct replay" jobs)
        true
        (results_equal r (reference ()));
      check_bool "at most [jobs] worker domains" true (List.length !seen <= jobs);
      if jobs = 1 then check_bool "jobs=1 runs on the caller" true (!seen = [ caller ]);
      check_bool "nothing quarantined" true (r.Campaign.quarantined = []);
      check_int "no worker deaths" 0 r.Campaign.worker_deaths;
      check_bool "not interrupted" false r.Campaign.interrupted)
    [ 1; 2; 4 ]

(* ---- host exception on the Nth experiment: retried, then clean ---- *)

let test_chaos_raise_retried () =
  let c = Supervisor.chaos ~slot:3 Supervisor.Chaos_raise in
  let r =
    campaign ~jobs:1 ~chaos:[ c ] (spec ())
  in
  (* one-shot: the first execution raised, the deterministic re-execution
     succeeded, and nothing reached the report *)
  check_int "slot executed twice" 2 (Supervisor.chaos_hits c);
  check_bool "report identical to the reference" true
    (results_equal r (reference ()));
  check_bool "no quarantine" true (r.Campaign.quarantined = [])

(* ---- host exception on every attempt: quarantined, campaign continues ---- *)

let test_chaos_raise_persistent_quarantines () =
  let c = Supervisor.chaos ~persistent:true ~slot:2 Supervisor.Chaos_raise in
  let r =
    campaign ~jobs:1 ~chaos:[ c ] (spec ())
  in
  (match r.Campaign.quarantined with
  | [ te ] ->
      check_bool "kind" true (te.Supervisor.te_kind = Supervisor.Host_exception);
      check_int "slot" 2 te.Supervisor.te_slot;
      check_int "attempts = 1 + retries" 3 te.Supervisor.te_attempts;
      check_bool "detail names the exception" true
        (te.Supervisor.te_detail = "Test_supervisor.Supervisor.Chaos_failure"
        || String.length te.Supervisor.te_detail > 0)
  | l -> Alcotest.failf "expected 1 quarantine, got %d" (List.length l));
  check_int "all attempts consumed" 3 (Supervisor.chaos_hits c);
  check_bool "other 15 outcomes unaffected" true (results_equal r (outcomes_without [ 2 ]))

(* ---- wall-clock runaway: deadline aborts twice, then quarantines ---- *)

let test_chaos_hang_deadline () =
  let c = Supervisor.chaos ~persistent:true ~slot:1 Supervisor.Chaos_hang in
  let r = campaign ~jobs:1 ~supervise:tight ~chaos:[ c ] (spec ()) in
  (match r.Campaign.quarantined with
  | [ te ] ->
      check_bool "kind" true (te.Supervisor.te_kind = Supervisor.Deadline);
      check_int "slot" 1 te.Supervisor.te_slot;
      check_int "aborted twice" 2 te.Supervisor.te_attempts
  | l -> Alcotest.failf "expected 1 deadline quarantine, got %d" (List.length l));
  check_bool "other 15 outcomes unaffected" true (results_equal r (outcomes_without [ 1 ]))

(* ---- transient hang: aborted once, retried clean ---- *)

let test_chaos_hang_once_retried () =
  let c = Supervisor.chaos ~slot:6 Supervisor.Chaos_hang in
  let r = campaign ~jobs:1 ~supervise:tight ~chaos:[ c ] (spec ()) in
  check_bool "report identical to the reference" true
    (results_equal r (reference ()));
  check_bool "no quarantine" true (r.Campaign.quarantined = [])

(* ---- slow experiment: finishes within its deadline, untouched ---- *)

let test_chaos_slow_tolerated () =
  let c = Supervisor.chaos ~slot:4 (Supervisor.Chaos_slow 0.05) in
  let r =
    (* floor 0.5 s: the 50 ms stall stays well inside every deadline *)
    campaign ~jobs:1
      ~supervise:{ tight with Supervisor.deadline_floor = 0.5 }
      ~chaos:[ c ] (spec ())
  in
  check_int "slot executed once" 1 (Supervisor.chaos_hits c);
  check_bool "report identical to the reference" true
    (results_equal r (reference ()));
  check_bool "no quarantine" true (r.Campaign.quarantined = [])

(* ---- a chaos action runs once per attempt, not once per quantum ---- *)

let test_chaos_once_per_attempt () =
  (* a workload that runs many quanta, unlike the pure-compute kernel *)
  let spec =
    Workloads.Workload.fi_spec
      (Workloads.Registry.find "hist")
      ~build:(Elzar.Hardened Elzar.Harden_config.default) ()
  in
  let golden = Fault.golden spec in
  let max_instrs = Fault.hang_budget ~golden spec in
  let e = Campaign.draw ~seed:51 ~model:Fault.Reg golden () in
  let polls = ref 0 in
  let direct =
    Fault.run_experiment ~max_instrs
      ~abort:(fun () ->
        incr polls;
        false)
      spec e
  in
  check_bool "the run spans many quanta" true (!polls >= 20);
  let d = 0.1 in
  let c = Supervisor.chaos ~persistent:true ~slot:0 (Supervisor.Chaos_slow d) in
  let s = Supervisor.start Supervisor.default in
  let t0 = Unix.gettimeofday () in
  (match
     Supervisor.supervised_run s ~round:0 ~slot:0 ~chaos:[ c ] ~max_instrs
       ~snapshots:[||] ~spans:(Obs.Span.make ()) spec e
   with
  | Supervisor.V_ok r -> check_bool "result untouched" true (r = direct)
  | _ -> Alcotest.fail "a slow run within its deadline must complete");
  let dt = Unix.gettimeofday () -. t0 in
  check_int "one attempt, one consultation" 1 (Supervisor.chaos_hits c);
  check_bool "the action ran" true (dt >= d);
  (* running at every poll would sleep [polls] times *)
  check_bool "the action ran once" true (dt < d *. float_of_int !polls /. 4.0)

(* ---- worker death: detected, slot requeued, worker loop restarted ---- *)

let test_chaos_kill_restarts () =
  (* one-shot kill: the worker loop dies, the slot is requeued and
     succeeds on its second execution — the report must not show a trace
     of it.  At jobs 1 the death happens on the calling domain. *)
  List.iter
    (fun jobs ->
      let c = Supervisor.chaos ~slot:5 Supervisor.Chaos_kill in
      let r = campaign ~jobs ~chaos:[ c ] (spec ()) in
      check_int
        (Printf.sprintf "jobs=%d: one worker death" jobs)
        1 r.Campaign.worker_deaths;
      check_bool "report identical to the reference" true
        (results_equal r (reference ()));
      check_bool "no quarantine" true (r.Campaign.quarantined = []))
    [ 1; 2 ]

let test_chaos_kill_persistent_quarantines () =
  List.iter
    (fun jobs ->
      let c = Supervisor.chaos ~persistent:true ~slot:0 Supervisor.Chaos_kill in
      let r = campaign ~jobs ~chaos:[ c ] (spec ()) in
      (match r.Campaign.quarantined with
      | [ te ] ->
          check_bool "kind" true (te.Supervisor.te_kind = Supervisor.Worker_death);
          check_int "slot" 0 te.Supervisor.te_slot;
          check_int "died on every allowed execution" 3 te.Supervisor.te_attempts
      | l -> Alcotest.failf "expected 1 worker-death quarantine, got %d" (List.length l));
      check_int
        (Printf.sprintf "jobs=%d: three worker deaths" jobs)
        3 r.Campaign.worker_deaths;
      check_bool "other 15 outcomes unaffected" true
        (results_equal r (outcomes_without [ 0 ])))
    [ 1; 2 ]

(* ---- mixed chaos storm, any worker count: campaign completes in
   degraded mode with the same results block everywhere ---- *)

let test_chaos_storm_worker_invariant () =
  let run jobs =
    campaign ~jobs ~supervise:tight
      ~chaos:
        [
          Supervisor.chaos ~persistent:true ~slot:3 Supervisor.Chaos_raise;
          Supervisor.chaos ~persistent:true ~slot:7 Supervisor.Chaos_hang;
          Supervisor.chaos ~slot:9 Supervisor.Chaos_raise;
          Supervisor.chaos ~slot:11 (Supervisor.Chaos_slow 0.02);
        ]
      (spec ())
  in
  let expect = outcomes_without [ 3; 7 ] in
  List.iter
    (fun jobs ->
      let r = run jobs in
      check_int
        (Printf.sprintf "jobs=%d: two quarantines" jobs)
        2
        (List.length r.Campaign.quarantined);
      check_bool
        (Printf.sprintf "jobs=%d: quarantines in slot order" jobs)
        true
        (List.map (fun te -> te.Supervisor.te_slot) r.Campaign.quarantined = [ 3; 7 ]);
      check_bool
        (Printf.sprintf "jobs=%d: surviving outcomes bit-identical" jobs)
        true (results_equal r expect))
    [ 1; 2; 4 ]

(* ---- quarantine persists in the checkpoint: a resumed campaign never
   re-executes a known-poison plan ---- *)

let test_quarantine_persists_across_resume () =
  let path = Filename.temp_file "elzar_supervisor" ".ck" in
  Sys.remove path;
  let cancel = Atomic.make false in
  let r1 =
    campaign ~jobs:1 ~checkpoint:path ~cancel
      ~chaos:[ Supervisor.chaos ~persistent:true ~slot:0 Supervisor.Chaos_raise ]
      ~progress:(fun p -> if p.Campaign.completed >= 10 then Atomic.set cancel true)
      (spec ())
  in
  check_bool "first run interrupted" true r1.Campaign.interrupted;
  check_int "slot 0 quarantined before the interrupt" 1
    (List.length r1.Campaign.quarantined);
  check_bool "checkpoint kept" true (Sys.file_exists path);
  (* resume with a FRESH chaos spec on the same slot: if the resume ever
     re-executed the quarantined experiment, this spec would be consulted
     and its hit counter would advance *)
  let probe = Supervisor.chaos ~persistent:true ~slot:0 Supervisor.Chaos_raise in
  let r2 =
    campaign ~jobs:1 ~checkpoint:path ~chaos:[ probe ] (spec ())
  in
  check_int "quarantined slot never re-executed" 0 (Supervisor.chaos_hits probe);
  (match r2.Campaign.quarantined with
  | [ te ] ->
      check_int "quarantine restored from checkpoint" 0 te.Supervisor.te_slot;
      check_bool "restored record keeps its kind" true
        (te.Supervisor.te_kind = Supervisor.Host_exception)
  | l -> Alcotest.failf "expected the restored quarantine, got %d" (List.length l));
  check_bool "resume restored completed experiments" true (r2.Campaign.restored > 0);
  check_bool "final outcomes = reference minus the poisoned slot" true
    (results_equal r2 (outcomes_without [ 0 ]));
  check_bool "checkpoint removed after completion" true (not (Sys.file_exists path))

(* ---- a raising progress callback must not kill the campaign ---- *)

let test_progress_exception_safe () =
  let calls = ref 0 in
  let r =
    campaign ~jobs:1
      ~progress:(fun _ ->
        incr calls;
        failwith "progress consumer bug")
      (spec ())
  in
  check_bool "campaign completed despite raising progress" true
    (results_equal r (reference ()));
  check_int "callback still called every experiment" 16 !calls

(* ---- cancellation: a hung run is interrupted in-line, on the calling
   domain at jobs 1 and on a spawned one at jobs 2 ---- *)

let test_cancel_interrupts () =
  List.iter
    (fun jobs ->
      (* slot 5 hangs; every other slot a worker reaches completes first *)
      let others_done = if jobs = 1 then 5 else 15 in
      let c = Supervisor.chaos ~persistent:true ~slot:5 Supervisor.Chaos_hang in
      let cancel = Atomic.make false in
      let completed = Atomic.make 0 in
      let canceller =
        Domain.spawn (fun () ->
            let t0 = Unix.gettimeofday () in
            while
              (Supervisor.chaos_hits c = 0 || Atomic.get completed < others_done)
              && Unix.gettimeofday () -. t0 < 30.0
            do
              Unix.sleepf 0.001
            done;
            Atomic.set cancel true)
      in
      let r =
        campaign ~jobs ~cancel
          (* a missed cancel would leave the hang running for 60 s *)
          ~supervise:{ Supervisor.default with Supervisor.deadline_floor = 60.0 }
          ~chaos:[ c ]
          ~progress:(fun p -> Atomic.set completed p.Campaign.completed)
          (spec ())
      in
      Domain.join canceller;
      let name fmt = Printf.sprintf ("jobs=%d: " ^^ fmt) jobs in
      check_bool (name "interrupted") true r.Campaign.interrupted;
      check_bool (name "cancel is not a tool error") true (r.Campaign.quarantined = []);
      check_bool (name "cut short, not timed out") true (r.Campaign.wall_seconds < 30.0);
      check_bool (name "completed outcomes only")
        true
        (results_equal r
           (if jobs = 1 then Array.sub (reference ()) 0 5 else outcomes_without [ 5 ])))
    [ 1; 2 ]

(* ---- deadline arithmetic: cold start and running median ---- *)

let test_deadline_median () =
  let cfg =
    { Supervisor.default with Supervisor.deadline_factor = 3.0; deadline_floor = 0.5 }
  in
  let s = Supervisor.start cfg in
  Alcotest.(check (float 1e-9)) "cold start: factor x floor" 1.5 (Supervisor.deadline s);
  List.iter (Supervisor.record_sample s) [ 1.0; 1.0; 1.0; 2.0; 8.0 ];
  Alcotest.(check (float 1e-9)) "factor x median" 3.0 (Supervisor.deadline s);
  let s2 = Supervisor.start cfg in
  List.iter (Supervisor.record_sample s2) [ 0.01; 0.01; 0.01 ];
  Alcotest.(check (float 1e-9)) "floor holds for fast runs" 0.5 (Supervisor.deadline s2)

let tests =
  [
    Alcotest.test_case "campaign at jobs 1/2/4 = direct full replay" `Quick
      test_campaign_matches_direct_replay;
    Alcotest.test_case "host exception retried clean" `Quick test_chaos_raise_retried;
    Alcotest.test_case "persistent exception quarantined" `Quick
      test_chaos_raise_persistent_quarantines;
    Alcotest.test_case "deadline quarantines a hung run" `Quick test_chaos_hang_deadline;
    Alcotest.test_case "transient hang retried clean" `Quick test_chaos_hang_once_retried;
    Alcotest.test_case "slow run tolerated" `Quick test_chaos_slow_tolerated;
    Alcotest.test_case "chaos action runs once per attempt" `Quick
      test_chaos_once_per_attempt;
    Alcotest.test_case "worker death restarts the loop at jobs 1/2" `Quick
      test_chaos_kill_restarts;
    Alcotest.test_case "repeated worker death quarantined" `Quick
      test_chaos_kill_persistent_quarantines;
    Alcotest.test_case "chaos storm worker-invariant" `Quick
      test_chaos_storm_worker_invariant;
    Alcotest.test_case "quarantine persists across resume" `Quick
      test_quarantine_persists_across_resume;
    Alcotest.test_case "raising progress callback survives" `Quick
      test_progress_exception_safe;
    Alcotest.test_case "cancel interrupts a hung run at jobs 1/2" `Quick
      test_cancel_interrupts;
    Alcotest.test_case "deadline median arithmetic" `Quick test_deadline_median;
  ]

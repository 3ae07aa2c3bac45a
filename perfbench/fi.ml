(* Workload [fi-mixed]: fault-injection campaigns over every [fi_ok]
   workload (tiny inputs, 2 simulated threads, fast-forward on), one
   campaign after another (closed loop), each on one worker domain plus the
   supervisor's watchdog.  Each is a [Campaign.model_campaign ~model:Mixed]
   (register, memory, address and branch sites) on the re-execution build,
   with a checkpoint file.  The campaigns are made [rounds] times on the
   same plans. *)

let name = "fi-mixed"
let size = Workloads.Workload.Tiny
let nthreads = 2
let jobs = 1

(* Rounds of campaigns per run (see [Harness.in_rounds]).  A round takes
   about a third of what a [sim-sweep] round does, so three fit where
   [sim-sweep] makes two. *)
let rounds = 3

(* Injections per workload per second of [--seconds], over all rounds:
   about one second of host time per 5 x 12 experiments on a 2-core x86
   box.  At the default 20 s each campaign draws 33 and is made three
   times. *)
let injections_per_second = 5

let hardened = Harness.elzar Elzar.Harden_config.reexec
let workloads () = List.filter (fun w -> w.Workloads.Workload.fi_ok) Workloads.Registry.all

(* The run spec [Workloads.Workload.fi_spec] would build, from the set-up's
   prepared module. *)
let spec (s : Harness.setup) (w : Workloads.Workload.t) : Fault.run_spec =
  Fault.make_spec
    ~flags_cmp:(Elzar.uses_flags_cmp hardened.build)
    ~args:[| Int64.of_int nthreads |]
    ~init:(w.init size)
    ~reexec_retries:(Elzar.reexec_retries hardened.build)
    (Harness.prepared s w hardened) "main"

(* One campaign, checkpointed to a fresh file.  [progress] sees every
   completed experiment. *)
let campaign ~(seed : int) ~(n : int) ~(scratch : string) ?supervise
    ?(progress = fun (_ : Campaign.progress) -> ()) ~(tag : string) (spec : Fault.run_spec) :
    Campaign.report =
  let checkpoint = Filename.concat scratch (tag ^ ".ck") in
  if Sys.file_exists checkpoint then Sys.remove checkpoint;
  Campaign.model_campaign ~seed ~n ~jobs ~progress ~checkpoint ?supervise ~model:Fault.Mixed spec

let outcome_name = function
  | Fault.Masked -> "masked"
  | Fault.Sdc -> "sdc"
  | Fault.Elzar_corrected -> "corrected"
  | Fault.Os_detected -> "os_detected"
  | Fault.Hang -> "hang"
  | Fault.Deadlock -> "deadlock"
  | Fault.Not_reached -> "not_reached"

(* One workload's campaign in the timed loop. *)
type camp = {
  w : Workloads.Workload.t;
  spec : Fault.run_spec;
  report : Campaign.report;
  wall : float;  (** host seconds of the whole call: golden, plan and exec *)
  lats : float list;  (** host seconds between consecutive progress callbacks *)
  peak_mb : float;  (** VmHWM of the campaign's child process *)
}

let counted (c : camp) = Array.length c.report.Campaign.outcomes

(* Deterministic digest of a campaign's results block. *)
let results_digest (r : Campaign.report) : string =
  Digest.to_hex (Digest.string (Obs.Json.to_string ~compact:true (Report.campaign_results r)))

(* [a] with the host times of [b], the same campaign in a later round,
   where they were faster: the whole call, and experiment by experiment
   (one worker runs the plan in order, so the i-th callback of every
   round follows the same experiment).  [None] when the rounds ran
   differently. *)
let fastest (a : camp) (b : camp) : camp option =
  if results_digest a.report <> results_digest b.report
     || List.length a.lats <> List.length b.lats
  then None
  else Some { a with wall = Float.min a.wall b.wall; lats = List.map2 Float.min a.lats b.lats }

(* What the traced run learns on top of the timed campaign. *)
type probe = {
  mutable golden_alloc_mb : float list;
  mutable snapshots : int list;
  mutable sup_wall : float;
  mutable unsup_wall : float;
  mutable exec : (string * float) list;  (** (outcome, host seconds) per experiment *)
  mutable ff_sites : int list;  (** sites re-simulated before the fault, fast-forwarded runs *)
  mutable full_replays : int;
}

(* Campaigns per run whose seeded experiment the correctness gate replays
   on the Reference engine.  A full Reference replay costs as much as tens
   of fast-forwarded experiments, so each run checks a seeded sample and
   the seeds between them cover every workload. *)
let replay_checks = 2

(* Counted experiments the traced run re-executes: every [reexec_stride]-th. *)
let reexec_stride = 3

(* Traced-run extras for one workload, after its timed campaign [c] and
   the unsupervised campaign [unsup] on the same plan: the golden snapshot
   chain the re-executions restore from, a sample of the counted
   experiments re-executed and re-classified on their own, and the report
   rendered.  Returns the failures found (outcome or results mismatches). *)
let probe_workload (tr : Harness.tracer) (p : probe) ~(scratch : string)
    ~(unsup : Campaign.report) (c : camp) : string list =
  let wname = c.w.Workloads.Workload.name in
  let (golden, snaps), alloc = Host.allocated_mb (fun () -> Fault.golden_capture c.spec) in
  p.golden_alloc_mb <- alloc :: p.golden_alloc_mb;
  p.snapshots <- Array.length snaps :: p.snapshots;
  let failures = ref [] in
  if results_digest unsup <> results_digest c.report then
    failures := (wname ^ ": supervised/unsupervised campaign results differ") :: !failures;
  let max_instrs = Fault.hang_budget ~golden c.spec in
  Array.iteri
    (fun i ((e : Fault.experiment), (o : Fault.obs)) ->
      if i mod reexec_stride = 0 then begin
        let r, dt =
          Host.timed (fun () ->
              Harness.span tr "fault.exec" (fun () ->
                  Fault.run_experiment_from ~max_instrs ~snapshots:snaps c.spec e))
        in
        let oc = Harness.span tr "fault.classify" (fun () -> Fault.classify ~golden r) in
        if oc <> o.Fault.o_outcome then
          failures :=
            Printf.sprintf "%s: experiment at %d re-ran as %s, campaign said %s" wname e.at
              (outcome_name oc) (outcome_name o.Fault.o_outcome)
            :: !failures;
        p.exec <- (outcome_name oc, dt) :: p.exec;
        (* the snapshot Fault.run_experiment_from restores: the latest whose
           site counter for this fault kind is still below the site *)
        let site sn =
          let reg, mem, br = Cpu.Machine.snapshot_sites sn in
          match e.kind with
          | Cpu.Machine.Reg_flip -> reg
          | Cpu.Machine.Mem_flip | Cpu.Machine.Addr_flip -> mem
          | Cpu.Machine.Branch_flip -> br
        in
        match List.rev (List.filter (fun sn -> site sn < e.at) (Array.to_list snaps)) with
        | sn :: _ -> p.ff_sites <- (e.at - site sn) :: p.ff_sites
        | [] -> p.full_replays <- p.full_replays + 1
      end)
    c.report.Campaign.outcomes;
  let path = Filename.concat scratch (name ^ "-campaign.json") in
  Harness.span tr "obs.report" (fun () ->
      Report.write path (Report.campaign ~params:[ ("workload", Obs.Json.Str wname) ] c.report));
  List.rev !failures

(* [spans]: the traced run's own span rows. *)
let probe_layers (spans : Obs.Span.row list) (p : probe) (camps : camp list)
    ~(lats : float list) : (string * float) list =
  let ms xs = 1000.0 *. Stats.mean xs in
  let mean_ms rows path =
    match Harness.span_total rows path with
    | _, 0 -> 0.0
    | wall, k -> 1000.0 *. wall /. float_of_int k
  in
  let execs = List.map snd p.exec in
  let exec_total = Stats.sum execs in
  let of_outcome o = List.filter_map (fun (o', d) -> if o' = o then Some d else None) p.exec in
  let reports = List.map (fun c -> c.report) camps in
  let sum_span path sel =
    List.fold_left (fun a r -> a +. sel (Harness.span_total r.Campaign.spans path)) 0.0 reports
  in
  let n_counted = float_of_int (List.fold_left (fun a c -> a + counted c) 0 camps) in
  let restores = sum_span "exec/restore" (fun (_, k) -> float_of_int k) in
  [
    ("cpu.snapshot_alloc_mb", Stats.mean p.golden_alloc_mb);
    ( "fault.golden_ms",
      Stats.mean (List.map (fun r -> mean_ms r.Campaign.spans "golden") reports) );
    ("fault.snapshots", Stats.mean (List.map float_of_int p.snapshots));
    ( "fault.restore_ms",
      if restores = 0.0 then 0.0 else 1000.0 *. sum_span "exec/restore" fst /. restores );
    ("fault.exec_ms", ms execs);
  ]
  @ List.map
      (fun o ->
        ( "fault.exec_ms." ^ o,
          match of_outcome o with [] -> 0.0 | ds -> 1000.0 *. Stats.median ds ))
      Metrics.outcomes
  @ List.map
      (fun o -> ("fault.exec_share." ^ o, Stats.sum (of_outcome o) /. exec_total))
      Metrics.outcomes
  @ [
      ( "fault.ff_replay_sites",
        match p.ff_sites with [] -> 0.0 | xs -> Stats.mean (List.map float_of_int xs) );
      ("fault.full_replays", float_of_int p.full_replays);
      ("campaign.overhead_ms", ms lats -. ms execs);
      ( "campaign.redraw_frac",
        float_of_int (List.fold_left (fun a r -> a + r.Campaign.experiments_run) 0 reports)
        /. n_counted );
      ("campaign.checkpoint_ms", 1000.0 *. sum_span "exec/checkpoint" fst /. n_counted);
      ("supervisor.overhead_frac", (p.sup_wall -. p.unsup_wall) /. p.unsup_wall);
      ( "supervisor.quarantined",
        float_of_int (List.fold_left (fun a r -> a + List.length r.Campaign.quarantined) 0 reports)
      );
      ( "supervisor.worker_deaths",
        float_of_int (List.fold_left (fun a r -> a + r.Campaign.worker_deaths) 0 reports) );
      ("obs.report_ms", mean_ms spans "obs.report");
    ]

let run ~(tr : Harness.tracer) ~(seed : int) ~(seconds : int) ~(scratch : string) :
    Metrics.result =
  let n = max 1 (injections_per_second * seconds / rounds) in
  let wls = workloads () in
  let order = Host.shuffle ~seed wls in
  let p =
    {
      golden_alloc_mb = [];
      snapshots = [];
      sup_wall = 0.0;
      unsup_wall = 0.0;
      exec = [];
      ff_sites = [];
      full_replays = 0;
    }
  in
  let failures = ref [] in
  let fail msg = failures := !failures @ [ msg ] in
  (* the timed region: rounds of one supervised campaign per workload,
     closed loop, each round in the same order *)
  let (s, by_round), loop_wall =
    Host.timed (fun () ->
        Harness.in_rounds tr ~rounds ~size ~workloads:wls ~flavours:[ hardened; Harness.native ]
          (fun s round ->
            List.mapi
              (fun index w ->
                let wname = w.Workloads.Workload.name in
                let cseed = Host.campaign_seed ~seed ~workload:wname in
                let spec = spec s w in
                (* traced run, first round: an unsupervised campaign on the
                   same plan, before the supervised one on odd positions
                   and after it on even ones, so drift favours neither *)
                let probed = Option.is_some tr && round = 0 in
                let unsup_leg () =
                  let r, dt =
                    Harness.span tr "campaign.unsupervised" (fun () ->
                        Host.in_child (fun () ->
                            Host.timed (fun () ->
                                campaign ~seed:cseed ~n ~scratch ~tag:(wname ^ "-unsupervised")
                                  spec)))
                  in
                  p.unsup_wall <- p.unsup_wall +. dt;
                  r
                in
                let early = if probed && index land 1 = 1 then Some (unsup_leg ()) else None in
                let report, wall, lats, peak_mb =
                  Harness.span tr "campaign" (fun () ->
                      Host.in_child (fun () ->
                          let lats = ref [] and prev = ref 0.0 in
                          (* runs on the worker domain, serialized by the
                             campaign lock; read back only after the
                             campaign has joined it *)
                          let progress (pr : Campaign.progress) =
                            lats := (pr.Campaign.elapsed -. !prev) :: !lats;
                            prev := pr.Campaign.elapsed
                          in
                          Host.reset_peak_rss ();
                          let report, wall =
                            Host.timed (fun () ->
                                campaign ~seed:cseed ~n ~scratch ~supervise:Supervisor.default
                                  ~progress ~tag:wname spec)
                          in
                          (report, wall, List.rev !lats, Host.peak_rss_mb ())))
                in
                let c = { w; spec; report; wall; lats; peak_mb } in
                if probed then begin
                  p.sup_wall <- p.sup_wall +. wall;
                  let unsup = match early with Some r -> r | None -> unsup_leg () in
                  failures := !failures @ probe_workload tr p ~scratch ~unsup c
                end;
                c)
              order))
  in
  let camps =
    List.fold_left
      (List.map2 (fun a b ->
           match fastest a b with
           | Some c -> c
           | None ->
               fail (a.w.Workloads.Workload.name ^ ": rounds of the campaign ran differently");
               a))
      (List.hd by_round) (List.tl by_round)
  in
  (* outside the timed region: fault-free native and hardened runs (the
     cpu layer, the overhead ratio and the hardened-output check), then
     the correctness gate *)
  let free =
    List.map
      (fun w ->
        let go (f : Harness.flavour) =
          let r, ph =
            Harness.exec tr ~build:f.build ~init:(w.Workloads.Workload.init size) ~nthreads
              (Harness.prepared s w f)
          in
          (f, r, ph)
        in
        (w, go Harness.native, go hardened))
      wls
  in
  let checks = ref 0 in
  List.iter
    (fun ((w : Workloads.Workload.t), (_, nr, _), (_, hr, _)) ->
      incr checks;
      if nr.Cpu.Machine.trap <> None || hr.Cpu.Machine.trap <> None then
        fail (w.name ^ ": fault-free run trapped")
      else if nr.Cpu.Machine.output_digest <> hr.Cpu.Machine.output_digest then
        fail (w.name ^ ": hardened output differs from native"))
    free;
  let quarantined =
    List.fold_left (fun a c -> a + List.length c.report.Campaign.quarantined) 0 camps
  in
  List.iter
    (fun c ->
      let wname = c.w.Workloads.Workload.name in
      (* spot-check: one seeded counted experiment, full replay on the
         Reference engine, must classify as the campaign did *)
      let outs = c.report.Campaign.outcomes in
      if Array.length outs > 0 then begin
        incr checks;
        let rng = Random.State.make [| seed; Hashtbl.hash wname |] in
        let e, o = outs.(Random.State.int rng (Array.length outs)) in
        let golden = Fault.golden c.spec in
        let r =
          Fault.run_experiment
            ~max_instrs:(Fault.hang_budget ~golden c.spec)
            { c.spec with Fault.engine = Cpu.Machine.Reference }
            e
        in
        if Fault.classify ~golden r <> o.Fault.o_outcome then
          fail (Printf.sprintf "%s: Reference replay of experiment at %d disagrees" wname e.at)
      end)
    (List.filteri (fun i _ -> i < replay_checks) (Host.shuffle ~seed:(seed + 1) camps));
  let n_counted = List.fold_left (fun a c -> a + counted c) 0 camps in
  (* the probed round's latencies: the re-executions they are compared with
     are single samples too *)
  let lats = List.concat_map (fun c -> c.lats) (List.hd by_round) in
  let camp_wall = Stats.sum (List.map (fun c -> c.wall) camps) in
  (* Latency percentiles are taken per campaign, then combined by geometric
     mean: pooled over campaigns whose experiments differ tenfold in cost,
     a percentile lands between workload clusters and swings with the plan
     the seed draws. *)
  let campaign_percentile p =
    1000.0 *. Stats.gmean (List.map (fun c -> Stats.percentile p c.lats) camps)
  in
  let mismatches = List.length !failures in
  let layers =
    match tr with
    | None -> []
    | Some r ->
        [ ("workloads.build_ms", s.build_ms); ("core.prepare_ms", s.prepare_ms) ]
        @ Harness.cpu_layers
            (List.concat_map
               (fun (_, (f1, r1, ph1), (f2, r2, ph2)) ->
                 List.map
                   (fun ((f : Harness.flavour), (r : Cpu.Machine.result), ph) ->
                     {
                       Harness.c_flavour = f.tag;
                       c_threads = nthreads;
                       c_totals = r.Cpu.Machine.totals;
                       c_phases = ph;
                     })
                   [ (f1, r1, ph1); (f2, r2, ph2) ])
               free)
        @ probe_layers (Obs.Span.rows r) p camps ~lats
        @ Harness.trace_layers r ~ops:n_counted ~ops_wall:camp_wall ~traced_wall:loop_wall
  in
  let fingerprint =
    Host.md5_hex
      (List.sort compare
         (List.map (fun c -> c.w.Workloads.Workload.name ^ ":" ^ results_digest c.report) camps
         @ List.map
             (fun ((w : Workloads.Workload.t), (_, nr, _), (_, hr, _)) ->
               Printf.sprintf "%s:%d:%s:%d:%s" w.name nr.Cpu.Machine.wall_cycles
                 (Host.counter_fields nr.Cpu.Machine.totals)
                 hr.Cpu.Machine.wall_cycles
                 (Host.counter_fields hr.Cpu.Machine.totals))
             free))
  in
  {
    Metrics.correct = mismatches = 0;
    attempted = n_counted + !checks;
    failed = mismatches + quarantined;
    e2e =
      [
        ("setup_s", s.setup_s);
        (* median, not max: a seed may or may not draw one runaway
           experiment that alone raises one campaign's peak by hundreds
           of MB *)
        ("peak_rss_mb", Stats.median (List.map (fun c -> c.peak_mb) camps));
        ("ops_per_s", float_of_int n_counted /. camp_wall);
        ("op_p50_ms", campaign_percentile 50.0);
        ("op_p90_ms", campaign_percentile 90.0);
        ( "sim_overhead_x",
          Stats.gmean
            (List.map
               (fun (_, (_, nr, _), (_, hr, _)) ->
                 float_of_int hr.Cpu.Machine.wall_cycles
                 /. float_of_int nr.Cpu.Machine.wall_cycles)
               free) );
      ];
    layers;
    notes =
      [
        Harness.stamp ~workload:name ~seed ~size ~jobs ~trace:(Option.is_some tr)
          ~work:
            (Printf.sprintf "campaigns=%d injections=%d rounds=%d" (List.length camps) n rounds);
        Printf.sprintf
          "samples op_p50_ms=op_p90_ms=%d campaigns x %d-%d experiments (each the fastest of %d \
           rounds) setup_s=%d experiments=%d"
          (List.length camps)
          (List.fold_left (fun a c -> min a (List.length c.lats)) max_int camps)
          (List.fold_left (fun a c -> max a (List.length c.lats)) 0 camps)
          rounds (rounds * Harness.setup_reps) n_counted;
        Printf.sprintf "fingerprint %s %s" name fingerprint;
        "campaign peak_rss_mb "
        ^ String.concat " "
            (List.map
               (fun c -> Printf.sprintf "%s=%.0f" c.w.Workloads.Workload.name c.peak_mb)
               camps);
      ]
      @ List.map (fun f -> "FAIL " ^ f) !failures;
  }

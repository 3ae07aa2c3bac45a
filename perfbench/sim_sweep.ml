(* Workload [sim-sweep]: the Fig. 11/12 overhead sweep.  Every Phoenix and
   PARSEC workload runs fault-free under four builds at 2 and 16 simulated
   threads on small inputs: a sweep of 112 create + init + run operations,
   issued one after another (closed loop) in an order drawn from the seed,
   made [rounds] times.  The sweeps are the unit of work whatever
   [--seconds] says (about 25-30 s each on a 2-core x86 box): the overhead
   ratio and the fingerprint need every (workload, build, threads) cell.
   The campaign, snapshot and supervision layers stay idle here. *)

let size = Workloads.Workload.Small
let threads = [ 2; 16 ]

(* Sweeps per run (see [Harness.in_rounds]); a third would take the runs
   of both workloads past the time the whole set of benchmark runs may
   take. *)
let rounds = 2

let flavours =
  Harness.[ native; native_novec; elzar Elzar.Harden_config.default; swiftr ]

(* Runs re-executed on the Reference engine per run (correctness gate). *)
let spot_checks = 2

type item = {
  w : Workloads.Workload.t;
  fl : Harness.flavour;
  nthreads : int;
}

let items () : item list =
  List.concat_map
    (fun w ->
      List.concat_map (fun fl -> List.map (fun nthreads -> { w; fl; nthreads }) threads) flavours)
    Workloads.Registry.all

let key (it : item) = Printf.sprintf "%s/%s/t%d" it.w.Workloads.Workload.name it.fl.tag it.nthreads

(* One completed operation, or after [fastest] the operation over all
   rounds. *)
type op = {
  it : item;
  lat : float;  (** host seconds, create + init + run *)
  res : Cpu.Machine.result;
  ph : Harness.phases;
}

(* [a] with the host time of [b], the same cell in a later round, where
   that round was faster. *)
let fastest (a : op) (b : op) : op = if b.lat < a.lat then { a with lat = b.lat; ph = b.ph } else a

let exec tr ?engine (s : Harness.setup) (it : item) =
  Harness.exec tr ?engine ~build:it.fl.build ~init:(it.w.init size) ~nthreads:it.nthreads
    (Harness.prepared s it.w it.fl)

(* Deterministic fingerprint: simulated counters and digest of every run,
   in a fixed order. *)
let fingerprint (ops : op list) : string =
  ops
  |> List.map (fun o ->
         Printf.sprintf "%s:%d:%s:%s" (key o.it) o.res.Cpu.Machine.wall_cycles
           (Host.counter_fields o.res.Cpu.Machine.totals)
           (Digest.to_hex o.res.Cpu.Machine.output_digest))
  |> List.sort compare |> Host.md5_hex

(* Simulated Fig. 11 unit: geometric mean over (workload, threads) of
   ELZAR wall cycles over native wall cycles. *)
let overhead (ops : op list) : float =
  let cycles tag (w : Workloads.Workload.t) t =
    let o = List.find (fun o -> o.it.fl.tag = tag && o.it.w == w && o.it.nthreads = t) ops in
    float_of_int o.res.Cpu.Machine.wall_cycles
  in
  Stats.gmean
    (List.concat_map
       (fun w -> List.map (fun t -> cycles "elzar" w t /. cycles "native" w t) threads)
       Workloads.Registry.all)

(* Correctness gate, outside the timed region: no fault-free run traps;
   every round of a cell gives the same result; every run's output digest
   equals the native build's for its workload; a seeded sample
   re-executed on the Reference engine (the executable specification)
   matches counters, cycles and digest exactly.  [by_round] holds each
   round's operations in run order.  Returns (checks attempted, checks
   failed, failure descriptions). *)
let gate ~(seed : int) (s : Harness.setup) ~(by_round : op list list) (ops : op list) :
    int * int * string list =
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  List.iter
    (fun round ->
      List.iter2
        (fun a b ->
          if not (Harness.same_result a.res b.res) then
            fail (Printf.sprintf "%s: rounds give different results" (key a.it)))
        (List.hd by_round) round)
    (List.tl by_round);
  List.iter
    (fun o ->
      (match o.res.Cpu.Machine.trap with
      | Some t -> fail (Printf.sprintf "%s trapped: %s" (key o.it) (Cpu.Machine.string_of_trap t))
      | None -> ());
      let native =
        List.find
          (fun n -> n.it.w == o.it.w && n.it.fl.tag = "native" && n.it.nthreads = o.it.nthreads)
          ops
      in
      if o.res.Cpu.Machine.output_digest <> native.res.Cpu.Machine.output_digest then
        fail (Printf.sprintf "%s: output digest differs from native" (key o.it)))
    ops;
  let sample = List.filteri (fun i _ -> i < spot_checks) (Host.shuffle ~seed:(seed + 1) (items ())) in
  List.iter
    (fun it ->
      let o = List.find (fun o -> key o.it = key it) ops in
      let r, _ = exec None ~engine:Cpu.Machine.Reference s it in
      if not (Harness.same_result r o.res) then
        fail (Printf.sprintf "%s: Reference engine disagrees" (key it)))
    sample;
  (List.length ops + spot_checks, List.length !failures, List.rev !failures)

let run ~(tr : Harness.tracer) ~(seed : int) ~seconds:(_ : int) ~(scratch : string) :
    Metrics.result =
  let order = Host.shuffle ~seed (items ()) in
  let report_path = Filename.concat scratch "sim-sweep-run.json" in
  (* the timed region: closed-loop sweeps, each in the same order.  Each op
     starts on a collected heap, so its latency does not depend on which
     op the seed put before it. *)
  let (s, by_round), wall =
    Host.timed (fun () ->
        Harness.in_rounds tr ~rounds ~size ~workloads:Workloads.Registry.all ~flavours
          (fun s round ->
            if round = 0 then Host.reset_peak_rss ();
            List.map
              (fun it ->
                Gc.full_major ();
                let (res, ph), lat =
                  Host.timed (fun () -> Harness.span tr "op" (fun () -> exec tr s it))
                in
                if Option.is_some tr then
                  Harness.span tr "obs.report" (fun () ->
                      Report.write report_path
                        (Report.run_result ~params:[ ("workload", Obs.Json.Str (key it)) ] res));
                { it; lat; res; ph })
              order))
  in
  let peak_mb = Host.peak_rss_mb () in
  let ops = List.fold_left (List.map2 fastest) (List.hd by_round) (List.tl by_round) in
  let lats = List.map (fun o -> o.lat) ops in
  let n = List.length ops in
  let attempted, failed, failures = gate ~seed s ~by_round ops in
  let sum_counter sel = List.fold_left (fun a o -> a + sel o.res.Cpu.Machine.totals) 0 ops in
  let layers =
    match tr with
    | None -> []
    | Some r ->
        let report_s, reports = Harness.span_total (Obs.Span.rows r) "obs.report" in
        [ ("workloads.build_ms", s.build_ms); ("core.prepare_ms", s.prepare_ms) ]
        @ Harness.cpu_layers
            (List.map
               (fun o ->
                 {
                   Harness.c_flavour = o.it.fl.tag;
                   c_threads = o.it.nthreads;
                   c_totals = o.res.Cpu.Machine.totals;
                   c_phases = o.ph;
                 })
               ops)
        @ [ ("obs.report_ms", 1000.0 *. report_s /. float_of_int reports) ]
        @ Harness.trace_layers r ~ops:n ~ops_wall:(Stats.sum lats) ~traced_wall:wall
  in
  {
    Metrics.correct = failed = 0;
    attempted;
    failed;
    e2e =
      [
        ("setup_s", s.setup_s);
        ("peak_rss_mb", peak_mb);
        ("ops_per_s", float_of_int n /. Stats.sum lats);
        ("op_p50_ms", 1000.0 *. Stats.percentile 50.0 lats);
        ("op_p90_ms", 1000.0 *. Stats.percentile 90.0 lats);
        ("sim_overhead_x", overhead ops);
      ];
    layers;
    notes =
      [
        Harness.stamp ~workload:"sim-sweep" ~seed ~size ~jobs:1 ~trace:(Option.is_some tr)
          ~work:(Printf.sprintf "ops=%d rounds=%d" n rounds);
        Printf.sprintf "samples op_p50_ms=%d op_p90_ms=%d (each the fastest of %d rounds) setup_s=%d"
          n n rounds (rounds * Harness.setup_reps);
        Printf.sprintf "fingerprint sim-sweep %s instrs=%d uops=%d cycles=%d l1_misses=%d \
                        branch_misses=%d"
          (fingerprint ops)
          (sum_counter (fun c -> c.Cpu.Counters.instrs))
          (sum_counter (fun c -> c.Cpu.Counters.uops))
          (sum_counter (fun c -> c.Cpu.Counters.cycles))
          (sum_counter (fun c -> c.Cpu.Counters.l1_misses))
          (sum_counter (fun c -> c.Cpu.Counters.branch_misses));
      ]
      @ List.map (fun f -> "FAIL " ^ f) failures;
  }

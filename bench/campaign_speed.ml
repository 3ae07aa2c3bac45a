(** Campaign wall-time: the Fig. 13 injection campaign under the old
    configuration (reference interpreter, every run replays the whole
    program) vs the optimized one (compiled engine + snapshot
    fast-forward), at the same worker count and seed.  The two reports
    must be bit-identical — the speedup is pure execution engineering,
    not a change of experiment — and the bench fails loudly if they are
    not.

    With [--json], emits BENCH_campaign.json recording the wall times and
    the speedup per benchmark plus the geometric-mean speedup. *)

let benchmarks = [ "hist"; "linreg" ]

type row = {
  r_bench : string;
  r_baseline_s : float;
  r_optimized_s : float;
  r_speedup : float;
  r_runs : int;
  r_report : Campaign.report;  (** the optimized campaign, for the JSON results block *)
}

let campaign (w : Workloads.Workload.t) ~(engine : Cpu.Machine.engine_kind)
    ~(fast_forward : bool) : Campaign.report =
  let spec =
    { (Workloads.Workload.fi_spec w ~build:(Elzar.Hardened Elzar.Harden_config.default) ())
      with Fault.engine = engine }
  in
  Campaign.single ~n:!Common.fi_injections
    ~jobs:(Common.fi_effective_jobs ())
    ~fast_forward spec

let measure (name : string) : row =
  let w = Workloads.Registry.find name in
  let base = campaign w ~engine:Cpu.Machine.Reference ~fast_forward:false in
  let opt = campaign w ~engine:Cpu.Machine.Compiled ~fast_forward:true in
  if not (base.Campaign.stats = opt.Campaign.stats
          && base.Campaign.outcomes = opt.Campaign.outcomes) then
    failwith
      (Printf.sprintf
         "bench campaign: %s: optimized campaign is NOT bit-identical to baseline" name);
  {
    r_bench = name;
    r_baseline_s = base.Campaign.wall_seconds;
    r_optimized_s = opt.Campaign.wall_seconds;
    r_speedup = base.Campaign.wall_seconds /. opt.Campaign.wall_seconds;
    r_runs = opt.Campaign.experiments_run;
    r_report = opt;
  }

(* Schema "elzar.bench.campaign", version 3: version 2 also carried the
   retired supervised leg's [supervised_seconds] and
   [supervision_overhead].  Each row carries the optimized campaign's
   deterministic results block, so CI diffs catch outcome drift as well
   as wall-time regressions. *)
let emit_json path (rows : row list) (g : float) =
  let row_json r =
    Obs.Json.Obj
      [
        ("bench", Obs.Json.Str r.r_bench);
        ("runs", Obs.Json.Int r.r_runs);
        ("baseline_seconds", Obs.Json.Float r.r_baseline_s);
        ("optimized_seconds", Obs.Json.Float r.r_optimized_s);
        ("speedup", Obs.Json.Float r.r_speedup);
        ("bit_identical", Obs.Json.Bool true);
        ("results", Report.campaign_results r.r_report);
      ]
  in
  Report.write path
    (Report.versioned ~version:3 ~schema:"elzar.bench.campaign"
       [
         ("injections", Obs.Json.Int !Common.fi_injections);
         ("jobs", Obs.Json.Int (Common.fi_effective_jobs ()));
         ("campaigns", Obs.Json.List (List.map row_json rows));
         ("gmean_speedup", Obs.Json.Float g);
       ])

let run () =
  Common.heading
    (Printf.sprintf
       "Campaign wall-time: reference+replay vs compiled+fast-forward (%d injections, %d \
        workers)"
       !Common.fi_injections (Common.fi_effective_jobs ()));
  Printf.printf "%-10s %6s %12s %12s %8s\n" "bench" "runs" "baseline-s" "optimized-s"
    "speedup";
  let rows = List.map measure benchmarks in
  List.iter
    (fun r ->
      Printf.printf "%-10s %6d %12.2f %12.2f %7.2fx\n" r.r_bench r.r_runs
        r.r_baseline_s r.r_optimized_s r.r_speedup)
    rows;
  let g = Common.gmean (List.map (fun r -> r.r_speedup) rows) in
  Printf.printf "%-10s %38s %7.2fx\n" "gmean" "" g;
  if !Common.json_reports then begin
    emit_json "BENCH_campaign.json" rows g;
    Printf.printf "wrote BENCH_campaign.json (reports bit-identical)\n"
  end

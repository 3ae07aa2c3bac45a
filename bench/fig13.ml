(** Figure 13: fault-injection reliability of native vs ELZAR (2 threads,
    smallest inputs, single-bit flips in destination registers of hardened
    code).  Paper: 12 benchmarks (mmul and fluidanimate excluded), 2,500
    injections each; the campaign size here is configurable
    (--injections), and campaigns fan out over --fi-jobs worker domains
    with bit-identical results for any worker count. *)

let run () =
  Common.heading
    (Printf.sprintf
       "Figure 13: fault injection outcomes (%d injections per bar, %s inputs, 2 threads, \
        %d workers)"
       !Common.fi_injections
       (Workloads.Workload.size_to_string Common.fi_size)
       (Common.fi_effective_jobs ()));
  Printf.printf "%-10s | %28s | %38s | %14s\n" "bench"
    (Elzar.build_name Elzar.Native_novec)
    (Elzar.build_name Common.elzar) "campaign cost";
  Printf.printf "%-10s | %8s %8s %8s | %8s %8s %8s %10s | %6s %7s\n" "" "crashed%" "correct%"
    "SDC%" "crashed%" "correct%" "SDC%" "corrected%" "wall-s" "Gcycles";
  let agg = ref [] in
  let totals = Common.fi_totals () in
  List.iter
    (fun w ->
      if w.Workloads.Workload.fi_ok then begin
        let campaign = Common.campaign totals ~n:!Common.fi_injections ~model:Fault.Reg w in
        let rn = campaign Elzar.Native_novec in
        let re = campaign (Elzar.Hardened Elzar.Harden_config.default) in
        let n = rn.Campaign.stats and e = re.Campaign.stats in
        agg := (n, e) :: !agg;
        Printf.printf "%-10s | %8.1f %8.1f %8.1f | %8.1f %8.1f %8.1f %10.1f | %6.1f %7.2f\n"
          w.Workloads.Workload.name (Fault.crashed_pct n) (Fault.correct_pct n)
          (Fault.sdc_pct n) (Fault.crashed_pct e) (Fault.correct_pct e) (Fault.sdc_pct e)
          (100.0 *. float_of_int e.Fault.corrected /. float_of_int (max 1 e.Fault.runs))
          (rn.Campaign.wall_seconds +. re.Campaign.wall_seconds)
          (float_of_int (rn.Campaign.cycles_simulated + re.Campaign.cycles_simulated) /. 1e9)
      end)
    Common.all_workloads;
  let mean f side = Common.mean (List.map (fun (n, e) -> f (side (n, e))) !agg) in
  Printf.printf "%-10s | %8.1f %8.1f %8.1f | %8.1f %8.1f %8.1f\n" "mean"
    (mean Fault.crashed_pct fst) (mean Fault.correct_pct fst) (mean Fault.sdc_pct fst)
    (mean Fault.crashed_pct snd) (mean Fault.correct_pct snd) (mean Fault.sdc_pct snd);
  Common.fi_print_totals totals

(** Figure 1: performance improvement of the native (SIMD-vectorized) build
    over the no-SIMD build — max runtime speedup over thread counts for the
    benchmarks, max throughput increase for the case studies. *)

let speedup_pct (w : Workloads.Workload.t) : float =
  let best =
    List.fold_left
      (fun acc nthreads ->
        let v = Common.run ~nthreads w Elzar.Native in
        let n = Common.run ~nthreads w Elzar.Native_novec in
        max acc (Elzar.normalized_runtime ~native:v n))
      0.0 [ 1; 4 ]
  in
  100.0 *. (best -. 1.0)

let app_speedup_pct (app : Apps.App.t) : float =
  let client = List.hd app.Apps.App.clients in
  let tput b = Apps.App.throughput app (Apps.App.execute app ~build:b ~client ~nthreads:4) in
  100.0 *. ((tput Elzar.Native /. tput Elzar.Native_novec) -. 1.0)

let run () =
  Common.heading "Figure 1: SIMD vectorization benefit (native vs no-SIMD, %)";
  List.iter
    (fun w ->
      Printf.printf "%-10s %+6.1f%%\n" w.Workloads.Workload.name (speedup_pct w))
    Common.all_workloads;
  List.iter
    (fun app -> Printf.printf "%-10s %+6.1f%%\n" app.Apps.App.name (app_speedup_pct app))
    Apps.Registry_apps.all

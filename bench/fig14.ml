(** Figure 14: ELZAR vs SWIFT-R normalized runtime (16 threads), with the
    per-benchmark delta the paper annotates. *)

let run () =
  Common.heading "Figure 14: ELZAR vs SWIFT-R (16 threads, normalized to native)";
  Printf.printf "%-10s %10s %10s %8s\n" "bench" (Elzar.build_name Elzar.Swiftr)
    (Elzar.build_name Common.elzar) "delta";
  let es = ref [] and ss = ref [] in
  List.iter
    (fun w ->
      let e = Common.norm ~nthreads:16 w Common.elzar in
      let s = Common.norm ~nthreads:16 w Elzar.Swiftr in
      es := e :: !es;
      ss := s :: !ss;
      Printf.printf "%-10s %10.2f %10.2f %+7.0f%%\n" w.Workloads.Workload.name s e
        (100.0 *. ((e /. s) -. 1.0)))
    Common.all_workloads;
  Printf.printf "%-10s %10.2f %10.2f %+7.0f%%\n" "mean" (Common.gmean !ss)
    (Common.gmean !es)
    (100.0 *. ((Common.gmean !es /. Common.gmean !ss) -. 1.0))

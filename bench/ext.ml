(** Extension beyond the paper: the PARSEC benchmarks it skipped (canneal
    had inline assembly, bodytrack C++ exceptions — §V-A); the IR
    reimplementation has neither limitation, so the ELZAR-vs-SWIFT-R
    question can be answered for them too. *)

let run () =
  Common.heading "Extension: the PARSEC benchmarks the paper could not evaluate";
  Printf.printf "%-10s %10s %10s %8s\n" "bench" (Elzar.build_name Elzar.Swiftr)
    (Elzar.build_name Common.elzar) "delta";
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let e = Common.norm ~nthreads:16 w Common.elzar in
      let s = Common.norm ~nthreads:16 w Elzar.Swiftr in
      Printf.printf "%-10s %10.2f %10.2f %+7.0f%%\n" w.Workloads.Workload.name s e
        (100.0 *. ((e /. s) -. 1.0)))
    Workloads.Registry.extended

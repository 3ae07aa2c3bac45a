(** Table IV (+ the §VII-A truncation measurement): normalized runtime of
    the AVX-based versions of the microbenchmarks w.r.t. native — checks
    disabled, so only the wrapper cost is measured, as in the paper. *)

let nochecks = Elzar.Hardened Elzar.Harden_config.no_checks

(* Normalized against the no-SIMD native build: the paper's microbenchmarks
   are hand-written volatile assembly that the compiler cannot
   auto-vectorize. *)
let row name avg worst =
  let overhead (w : Workloads.Workload.t) =
    Elzar.normalized_runtime
      ~native:(Common.run ~nthreads:1 w Elzar.Native_novec)
      (Common.run ~nthreads:1 w nochecks)
  in
  Printf.printf "%-12s %12.2f %12.2f\n" name (overhead avg) (overhead worst)

let run () =
  Common.heading "Table IV: AVX wrapper overheads (checks disabled, single thread)";
  Printf.printf "%-12s %12s %12s\n" "" "average-case" "worst-case";
  row "loads" Workloads.Micro.loads_avg Workloads.Micro.loads_worst;
  row "stores" Workloads.Micro.stores_avg Workloads.Micro.stores_worst;
  row "branches" Workloads.Micro.branches_avg Workloads.Micro.branches_worst;
  row "truncation" Workloads.Micro.trunc_avg Workloads.Micro.trunc_worst;
  row "division" Workloads.Micro.div_avg Workloads.Micro.div_worst;
  row "calls" Workloads.Micro.calls_avg Workloads.Micro.calls_worst

(** Figure 17: estimated ELZAR overhead with the proposed AVX changes
    (§VII-B): gather/scatter memory accesses with FPGA-offloaded checks and
    FLAGS-setting vector comparisons.  Unlike the paper's
    "decelerated-native" estimation, the proposed instructions are
    simulated directly. *)

let future = Elzar.Hardened Elzar.Harden_config.future_avx

let run () =
  Common.heading "Figure 17: ELZAR with proposed AVX extensions (16 threads)";
  Printf.printf "%-10s %10s %14s\n" "bench" (Elzar.build_name Common.elzar)
    (Elzar.build_name future);
  let cur = ref [] and fut = ref [] in
  List.iter
    (fun w ->
      let e = Common.norm ~nthreads:16 w Common.elzar in
      let f = Common.norm ~nthreads:16 w future in
      cur := e :: !cur;
      fut := f :: !fut;
      Printf.printf "%-10s %10.2f %14.2f\n" w.Workloads.Workload.name e f)
    Common.all_workloads;
  Printf.printf "%-10s %10.2f %14.2f\n" "mean" (Common.gmean !cur) (Common.gmean !fut);
  Printf.printf "estimated overhead with proposed AVX: %.0f%%\n"
    (100.0 *. (Common.gmean !fut -. 1.0))

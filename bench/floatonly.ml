(** §V-B "Floating point-only protection": overhead of hardening only
    floats/doubles on the FP-heavy PARSEC benchmarks (paper: 9-35% for
    blackscholes, 10-18% for fluidanimate, 40-60% for swaptions). *)

let floats = Elzar.Hardened Elzar.Harden_config.floats_only

let run () =
  Common.heading "Floats-only protection overhead over native (%)";
  Printf.printf "%-10s" "bench";
  List.iter (fun t -> Printf.printf " %6dT" t) Common.threads_sweep;
  print_newline ();
  List.iter
    (fun w ->
      Printf.printf "%-10s" w.Workloads.Workload.name;
      List.iter
        (fun nthreads ->
          let x = Common.norm ~nthreads w floats in
          Printf.printf " %+5.0f%%" (100.0 *. (x -. 1.0)))
        Common.threads_sweep;
      print_newline ())
    Workloads.Registry.float_heavy

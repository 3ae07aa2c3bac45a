(** Figure 12: overhead breakdown by successively disabling ELZAR's checks
    (16 threads). *)

let configs =
  [
    ("all-checks", Common.elzar);
    ("no-loads", Elzar.Hardened Elzar.Harden_config.no_load_checks);
    ("+no-stores", Elzar.Hardened Elzar.Harden_config.no_memory_checks);
    ("+no-branches", Elzar.Hardened Elzar.Harden_config.no_mem_branch_checks);
    ("no-checks", Elzar.Hardened Elzar.Harden_config.no_checks);
  ]

let run () =
  Common.heading "Figure 12: overhead breakdown by disabling checks (16 threads)";
  Printf.printf "%-10s" "bench";
  List.iter (fun (n, _) -> Printf.printf " %12s" n) configs;
  print_newline ();
  let sums = Array.make (List.length configs) [] in
  List.iter
    (fun w ->
      Printf.printf "%-10s" w.Workloads.Workload.name;
      List.iteri
        (fun i (_, f) ->
          let x = Common.norm ~nthreads:16 w f in
          sums.(i) <- x :: sums.(i);
          Printf.printf " %12.2f" x)
        configs;
      print_newline ())
    Common.all_workloads;
  Printf.printf "%-10s" "mean";
  Array.iter (fun xs -> Printf.printf " %12.2f" (Common.gmean xs)) sums;
  print_newline ()

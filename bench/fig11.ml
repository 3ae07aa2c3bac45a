(** Figure 11: ELZAR's normalized runtime w.r.t. native for 1-16 threads. *)

let run () =
  Common.heading "Figure 11: ELZAR normalized runtime vs native (threads 1/2/4/8/16)";
  Printf.printf "%-10s" "bench";
  List.iter (fun t -> Printf.printf " %6dT" t) Common.threads_sweep;
  print_newline ();
  let per_thread = Hashtbl.create 8 in
  List.iter
    (fun w ->
      Printf.printf "%-10s" w.Workloads.Workload.name;
      List.iter
        (fun nthreads ->
          let x = Common.norm ~nthreads w Common.elzar in
          let prev = Option.value (Hashtbl.find_opt per_thread nthreads) ~default:[] in
          Hashtbl.replace per_thread nthreads (x :: prev);
          Printf.printf " %6.2f" x)
        Common.threads_sweep;
      print_newline ())
    Common.all_workloads;
  Printf.printf "%-10s" "mean";
  List.iter
    (fun nthreads ->
      Printf.printf " %6.2f" (Common.gmean (Hashtbl.find per_thread nthreads)))
    Common.threads_sweep;
  print_newline ();
  (* the paper's special case: string match vs the no-AVX native build *)
  let w = Workloads.Registry.find "smatch" in
  let na =
    Elzar.normalized_runtime
      ~native:(Common.run ~nthreads:16 w Elzar.Native_novec)
      (Common.run ~nthreads:16 w Common.elzar)
  in
  Printf.printf "%-10s %6.2f   (string match vs native without AVX, 16T)\n" "smatch-na" na

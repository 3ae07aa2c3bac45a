(** Table II: runtime statistics of the native builds at 16 threads —
    L1D-miss and branch-miss ratios, and the fraction of loads, stores and
    branches over executed instructions (percent). *)

let run () =
  Common.heading "Table II: native runtime statistics (16 threads, %)";
  Printf.printf "%-10s %8s %8s %8s %8s %8s\n" "bench" "L1-miss" "br-miss" "loads" "stores"
    "branches";
  List.iter
    (fun w ->
      let r = Common.run ~nthreads:16 w Elzar.Native in
      let c = r.Cpu.Machine.totals in
      Printf.printf "%-10s %8.2f %8.2f %8.2f %8.2f %8.2f\n" w.Workloads.Workload.name
        (Cpu.Counters.l1_miss_pct c) (Cpu.Counters.branch_miss_pct c)
        (Cpu.Counters.loads_pct c) (Cpu.Counters.stores_pct c)
        (Cpu.Counters.branches_pct c))
    Common.all_workloads

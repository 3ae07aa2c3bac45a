(** Table III: instruction-level parallelism and the increase in executed
    instructions w.r.t. native, for ELZAR and SWIFT-R (16 threads).

    ILP is computed per busiest core (instructions / wall cycles / active
    threads); our 4-wide dispatch model caps it lower than the paper's
    macro-fused Haswell numbers, but the ordering (SWIFT-R > native >=
    ELZAR) is the reproduced claim. *)

(* per-core μops/cycle averaged weighted by μops: the equivalent of
   perf-stat's instructions/cycle on the paper's testbed (μops are our
   x86-instruction proxy; IR instructions are coarser) *)
let ilp (r : Cpu.Machine.result) =
  let num = ref 0.0 and den = ref 0.0 in
  List.iter
    (fun (c : Cpu.Counters.t) ->
      if c.Cpu.Counters.cycles > 0 && c.Cpu.Counters.uops > 100 then begin
        let w = float_of_int c.Cpu.Counters.uops in
        num := !num +. (w *. (w /. float_of_int c.Cpu.Counters.cycles));
        den := !den +. w
      end)
    r.Cpu.Machine.counters;
  if !den = 0.0 then 0.0 else !num /. !den

let run () =
  Common.heading "Table III: ILP and instruction increase vs native (16 threads)";
  Printf.printf "%-10s %10s %10s %10s %12s %12s\n" "bench" "ILP-nat" "ILP-elzar"
    "ILP-swiftr" "incr-elzar" "incr-swiftr";
  List.iter
    (fun w ->
      let n = Common.run ~nthreads:16 w Elzar.Native in
      let e = Common.run ~nthreads:16 w Common.elzar in
      let s = Common.run ~nthreads:16 w Elzar.Swiftr in
      let ni = float_of_int n.Cpu.Machine.totals.Cpu.Counters.uops in
      Printf.printf "%-10s %10.2f %10.2f %10.2f %11.2fx %11.2fx\n" w.Workloads.Workload.name
        (ilp n) (ilp e) (ilp s)
        (float_of_int e.Cpu.Machine.totals.Cpu.Counters.uops /. ni)
        (float_of_int s.Cpu.Machine.totals.Cpu.Counters.uops /. ni))
    Common.all_workloads

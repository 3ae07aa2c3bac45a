(* perfbench: one benchmark run.

     main.exe --workload sim-sweep|fi-mixed --seed N --seconds S
              --trace 0|1 [--scratch DIR]

   Prints "# "-prefixed notes (host stamp, sample counts, fingerprint,
   correctness-gate failures) and, as the last line, the JSON result.
   Exits 1 when the correctness gate failed, 2 on bad arguments.
   [perfbench/run.py] builds this executable and runs it. *)

open Perfbench

let workloads = [ "sim-sweep"; Fi.name ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let scratch = ref (Filename.concat ".bench_build" "perfbench-scratch") in
  let usage =
    "main.exe --workload sim-sweep|fi-mixed --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " sim-sweep | fi-mixed");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " host seconds of work to size the run for");
      ("--trace", Arg.Set_int trace, " 1: traced run printing the per-layer metrics");
      ("--scratch", Arg.Set_string scratch, " directory for reports and checkpoints");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let bad msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  if not (List.mem !workload workloads) then bad ("unknown workload " ^ !workload);
  if !seconds < 1 then bad "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  mkdir_p !scratch;
  let tr = if !trace = 1 then Some (Obs.Span.make ()) else None in
  let run = if !workload = "sim-sweep" then Sim_sweep.run else Fi.run in
  let r = run ~tr ~seed:!seed ~seconds:!seconds ~scratch:!scratch in
  List.iter (fun n -> Printf.printf "# %s\n" n) r.Metrics.notes;
  print_endline (Metrics.result_line ~trace:(!trace = 1) r);
  exit (if r.Metrics.correct then 0 else 1)

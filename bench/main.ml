(** Experiment harness: regenerates every table and figure of the paper's
    evaluation (DESIGN.md section 4 maps each to its module).

    Usage: bench/main.exe [experiments...] [--size S] [--engine E]
    [--injections N] [--fi-jobs J] [--fi-progress] [--json]
    With no arguments, runs everything. *)

let experiments =
  [
    ("fig1", Fig01.run);
    ("fig5", Fig05.run);
    ("tab2", Tab02.run);
    ("fig11", Fig11.run);
    ("fig12", Fig12.run);
    ("tab3", Tab03.run);
    ("fig13", Fig13.run);
    ("fig13x", Fig13x.run);
    ("interp", Interp.run);
    ("fig14", Fig14.run);
    ("floatonly", Floatonly.run);
    ("fig15", Fig15.run);
    ("tab4", Tab04.run);
    ("fig17", Fig17.run);
    ("ablate", Ablate.run);
    ("ext", Ext.run);
  ]

let usage () =
  Printf.printf
    "usage: main.exe [%s] [--size tiny|small|medium|large] \
     [--engine reference|compiled] [--injections N] [--fi-jobs J] \
     [--fi-progress] [--json]\n"
    (String.concat "|" (List.map fst experiments));
  exit 1

(* The value of a numeric flag, at least [min], or the usage message. *)
let int_arg ~min s = match int_of_string_opt s with Some k when k >= min -> k | _ -> usage ()

let () =
  let selected = ref [] in
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | "--size" :: s :: rest ->
        (Common.size :=
           match s with
           | "tiny" -> Workloads.Workload.Tiny
           | "small" -> Workloads.Workload.Small
           | "medium" -> Workloads.Workload.Medium
           | "large" -> Workloads.Workload.Large
           | _ -> usage ());
        parse rest
    | "--engine" :: e :: rest ->
        (Common.engine :=
           match Cpu.Machine.engine_of_string e with
           | Ok e -> e
           | Error msg ->
               Printf.printf "%s\n" msg;
               usage ());
        parse rest
    | "--injections" :: n :: rest ->
        Common.fi_injections := int_arg ~min:1 n;
        parse rest
    | "--fi-jobs" :: n :: rest ->
        Common.fi_jobs := int_arg ~min:0 n;
        parse rest
    | "--fi-progress" :: rest ->
        Common.fi_progress := true;
        parse rest
    | "--json" :: rest ->
        Common.json_reports := true;
        parse rest
    | name :: rest when List.mem_assoc name experiments ->
        selected := name :: !selected;
        parse rest
    | "--help" :: _ -> usage ()
    | x :: _ ->
        Printf.printf "unknown argument %s\n" x;
        usage ()
  in
  parse (List.tl args);
  let todo = if !selected = [] then List.map fst experiments else List.rev !selected in
  Printf.printf "ELZAR experiment harness (size=%s, engine=%s, injections=%d, fi-jobs=%d)\n"
    (Workloads.Workload.size_to_string !Common.size)
    (Cpu.Machine.engine_to_string !Common.engine)
    !Common.fi_injections
    (Common.fi_effective_jobs ());
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      let t = Unix.gettimeofday () in
      (List.assoc name experiments) ();
      Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t))
    todo;
  Printf.printf "\ntotal: %.1fs\n" (Unix.gettimeofday () -. t0)

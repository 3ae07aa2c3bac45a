(** Shared plumbing for the experiment harness: prepared-module and result
    caches (so figures can reuse each other's runs) and table formatting. *)

let size = ref Workloads.Workload.Medium
let fi_injections = ref 150

(* Execution engine for the simulation runs behind the figures.  Set with
   --engine. *)
let engine = ref Cpu.Machine.default_config.Cpu.Machine.engine

(* Fault-injection campaign worker pool: 0 = auto (one worker per
   recommended domain).  Set with --fi-jobs. *)
let fi_jobs = ref 0

(* Live progress meter for campaigns on stderr.  Set with --fi-progress. *)
let fi_progress = ref false

let fi_effective_jobs () = if !fi_jobs > 0 then !fi_jobs else Campaign.default_jobs ()

let fi_progress_cb tag : (Campaign.progress -> unit) option =
  if not !fi_progress then None
  else
    Some
      (fun (p : Campaign.progress) ->
        if p.Campaign.completed mod 10 = 0 || p.Campaign.completed = p.Campaign.total then
          Printf.eprintf
            "\r%-24s %d/%d injections  (%.0fs elapsed, eta %.0fs, SDC %d, crashed %d%s)   %!"
            tag p.Campaign.completed p.Campaign.total p.Campaign.elapsed p.Campaign.eta
            p.Campaign.running.Fault.sdc
            (p.Campaign.running.Fault.hang + p.Campaign.running.Fault.deadlock
           + p.Campaign.running.Fault.os_detected)
            (if p.Campaign.restored > 0 then
               Printf.sprintf ", %d ckpt" p.Campaign.restored
             else "");
        if p.Campaign.completed >= p.Campaign.total then prerr_newline ())

(* Accumulates campaign observability totals for a figure's footer line. *)
type fi_totals = {
  mutable t_experiments : int;
  mutable t_wall : float;
  mutable t_cycles : int;
  mutable t_not_reached : int;
}

let fi_totals () = { t_experiments = 0; t_wall = 0.0; t_cycles = 0; t_not_reached = 0 }

let fi_account (t : fi_totals) (r : Campaign.report) =
  t.t_experiments <- t.t_experiments + r.Campaign.experiments_run;
  t.t_wall <- t.t_wall +. r.Campaign.wall_seconds;
  t.t_cycles <- t.t_cycles + r.Campaign.cycles_simulated;
  t.t_not_reached <- t.t_not_reached + r.Campaign.not_reached

(* Input size of every fault campaign: the paper injects into its
   smallest inputs, whatever --size says. *)
let fi_size = Workloads.Workload.Tiny

(* One fault campaign on [w] under [build] at [fi_size], with the
   harness's engine, worker pool and progress meter, folded into
   [totals]. *)
let campaign (totals : fi_totals) ~(n : int) ~(model : Fault.model)
    (w : Workloads.Workload.t) (build : Elzar.build) : Campaign.report =
  let tag =
    Printf.sprintf "%s/%s/%s" w.Workloads.Workload.name (Elzar.build_name build)
      (Fault.model_to_string model)
  in
  let spec =
    { (Workloads.Workload.fi_spec w ~build ~size:fi_size ()) with Fault.engine = !engine }
  in
  let r =
    Campaign.model_campaign ~n ~jobs:(fi_effective_jobs ()) ?progress:(fi_progress_cb tag)
      ~model spec
  in
  fi_account totals r;
  r

let fi_print_totals (t : fi_totals) =
  Printf.printf
    "campaign totals: %d experiments, %.1fs wall, %.2f Gcycles simulated, %d workers%s\n"
    t.t_experiments t.t_wall
    (float_of_int t.t_cycles /. 1e9)
    (fi_effective_jobs ())
    (if t.t_not_reached > 0 then
       Printf.sprintf ", %d not-reached redrawn" t.t_not_reached
     else "")

let elzar = Elzar.Hardened Elzar.Harden_config.default

(* ---- caches ---- *)

(* Keyed by the workload's name (a workload holds closures, which
   structural equality rejects) and the build value itself. *)
let prepared_cache : (string * Elzar.build * Workloads.Workload.size, Ir.Instr.modul) Hashtbl.t =
  Hashtbl.create 64

let result_cache :
    ( string * Elzar.build * Workloads.Workload.size * int * Cpu.Machine.engine_kind,
      Cpu.Machine.result )
    Hashtbl.t =
  Hashtbl.create 256

let prepared (w : Workloads.Workload.t) (build : Elzar.build) (size : Workloads.Workload.size) =
  let key = (w.Workloads.Workload.name, build, size) in
  match Hashtbl.find_opt prepared_cache key with
  | Some m -> m
  | None ->
      let m = Elzar.prepare build (w.Workloads.Workload.build size) in
      Hashtbl.replace prepared_cache key m;
      m

(* Runs a workload under a build, caching results across figures. *)
let run ?(nthreads = 16) ?size:size_opt (w : Workloads.Workload.t) (build : Elzar.build) :
    Cpu.Machine.result =
  let size = Option.value size_opt ~default:!size in
  let key = (w.Workloads.Workload.name, build, size, nthreads, !engine) in
  match Hashtbl.find_opt result_cache key with
  | Some r -> r
  | None ->
      let m = prepared w build size in
      let machine_cfg =
        { Cpu.Machine.default_config with Cpu.Machine.engine = !engine }
      in
      let r =
        Workloads.Workload.execute_prepared w ~machine_cfg ~build ~prepared:m ~nthreads ~size
      in
      (match r.Cpu.Machine.trap with
      | Some t ->
          failwith
            (Printf.sprintf "bench: %s/%s/%s/%d trapped: %s" w.Workloads.Workload.name
               (Elzar.build_name build)
               (Workloads.Workload.size_to_string size)
               nthreads (Cpu.Machine.string_of_trap t))
      | None -> ());
      Hashtbl.replace result_cache key r;
      r

(* Normalized runtime w.r.t. the vectorized native build at the same thread
   count (the paper's unit). *)
let norm ?(nthreads = 16) (w : Workloads.Workload.t) (build : Elzar.build) : float =
  Elzar.normalized_runtime ~native:(run ~nthreads w Elzar.Native) (run ~nthreads w build)

let gmean xs =
  match xs with
  | [] -> nan
  | _ -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ---- formatting ---- *)

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row_header cols = Printf.printf "%-10s %s\n" "bench" (String.concat " " cols)

let threads_sweep = [ 1; 2; 4; 8; 16 ]

let all_workloads = Workloads.Registry.all

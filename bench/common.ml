(** Shared plumbing for the experiment harness: prepared-module and result
    caches (so figures can reuse each other's runs), build flavours, and
    table formatting. *)

let size = ref Workloads.Workload.Medium
let fi_injections = ref 150

(* Execution engine for the simulation runs behind the figures.  Set with
   --engine; interp, which compares the engines itself, ignores it and
   measures both tiers. *)
let engine = ref Cpu.Machine.default_config.Cpu.Machine.engine

(* Fault-injection campaign worker pool: 0 = auto (one worker per
   recommended domain).  Set with --fi-jobs. *)
let fi_jobs = ref 0

(* Live progress meter for campaigns on stderr.  Set with --fi-progress. *)
let fi_progress = ref false

(* Write the machine-readable BENCH_interp.json report (interp).  Set
   with --json; the perf-smoke alias passes it so CI always tracks it. *)
let json_reports = ref false

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

let fi_print_totals (t : fi_totals) =
  Printf.printf
    "campaign totals: %d experiments, %.1fs wall, %.2f Gcycles simulated, %d workers%s\n"
    t.t_experiments t.t_wall
    (float_of_int t.t_cycles /. 1e9)
    (fi_effective_jobs ())
    (if t.t_not_reached > 0 then
       Printf.sprintf ", %d not-reached redrawn" t.t_not_reached
     else "")

type flavour = {
  tag : string;
  build : Elzar.build;
}

let native = { tag = "native"; build = Elzar.Native }
let native_novec = { tag = "native-novec"; build = Elzar.Native_novec }
let elzar = { tag = "elzar"; build = Elzar.Hardened Elzar.Harden_config.default }
let swiftr = { tag = "swift-r"; build = Elzar.Swiftr }

let elzar_with tag cfg = { tag; build = Elzar.Hardened cfg }

(* ---- caches ---- *)

let prepared_cache : (string, Ir.Instr.modul) Hashtbl.t = Hashtbl.create 64
let result_cache : (string, Cpu.Machine.result) Hashtbl.t = Hashtbl.create 256

let prepared (w : Workloads.Workload.t) (f : flavour) (size : Workloads.Workload.size) =
  let key =
    Printf.sprintf "%s/%s/%s" w.Workloads.Workload.name f.tag
      (Workloads.Workload.size_to_string size)
  in
  match Hashtbl.find_opt prepared_cache key with
  | Some m -> m
  | None ->
      let m = Elzar.prepare f.build (w.Workloads.Workload.build size) in
      Hashtbl.replace prepared_cache key m;
      m

(* Runs a workload under a flavour, caching results across figures. *)
let run ?(nthreads = 16) ?size:size_opt (w : Workloads.Workload.t) (f : flavour) :
    Cpu.Machine.result =
  let size = Option.value size_opt ~default:!size in
  let key =
    Printf.sprintf "%s/%s/%s/%d/%s" w.Workloads.Workload.name f.tag
      (Workloads.Workload.size_to_string size)
      nthreads
      (Cpu.Machine.engine_to_string !engine)
  in
  match Hashtbl.find_opt result_cache key with
  | Some r -> r
  | None ->
      let m = prepared w f size in
      let machine_cfg =
        { Cpu.Machine.default_config with Cpu.Machine.engine = !engine }
      in
      let r =
        Workloads.Workload.execute_prepared w ~machine_cfg ~build:f.build ~prepared:m ~nthreads
          ~size
      in
      (match r.Cpu.Machine.trap with
      | Some t ->
          failwith
            (Printf.sprintf "bench: %s trapped: %s" key (Cpu.Machine.string_of_trap t))
      | None -> ());
      Hashtbl.replace result_cache key r;
      r

(* Normalized runtime w.r.t. the vectorized native build at the same thread
   count (the paper's unit). *)
let norm ?(nthreads = 16) (w : Workloads.Workload.t) (f : flavour) : float =
  let r = run ~nthreads w f in
  let n = run ~nthreads w native in
  float_of_int r.Cpu.Machine.wall_cycles /. float_of_int (max 1 n.Cpu.Machine.wall_cycles)

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

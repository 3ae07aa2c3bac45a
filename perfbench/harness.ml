(* What both workload families share: build flavours, the traced run's
   span recorder, the timed set-up (IR build + Elzar.prepare), one
   fault-free machine run split into its create / init / run phases, and
   the cpu-layer metrics over such runs. *)

type flavour = {
  tag : string;
  build : Elzar.build;
}

let native = { tag = "native"; build = Elzar.Native }
let native_novec = { tag = "native-novec"; build = Elzar.Native_novec }
let elzar cfg = { tag = "elzar"; build = Elzar.Hardened cfg }
let swiftr = { tag = "swift-r"; build = Elzar.Swiftr }

(* ---- spans ---- *)

(* The traced run's span recorder; [None] in the untraced run, whose calls
   then carry no span cost. *)
type tracer = Obs.Span.t option

let span (tr : tracer) (path : string) (f : unit -> 'a) : 'a =
  match tr with Some r -> Obs.Span.time r path f | None -> f ()

(* Total host seconds and count of the regions recorded under [path]. *)
let span_total (rows : Obs.Span.row list) (path : string) : float * int =
  match List.find_opt (fun (row : Obs.Span.row) -> row.path = path) rows with
  | Some row -> (row.wall, row.count)
  | None -> (0.0, 0)

(* ---- set-up ---- *)

type setup = {
  prepared : (string * string, Ir.Instr.modul) Hashtbl.t;  (** (workload, flavour tag) *)
  setup_s : float;  (** host seconds of one whole set-up, fastest *)
  build_ms : float;  (** host ms of the IR builds in one set-up, fastest *)
  prepare_ms : float;  (** host ms of the Elzar.prepare calls in one set-up, fastest *)
}

(* Set-ups before each round; each figure is the fastest of all of them.
   One set-up takes tens of ms, so host load that comes and goes slows some
   share of the samples by up to 2x, and a median moves with that share
   from run to run; the minimum does not, as long as the samples are spread
   over more than one spell of load.  With the collection before each, one
   set-up costs about 0.2 s. *)
let setup_reps = 7

let setup_once (tr : tracer) ~(size : Workloads.Workload.size)
    ~(workloads : Workloads.Workload.t list) ~(flavours : flavour list) =
  let tbl = Hashtbl.create 64 in
  let build_s = ref 0.0 and prep_s = ref 0.0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let m, dt =
        Host.timed (fun () -> span tr "workloads.build" (fun () -> w.build size))
      in
      build_s := !build_s +. dt;
      List.iter
        (fun fl ->
          let p, dt =
            Host.timed (fun () -> span tr "core.prepare" (fun () -> Elzar.prepare fl.build m))
          in
          prep_s := !prep_s +. dt;
          Hashtbl.replace tbl (w.name, fl.tag) p)
        flavours)
    workloads;
  (tbl, !build_s, !prep_s)

let setup (tr : tracer) ~size ~workloads ~flavours : setup =
  let reps =
    List.init setup_reps (fun _ ->
        Gc.full_major ();
        Host.timed (fun () -> setup_once tr ~size ~workloads ~flavours))
  in
  let (prepared, _, _), _ = List.nth reps (setup_reps - 1) in
  let fastest xs = List.fold_left Float.min Float.infinity xs in
  {
    prepared;
    setup_s = fastest (List.map snd reps);
    build_ms = 1000.0 *. fastest (List.map (fun ((_, b, _), _) -> b) reps);
    prepare_ms = 1000.0 *. fastest (List.map (fun ((_, _, p), _) -> p) reps);
  }

let prepared (s : setup) (w : Workloads.Workload.t) (fl : flavour) : Ir.Instr.modul =
  Hashtbl.find s.prepared (w.Workloads.Workload.name, fl.tag)

(* ---- rounds ---- *)

(* A run makes its timed work [rounds] times, one round after another and
   each in the same order, and an operation's host time is the fastest of
   its rounds.  On a shared host, neighbours slow this process by up to
   1.5x in spells of about ten seconds, so a single sample, a mean or a
   median moves with how much of the run the spells happened to cover;
   the runs of one operation are a whole round (tens of seconds) apart and
   seldom all fall in a spell.  [in_rounds] makes the set-ups before each
   round and returns the fastest of them with [f s round] for each round;
   every round runs on the first set-up's modules. *)
let in_rounds (tr : tracer) ~(rounds : int) ~size ~workloads ~flavours (f : setup -> int -> 'a)
    : setup * 'a list =
  let s = ref (setup tr ~size ~workloads ~flavours) in
  let results =
    List.init rounds (fun round ->
        if round > 0 then begin
          let t = setup tr ~size ~workloads ~flavours in
          s :=
            {
              !s with
              setup_s = Float.min !s.setup_s t.setup_s;
              build_ms = Float.min !s.build_ms t.build_ms;
              prepare_ms = Float.min !s.prepare_ms t.prepare_ms;
            }
        end;
        f !s round)
  in
  (!s, results)

(* ---- one fault-free run ---- *)

type phases = {
  create_s : float;
  init_s : float;
  run_s : float;
  alloc_mb : float;  (** OCaml heap MiB allocated by Machine.create *)
}

let phase tr name f = span tr name (fun () -> Host.timed f)

(* [Cpu.Machine.create] + [init] + [Cpu.Machine.run ~args:[|nthreads|]
   "main"], each phase timed (and spanned when [tr] is on) — the same
   calls [Workloads.Workload.execute_prepared] makes. *)
let exec (tr : tracer) ?(engine = Cpu.Machine.default_config.Cpu.Machine.engine)
    ~(build : Elzar.build) ~(init : Cpu.Machine.t -> unit) ~(nthreads : int)
    (modul : Ir.Instr.modul) : Cpu.Machine.result * phases =
  let cfg =
    {
      Cpu.Machine.default_config with
      Cpu.Machine.reexec_retries = Elzar.reexec_retries build;
      engine;
    }
  in
  let (mc, alloc_mb), create_s =
    phase tr "cpu.create" (fun () ->
        Host.allocated_mb (fun () ->
            Cpu.Machine.create ~cfg ~flags_cmp:(Elzar.uses_flags_cmp build) modul))
  in
  let (), init_s = phase tr "cpu.init" (fun () -> init mc) in
  let r, run_s =
    phase tr "cpu.run" (fun () -> Cpu.Machine.run ~args:[| Int64.of_int nthreads |] mc "main")
  in
  (r, { create_s; init_s; run_s; alloc_mb })

(* The digest-and-counters identity the Reference spot-checks demand. *)
let same_result (a : Cpu.Machine.result) (b : Cpu.Machine.result) : bool =
  a.Cpu.Machine.wall_cycles = b.Cpu.Machine.wall_cycles
  && a.Cpu.Machine.totals = b.Cpu.Machine.totals
  && a.Cpu.Machine.counters = b.Cpu.Machine.counters
  && a.Cpu.Machine.output_digest = b.Cpu.Machine.output_digest
  && a.Cpu.Machine.trap = b.Cpu.Machine.trap

(* ---- cpu-layer metrics ---- *)

(* One fault-free run as the cpu layer saw it. *)
type cpu_run = {
  c_flavour : string;
  c_threads : int;
  c_totals : Cpu.Counters.t;
  c_phases : phases;
}

let cpu_layers (runs : cpu_run list) : (string * float) list =
  let ms sel = 1000.0 *. Stats.mean (List.map (fun r -> sel r.c_phases) runs) in
  let op_s r = r.c_phases.create_s +. r.c_phases.init_s +. r.c_phases.run_s in
  let mips rs =
    match rs with
    | [] -> 0.0
    | _ ->
        let instrs = List.fold_left (fun a r -> a + r.c_totals.Cpu.Counters.instrs) 0 rs in
        float_of_int instrs /. Stats.sum (List.map op_s rs) /. 1e6
  in
  let count sel = float_of_int (List.fold_left (fun a r -> a + sel r.c_totals) 0 runs) in
  let by_flavour tag = List.filter (fun r -> r.c_flavour = tag) runs in
  let by_threads t = List.filter (fun r -> r.c_threads = t) runs in
  [
    ("cpu.create_ms", ms (fun p -> p.create_s));
    ("cpu.create_alloc_mb", Stats.mean (List.map (fun r -> r.c_phases.alloc_mb) runs));
    ("cpu.init_ms", ms (fun p -> p.init_s));
    ("cpu.run_ms", ms (fun p -> p.run_s));
    ("cpu.mips", mips runs);
    ("cpu.mips.native", mips (by_flavour "native"));
    ("cpu.mips.native-novec", mips (by_flavour "native-novec"));
    ("cpu.mips.elzar", mips (by_flavour "elzar"));
    ("cpu.mips.swift-r", mips (by_flavour "swift-r"));
    ("cpu.mips.t2", mips (by_threads 2));
    ("cpu.mips.t16", mips (by_threads 16));
    ("cpu.instrs", count (fun c -> c.Cpu.Counters.instrs));
    ("cpu.uops", count (fun c -> c.Cpu.Counters.uops));
    ("cpu.cycles", count (fun c -> c.Cpu.Counters.cycles));
    ("cpu.l1_misses", count (fun c -> c.Cpu.Counters.l1_misses));
    ("cpu.branch_misses", count (fun c -> c.Cpu.Counters.branch_misses));
  ]

(* Host seconds one span costs, measured on a scratch recorder: the basis
   of the traced run's own overhead estimate. *)
let span_cost () : float =
  let n = 20_000 in
  let r = Obs.Span.make () in
  let (), dt =
    Host.timed (fun () ->
        for _ = 1 to n do
          Obs.Span.time r "calibrate" ignore
        done)
  in
  dt /. float_of_int n

(* The traced run's own cost: spans recorded times the calibrated cost of
   one span, as a share of the traced region's host time. *)
let trace_layers (r : Obs.Span.t) ~(ops : int) ~(ops_wall : float) ~(traced_wall : float) :
    (string * float) list =
  let spans = List.fold_left (fun a (row : Obs.Span.row) -> a + row.count) 0 (Obs.Span.rows r) in
  [
    ("trace.ops_per_s", float_of_int ops /. ops_wall);
    ("trace.spans", float_of_int spans);
    ("trace.overhead_frac", float_of_int spans *. span_cost () /. traced_wall);
  ]

(* The "# host ..." stamp every run prints ahead of its result. *)
let stamp ~(workload : string) ~(seed : int) ~(size : Workloads.Workload.size) ~(jobs : int)
    ~(trace : bool) ~(work : string) : string =
  Printf.sprintf
    "host ocaml=%s nproc=%d domains=%d engine=%s size=%s workload=%s seed=%d jobs=%d \
     trace=%d %s"
    Sys.ocaml_version (Host.nproc ())
    (Domain.recommended_domain_count ())
    (Cpu.Machine.engine_to_string Cpu.Machine.default_config.Cpu.Machine.engine)
    (Workloads.Workload.size_to_string size)
    workload seed jobs (Bool.to_int trace) work

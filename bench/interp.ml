(** Interpreter microbenchmark: simulated MIPS (million dynamic
    instructions retired per host second) of the two execution tiers —
    reference interpreter and compiled engine — per build flavour.  Every
    cell doubles as a bit-identity check: the engines must agree on
    retired instructions, wall cycles and the output digest, or the
    benchmark fails.  This is the direct measure of the compiled tier's
    win (EXPERIMENTS.md §interp); campaign-level wall time is measured by
    perfbench's fi-mixed workload.

    With [--json], emits BENCH_interp.json in the working directory so CI
    can track the MIPS of both tiers over time. *)

let benchmarks = [ "hist"; "linreg"; "km" ]
let flavours = [ Common.native; Common.native_novec; Common.elzar; Common.swiftr ]

type sample = {
  s_bench : string;
  s_flavour : string;
  s_engine : string;
  s_mode : string;  (** "plain" or "census" (the campaign golden-run config) *)
  s_instrs : int;
  s_cycles : int;
  s_digest : string;
  s_seconds : float;
  s_mips : float;
}

(* One timed simulation run.  Machine construction (memory image, IR
   loading, input preparation) stays outside the timed region — this
   benchmark isolates the interpretation rate itself; the compiled
   engine's one-time translation happens inside (on each function's first
   entry) and is part of its cost. *)
let time_run (w : Workloads.Workload.t) (f : Common.flavour) ~(census : bool)
    (engine : Cpu.Machine.engine_kind) : int * int * string * float =
  let prepared = Common.prepared w f !Common.size in
  let cfg = { Cpu.Machine.default_config with Cpu.Machine.engine; count_inject_sites = census } in
  let machine = Elzar.machine ~cfg f.Common.build prepared in
  w.Workloads.Workload.init !Common.size machine;
  let t0 = Unix.gettimeofday () in
  let r = Cpu.Machine.run ~args:[| 2L |] machine "main" in
  let dt = Unix.gettimeofday () -. t0 in
  (match r.Cpu.Machine.trap with
  | Some t -> failwith ("bench interp: trapped: " ^ Cpu.Machine.string_of_trap t)
  | None -> ());
  ( r.Cpu.Machine.totals.Cpu.Counters.instrs,
    r.Cpu.Machine.wall_cycles,
    r.Cpu.Machine.output_digest,
    dt )

let measure (w : Workloads.Workload.t) (f : Common.flavour) ~(census : bool)
    (engine : Cpu.Machine.engine_kind) : sample =
  ignore (time_run w f ~census engine);  (* warm-up: page in code paths and caches *)
  let instrs, cycles, digest, dt = time_run w f ~census engine in
  {
    s_bench = w.Workloads.Workload.name;
    s_flavour = f.Common.tag;
    s_engine = Cpu.Machine.engine_to_string engine;
    s_mode = (if census then "census" else "plain");
    s_instrs = instrs;
    s_cycles = cycles;
    s_digest = digest;
    s_seconds = dt;
    s_mips = float_of_int instrs /. 1e6 /. dt;
  }

(* Cross-engine bit-identity: the benchmark is also a correctness gate. *)
let check_identity (a : sample) (b : sample) =
  if a.s_instrs <> b.s_instrs || a.s_cycles <> b.s_cycles || a.s_digest <> b.s_digest
  then
    failwith
      (Printf.sprintf
         "bench interp: %s/%s/%s: engines %s and %s diverge (instrs %d vs %d, cycles \
          %d vs %d, digests %s)"
         a.s_bench a.s_flavour a.s_mode a.s_engine b.s_engine a.s_instrs b.s_instrs
         a.s_cycles b.s_cycles
         (if a.s_digest = b.s_digest then "equal" else "differ"))

(* The versioned document (schema "elzar.bench.interp") goes through the
   same report pipeline as campaigns and CLI runs; its own version is 3
   because removing an engine removed members (EXPERIMENTS.md stability
   promise).  [gmean_speedup] summarizes the engine pair over the
   plain-mode cells, whose closures carry no hooks; the census cells
   compile the site-counting hook into every hardened memory access and
   injectable instruction, so they get a per-flavour line on stdout but
   no [gmean_speedup] entry. *)
let version = 3

let emit_json path (samples : sample list) (pair_gmeans : (string * float) list) =
  let sample_json s =
    Obs.Json.Obj
      [
        ("bench", Obs.Json.Str s.s_bench);
        ("flavour", Obs.Json.Str s.s_flavour);
        ("engine", Obs.Json.Str s.s_engine);
        ("mode", Obs.Json.Str s.s_mode);
        ("instrs", Obs.Json.Int s.s_instrs);
        ("cycles", Obs.Json.Int s.s_cycles);
        ("seconds", Obs.Json.Float s.s_seconds);
        ("mips", Obs.Json.Float s.s_mips);
      ]
  in
  Report.write path
    (Report.versioned ~version ~schema:"elzar.bench.interp"
       [
         ("size", Obs.Json.Str (Workloads.Workload.size_to_string !Common.size));
         ("samples", Obs.Json.List (List.map sample_json samples));
         ( "gmean_speedup",
           Obs.Json.Obj
             (List.map (fun (pair, x) -> (pair, Obs.Json.Float x)) pair_gmeans) );
       ])

let pair = "compiled_over_reference"

let run () =
  Common.heading "Interpreter MIPS: reference vs compiled engines";
  Printf.printf "%-10s %-14s %-7s %9s %9s %9s\n" "bench" "flavour" "mode" "ref MIPS"
    "comp MIPS" "comp/ref";
  let samples = ref [] and plain = ref [] in
  List.iter
    (fun f ->
      List.iter
        (fun census ->
          let per = ref [] in
          List.iter
            (fun name ->
              let w = Workloads.Registry.find name in
              let sr = measure w f ~census Cpu.Machine.Reference in
              let sc = measure w f ~census Cpu.Machine.Compiled in
              check_identity sr sc;
              samples := !samples @ [ sr; sc ];
              let x = sc.s_mips /. sr.s_mips in
              per := x :: !per;
              if not census then plain := x :: !plain;
              Printf.printf "%-10s %-14s %-7s %9.2f %9.2f %8.2fx\n" name f.Common.tag
                sr.s_mode sr.s_mips sc.s_mips x)
            benchmarks;
          Printf.printf "  %-30s gmean compiled/ref %.2fx\n"
            (f.Common.tag ^ "/" ^ if census then "census" else "plain")
            (Common.gmean !per))
        [ false; true ])
    flavours;
  let gm = Common.gmean !plain in
  Printf.printf "identity: all %d cells bit-identical across both engines\n"
    (List.length !samples / 2);
  Printf.printf "%-25s gmean speedup (plain) %.2fx\n" pair gm;
  if !Common.json_reports then begin
    emit_json "BENCH_interp.json" !samples [ (pair, gm) ];
    Printf.printf "wrote BENCH_interp.json\n"
  end

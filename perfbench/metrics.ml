(* The benchmark's metric catalogue (mirrored by BENCHMARK.json) and the
   one-line JSON result every run ends with. *)

type metric = {
  name : string;
  unit : string;
  better : string;  (** "lower" | "higher" *)
}

let m name unit better = { name; unit; better }

(* Printed by the untraced run ([--trace 0]); every workload prints all. *)
let end_to_end =
  [
    m "setup_s" "s" "lower";
    m "peak_rss_mb" "MB" "lower";
    m "ops_per_s" "1/s" "higher";
    m "op_p50_ms" "ms" "lower";
    m "op_p90_ms" "ms" "lower";
    m "sim_overhead_x" "x" "lower";
  ]

let outcomes = [ "masked"; "sdc"; "corrected"; "os_detected"; "hang"; "deadlock" ]

(* Printed by the traced run ([--trace 1]).  A layer a workload leaves
   idle reports 0. *)
let per_layer =
  [
    m "workloads.build_ms" "ms" "lower";
    m "core.prepare_ms" "ms" "lower";
    m "cpu.create_ms" "ms" "lower";
    m "cpu.create_alloc_mb" "MB" "lower";
    m "cpu.init_ms" "ms" "lower";
    m "cpu.run_ms" "ms" "lower";
    m "cpu.mips" "MIPS" "higher";
    m "cpu.mips.native" "MIPS" "higher";
    m "cpu.mips.native-novec" "MIPS" "higher";
    m "cpu.mips.elzar" "MIPS" "higher";
    m "cpu.mips.swift-r" "MIPS" "higher";
    m "cpu.mips.t2" "MIPS" "higher";
    m "cpu.mips.t16" "MIPS" "higher";
    m "cpu.instrs" "count" "lower";
    m "cpu.uops" "count" "lower";
    m "cpu.cycles" "count" "lower";
    m "cpu.l1_misses" "count" "lower";
    m "cpu.branch_misses" "count" "lower";
    m "cpu.snapshot_alloc_mb" "MB" "lower";
    m "fault.golden_ms" "ms" "lower";
    m "fault.snapshots" "count" "lower";
    m "fault.restore_ms" "ms" "lower";
    m "fault.exec_ms" "ms" "lower";
  ]
  @ List.map (fun o -> m ("fault.exec_ms." ^ o) "ms" "lower") outcomes
  @ List.map (fun o -> m ("fault.exec_share." ^ o) "frac" "lower") outcomes
  @ [
      m "fault.ff_replay_sites" "count" "lower";
      m "fault.full_replays" "count" "lower";
      m "campaign.overhead_ms" "ms" "lower";
      m "campaign.redraw_frac" "x" "lower";
      m "campaign.checkpoint_ms" "ms" "lower";
      m "supervisor.overhead_frac" "frac" "lower";
      m "supervisor.quarantined" "count" "lower";
      m "supervisor.worker_deaths" "count" "lower";
      m "obs.report_ms" "ms" "lower";
      m "trace.ops_per_s" "1/s" "higher";
      m "trace.overhead_frac" "frac" "lower";
      m "trace.spans" "count" "lower";
    ]

let valid_name (s : string) : bool =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
  && match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

(* What one benchmark run produced.  [e2e] and [layers] are (name, value)
   pairs; [layers] is empty in the untraced run.  [notes] are printed as
   ["# "]-prefixed lines ahead of the result. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;
  notes : string list;
}

(* The final result line: [catalogue]'s metrics, in catalogue order, from
   [values].  A value outside the catalogue, a missing end-to-end value or
   a non-finite value is a benchmark bug; missing per-layer values are
   idle layers and read 0. *)
let result_line ~(trace : bool) (r : result) : string =
  let catalogue, values = if trace then (per_layer, r.layers) else (end_to_end, r.e2e) in
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun d -> d.name = n) catalogue) then
        failwith ("perfbench: metric outside the catalogue: " ^ n))
    values;
  let field d =
    let v =
      match List.assoc_opt d.name values with
      | Some v -> v
      | None when trace -> 0.0
      | None -> failwith ("perfbench: end-to-end metric not measured: " ^ d.name)
    in
    if not (Float.is_finite v) then
      failwith (Printf.sprintf "perfbench: metric %s is not finite" d.name);
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" d.name v d.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map field catalogue))

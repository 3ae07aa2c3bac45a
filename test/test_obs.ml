(* Observability-layer tests: the JSON emitter (escaping, canonical
   rendering, round-trip through an independent parser), report schema and
   determinism (bit-identical campaign results for any worker count),
   progress/checkpoint accounting fixes (resumed-campaign ETA, unwritable
   checkpoint paths), span coverage and the per-class profiling hook. *)

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

module J = Obs.Json

(* ---- a tiny independent JSON parser, so round-trip tests do not grade
   the emitter with its own inverse ---- *)

exception Parse_error of string

let parse (s : string) : J.t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then fail "unexpected end";
    let c = s.[!pos] in
    incr pos;
    c
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c = if next () <> c then fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          (match next () with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              let hex = String.init 4 (fun _ -> next ()) in
              let code = int_of_string ("0x" ^ hex) in
              if code > 0xff then fail "non-latin \\u escape"
              else Buffer.add_char buf (Char.chr code)
          | _ -> fail "bad escape");
          go ())
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      J.Float (float_of_string tok)
    else J.Int (int_of_string tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some 'n' -> literal "null" J.Null
    | Some 't' -> literal "true" (J.Bool true)
    | Some 'f' -> literal "false" (J.Bool false)
    | Some '"' -> J.Str (parse_string ())
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin incr pos; J.List [] end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> items (v :: acc)
            | ']' -> J.List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin incr pos; J.Obj [] end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> members ((k, v) :: acc)
            | '}' -> J.Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member name = function
  | J.Obj ms -> (
      match List.assoc_opt name ms with
      | Some v -> v
      | None -> Alcotest.failf "member %S missing" name)
  | _ -> Alcotest.failf "not an object looking for %S" name

(* ---- emitter unit tests ---- *)

let test_escaping () =
  check_str "quote and backslash" "a\\\"b\\\\c" (J.escape "a\"b\\c");
  check_str "common controls" "x\\ny\\tz\\r" (J.escape "x\ny\tz\r");
  check_str "backspace and formfeed" "\\b\\f" (J.escape "\b\012");
  check_str "other controls as u-escapes" "\\u0001\\u001f" (J.escape "\001\031");
  check_str "utf8 passes through" "caf\xc3\xa9" (J.escape "caf\xc3\xa9");
  check_str "rendered string literal" "\"he said \\\"hi\\\"\""
    (J.to_string ~compact:true (J.Str "he said \"hi\""))

let test_numbers () =
  check_str "integral float keeps .0" "3.0" (J.number 3.0);
  check_str "negative integral" "-2.0" (J.number (-2.0));
  check_str "fractional" "0.5" (J.number 0.5);
  check_str "nan is null" "null" (J.number nan);
  check_str "infinity is null" "null" (J.number infinity)

let test_nesting () =
  let doc =
    J.Obj
      [
        ("a", J.List [ J.Int 1; J.Int 2 ]);
        ("b", J.Obj [ ("c", J.Bool true) ]);
        ("d", J.List []);
        ("e", J.Obj []);
      ]
  in
  check_str "compact form" "{\"a\":[1,2],\"b\":{\"c\":true},\"d\":[],\"e\":{}}"
    (J.to_string ~compact:true doc);
  check_str "pretty form"
    "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"c\": true\n  },\n  \"d\": \
     [],\n  \"e\": {}\n}"
    (J.to_string doc)

let test_round_trip () =
  let doc =
    J.Obj
      [
        ("name", J.Str "line\none\t\"quoted\"");
        ("count", J.Int (-42));
        ("ratio", J.Float 1.5);
        ("tiny", J.Float (-0.25));
        ("whole", J.Float 3.0);
        ("flag", J.Bool false);
        ("nothing", J.Null);
        ("nested", J.List [ J.Obj [ ("k", J.Str "v") ]; J.List [ J.Int 7 ] ]);
      ]
  in
  check_bool "pretty round-trips" true (parse (J.to_string doc) = doc);
  check_bool "compact round-trips" true (parse (J.to_string ~compact:true doc) = doc)

(* ---- campaign report determinism and schema ---- *)

let spec () = Test_fault.spec_of (Elzar.Hardened Elzar.Harden_config.default)

let test_results_bit_identical_across_jobs () =
  let spec = spec () in
  let render jobs =
    J.to_string
      (Report.campaign_results
         (Campaign.model_campaign ~model:Fault.Reg ~seed:19 ~n:24 ~jobs spec))
  in
  let r1 = render 1 in
  check_str "1 vs 2 workers" r1 (render 2);
  check_str "1 vs 4 workers" r1 (render 4)

let test_campaign_schema () =
  let spec = spec () in
  let r = Campaign.model_campaign ~model:Fault.Reg ~seed:3 ~n:12 ~jobs:2 spec in
  let doc =
    parse (J.to_string (Report.campaign ~params:[ ("workload", J.Str "pure") ] r))
  in
  check_bool "schema" true (member "schema" doc = J.Str "elzar.campaign");
  check_bool "version" true (member "version" doc = J.Int Report.version);
  check_bool "params carried" true
    (member "workload" (member "campaign" doc) = J.Str "pure");
  let results = member "results" doc in
  let stats = member "stats" results in
  check_bool "runs counted" true (member "runs" stats = J.Int 12);
  (match member "avf" results with
  | J.List (_ :: _) -> ()
  | _ -> Alcotest.fail "avf table empty");
  (match member "log2_histogram" (member "latency" results) with
  | J.List _ -> ()
  | _ -> Alcotest.fail "latency histogram missing");
  check_bool "jobs recorded" true (member "jobs" (member "timing" doc) = J.Int 2);
  match member "spans" doc with
  | J.List (_ :: _ as rows) ->
      List.iter
        (fun row ->
          match (member "span" row, member "wall_seconds" row) with
          | J.Str _, J.Float _ -> ()
          | _ -> Alcotest.fail "span row shape")
        rows
  | _ -> Alcotest.fail "spans missing or empty"

(* the top-level spans (golden, plan, exec) tile the campaign: together
   they cover at least 95% of its wall time *)
let test_span_coverage () =
  let spec = spec () in
  let r = Campaign.model_campaign ~model:Fault.Reg ~seed:11 ~n:60 ~jobs:2 spec in
  let cov = Obs.Span.coverage ~rows:r.Campaign.spans ~wall:r.Campaign.wall_seconds in
  if cov < 0.95 then
    Alcotest.failf "top-level spans cover %.1f%% of campaign wall time" (100.0 *. cov);
  check_bool "nested spans present" true
    (List.exists
       (fun (row : Obs.Span.row) -> String.contains row.Obs.Span.path '/')
       r.Campaign.spans)

(* [wall_seconds] times the whole campaign, golden run included: it is at
   least the sum of the top-level spans, which run one after another
   inside it (a nanosecond of slack absorbs float rounding) *)
let test_wall_covers_spans () =
  let r = Campaign.model_campaign ~model:Fault.Reg ~seed:11 ~n:12 ~jobs:1 (spec ()) in
  let top =
    List.fold_left
      (fun acc (row : Obs.Span.row) ->
        if String.contains row.Obs.Span.path '/' then acc else acc +. row.Obs.Span.wall)
      0.0 r.Campaign.spans
  in
  if top > r.Campaign.wall_seconds +. 1e-9 then
    Alcotest.failf "wall_seconds %.6f s < top-level spans %.6f s" r.Campaign.wall_seconds
      top

(* ---- progress/checkpoint accounting ---- *)

(* The resumed-campaign ETA bug: restored experiments finish instantly, so
   the completion rate must come from executed runs only — and while the
   replay prefix is still running (zero executed experiments) there is no
   rate at all, so the ETA must be [nan], never a number extrapolated from
   instant restores.  Interrupt a checkpointed campaign, resume it, and
   check every progress record. *)
let test_resume_eta_uses_executed_rate () =
  let spec = spec () in
  let path = Filename.temp_file "elzar_obs_eta" ".ck" in
  Sys.remove path;
  let cancel = Atomic.make false in
  let partial =
    Campaign.model_campaign ~model:Fault.Reg ~seed:23 ~n:40 ~jobs:1 ~checkpoint:path ~cancel
      ~progress:(fun p -> if p.Campaign.completed >= 35 then Atomic.set cancel true)
      spec
  in
  check_bool "campaign interrupted" true partial.Campaign.interrupted;
  check_bool "checkpoint written" true (Sys.file_exists path);
  let records = ref [] in
  let _ =
    Campaign.model_campaign ~model:Fault.Reg ~seed:23 ~n:40 ~jobs:1 ~checkpoint:path
      ~progress:(fun p -> records := p :: !records)
      spec
  in
  let resumed =
    List.filter (fun (p : Campaign.progress) -> p.Campaign.restored > 0) !records
  in
  check_bool "resume restored experiments" true (resumed <> []);
  check_bool "replay prefix has executed-free records" true
    (List.exists
       (fun (p : Campaign.progress) -> p.Campaign.completed = p.Campaign.restored)
       resumed);
  List.iter
    (fun (p : Campaign.progress) ->
      (* nothing quarantined: executed is just completed - restored *)
      let executed = p.Campaign.completed - p.Campaign.restored in
      if executed = 0 then (
        if not (Float.is_nan p.Campaign.eta) then
          Alcotest.failf "eta %.6f on a record with no executed runs (want nan)"
            p.Campaign.eta)
      else
        let expected =
          p.Campaign.elapsed
          /. float_of_int executed
          *. float_of_int (p.Campaign.total - p.Campaign.completed)
        in
        if Float.abs (p.Campaign.eta -. expected) > 1e-6 then
          Alcotest.failf
            "eta %.6f but executed-only rate gives %.6f (completed %d, restored %d)"
            p.Campaign.eta expected p.Campaign.completed p.Campaign.restored)
    resumed

(* A checkpoint path that can never be opened must not kill the campaign:
   it warns once on stderr and completes with the same results. *)
let test_unwritable_checkpoint () =
  let spec = spec () in
  let baseline = Campaign.model_campaign ~model:Fault.Reg ~seed:27 ~n:12 ~jobs:1 spec in
  let r =
    Campaign.model_campaign ~model:Fault.Reg ~seed:27 ~n:12 ~jobs:1
      ~checkpoint:"/nonexistent_dir_elzar_test/campaign.ck" spec
  in
  check_bool "campaign completed with baseline stats" true
    (r.Campaign.stats = baseline.Campaign.stats);
  check_bool "no stray checkpoint file" true
    (not (Sys.file_exists "/nonexistent_dir_elzar_test/campaign.ck"))

(* ---- per-class profiling hook ---- *)

let known_classes =
  [
    "alu"; "cmp"; "select"; "cast"; "mov"; "load"; "store"; "alloca"; "call";
    "atomic"; "vec"; "branch";
  ]

(* The hook under [engine]; both engines retire the same instructions at
   the same cycles, so their tables must be equal row for row. *)
let test_profile_hook engine () =
  let w = Workloads.Registry.find "hist" in
  let run engine profile =
    let cfg = { Cpu.Machine.default_config with Cpu.Machine.profile; engine } in
    Workloads.Workload.execute ~machine_cfg:cfg w ~build:Elzar.Native ~nthreads:2
      ~size:Workloads.Workload.Tiny
  in
  let off = run engine None in
  let prof = Cpu.Profile.create () in
  let on = run engine (Some prof) in
  check_bool "profiling does not change the run" true
    (off.Cpu.Machine.wall_cycles = on.Cpu.Machine.wall_cycles
    && off.Cpu.Machine.totals = on.Cpu.Machine.totals
    && off.Cpu.Machine.output_digest = on.Cpu.Machine.output_digest);
  let instrs, cycles = Cpu.Profile.total prof in
  Alcotest.(check int)
    "every retired instruction attributed" on.Cpu.Machine.totals.Cpu.Counters.instrs
    instrs;
  check_bool "cycles attributed" true (cycles > 0);
  List.iter
    (fun (cls, n, _) ->
      check_bool (Printf.sprintf "class %s known" cls) true (List.mem cls known_classes);
      check_bool (Printf.sprintf "class %s counted" cls) true (n > 0))
    (Cpu.Profile.rows prof);
  let other = Cpu.Profile.create () in
  let _ =
    run
      (match engine with
      | Cpu.Machine.Reference -> Cpu.Machine.Compiled
      | Cpu.Machine.Compiled -> Cpu.Machine.Reference)
      (Some other)
  in
  check_bool "rows equal under the other engine" true
    (Cpu.Profile.rows prof = Cpu.Profile.rows other);
  (* the JSON rendering exposes the same totals *)
  match Report.profile prof with
  | J.List rows ->
      let sum =
        List.fold_left
          (fun acc row ->
            match member "instrs" row with J.Int n -> acc + n | _ -> acc)
          0 rows
      in
      Alcotest.(check int) "json rows sum to total" instrs sum
  | _ -> Alcotest.fail "profile JSON not a list"

let tests =
  [
    Alcotest.test_case "escaping" `Quick test_escaping;
    Alcotest.test_case "canonical numbers" `Quick test_numbers;
    Alcotest.test_case "nesting pretty and compact" `Quick test_nesting;
    Alcotest.test_case "round-trip" `Quick test_round_trip;
    Alcotest.test_case "results bit-identical across jobs" `Quick
      test_results_bit_identical_across_jobs;
    Alcotest.test_case "campaign schema" `Quick test_campaign_schema;
    Alcotest.test_case "span coverage" `Quick test_span_coverage;
    Alcotest.test_case "wall time covers the spans" `Quick test_wall_covers_spans;
    Alcotest.test_case "resume eta uses executed rate" `Quick
      test_resume_eta_uses_executed_rate;
    Alcotest.test_case "unwritable checkpoint" `Quick test_unwritable_checkpoint;
    Alcotest.test_case "profile hook" `Quick (test_profile_hook Cpu.Machine.Compiled);
    Alcotest.test_case "profile hook (reference)" `Quick
      (test_profile_hook Cpu.Machine.Reference);
  ]

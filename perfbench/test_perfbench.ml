(* The benchmark's own tests: the percentile helper, the metric catalogue
   (name syntax, and agreement with BENCHMARK.json), fingerprint
   determinism under one seed, and plan sensitivity to the seed. *)

open Perfbench

let close a b = Float.abs (a -. b) < 1e-9

let test_percentile () =
  let p = Stats.percentile in
  Alcotest.(check (float 1e-9)) "median of 1..4" 2.5 (p 50.0 [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "p90 of 1..4" 3.7 (p 90.0 [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "p0 is the minimum" 1.0 (p 0.0 [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "p100 is the maximum" 3.0 (p 100.0 [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "single sample" 7.0 (p 90.0 [ 7.0 ]);
  Alcotest.(check (float 1e-9)) "p90 of 1..11" 10.0 (p 90.0 (List.init 11 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (float 1e-9)) "median of an odd sample" 5.0 (Stats.median [ 9.0; 5.0; 1.0 ]);
  Alcotest.(check bool) "gmean" true (close (Stats.gmean [ 2.0; 8.0 ]) 4.0);
  Alcotest.check_raises "empty sample" (Invalid_argument "Stats.percentile: empty sample")
    (fun () -> ignore (p 50.0 []))

let all_metrics = Metrics.end_to_end @ Metrics.per_layer

let test_names () =
  List.iter
    (fun (d : Metrics.metric) ->
      Alcotest.(check bool) ("valid name " ^ d.name) true (Metrics.valid_name d.name))
    all_metrics;
  let names = List.map (fun (d : Metrics.metric) -> d.name) all_metrics in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (Metrics.valid_name bad))
    [ ""; "a b"; ".lead"; "x/y"; "é" ]

(* Every catalogue entry appears in BENCHMARK.json with the same unit and
   direction, and BENCHMARK.json names no other metric. *)
let test_benchmark_json () =
  let json = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let compact = String.concat "" (String.split_on_char ' ' json) in
  let occurrences sub =
    let n = String.length sub and count = ref 0 in
    for i = 0 to String.length compact - n do
      if String.sub compact i n = sub then incr count
    done;
    !count
  in
  List.iter
    (fun (d : Metrics.metric) ->
      let entry =
        Printf.sprintf "{\"name\":\"%s\",\"unit\":\"%s\",\"better\":\"%s\"" d.name d.unit d.better
      in
      Alcotest.(check int) ("BENCHMARK.json lists " ^ d.name) 1 (occurrences entry))
    all_metrics;
  Alcotest.(check int) "no other metric in BENCHMARK.json"
    (List.length all_metrics + 2 (* workloads *))
    (occurrences "{\"name\":")

let quiet : Harness.tracer = None

let fi_digest ~seed =
  let s =
    Harness.setup quiet ~size:Fi.size
      ~workloads:[ Workloads.Registry.find "hist" ]
      ~flavours:[ Fi.hardened ]
  in
  let spec = Fi.spec s (Workloads.Registry.find "hist") in
  let r = Fi.campaign ~seed ~n:6 ~scratch:"." ~tag:"test" spec in
  (Fi.results_digest r, Array.map fst r.Campaign.outcomes)

let test_same_seed () =
  let d1, _ = fi_digest ~seed:5 and d2, _ = fi_digest ~seed:5 in
  Alcotest.(check string) (Fi.name ^ " results digest") d1 d2;
  let one () =
    let s =
      Harness.setup quiet ~size:Workloads.Workload.Tiny
        ~workloads:[ Workloads.Registry.find "linreg" ]
        ~flavours:[ Harness.elzar Elzar.Harden_config.default ]
    in
    let w = Workloads.Registry.find "linreg" in
    let r, _ =
      Harness.exec quiet ~build:(Elzar.Hardened Elzar.Harden_config.default)
        ~init:(w.init Workloads.Workload.Tiny) ~nthreads:2
        (Harness.prepared s w (Harness.elzar Elzar.Harden_config.default))
    in
    Host.counter_fields r.Cpu.Machine.totals ^ Digest.to_hex r.Cpu.Machine.output_digest
  in
  Alcotest.(check string) "fault-free counters" (one ()) (one ())

let test_seed_changes_plan () =
  let _, p1 = fi_digest ~seed:(Host.campaign_seed ~seed:1 ~workload:"hist")
  and _, p2 = fi_digest ~seed:(Host.campaign_seed ~seed:2 ~workload:"hist") in
  Alcotest.(check bool) (Fi.name ^ " plans differ") true (p1 <> p2);
  Alcotest.(check bool) "run order differs" true
    (Host.shuffle ~seed:1 (List.init 20 Fun.id) <> Host.shuffle ~seed:2 (List.init 20 Fun.id))

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json catalogue" `Quick test_benchmark_json;
          Alcotest.test_case "same seed, same fingerprint" `Quick test_same_seed;
          Alcotest.test_case "seed changes the plan" `Quick test_seed_changes_plan;
        ] );
    ]

(* Machine-level behaviours: traps, tracing, function pointers, and the
   runtime/builtin layer. *)

open Ir

let check_bool = Alcotest.(check bool)

let run_expect_trap mk (expected : Cpu.Machine.trap_reason -> bool) =
  let m = Builder.create_module () in
  Builder.global m "g" 64;
  let b, _ = Builder.func m ~hardened:false "main" [ ("n", Types.i64) ] in
  mk b;
  Builder.ret b None;
  Verifier.verify_exn m;
  let cfg = { Cpu.Machine.default_config with max_instrs = 100_000 } in
  let r = Cpu.Machine.run_module ~cfg m "main" ~args:[| 0L |] in
  match r.Cpu.Machine.trap with
  | Some t when expected t -> ()
  | Some t -> Alcotest.failf "unexpected trap: %s" (Cpu.Machine.string_of_trap t)
  | None -> Alcotest.fail "expected a trap"

let test_trap_null_deref () =
  run_expect_trap
    (fun b -> ignore (Builder.load b Types.i64 (Builder.ptrc 8)))
    (function Cpu.Machine.Segfault _ -> true | _ -> false)

let test_trap_div_zero () =
  run_expect_trap
    (fun b ->
      let z = Builder.sub b (Builder.i64c 5) (Builder.i64c 5) in
      ignore (Builder.sdiv b (Builder.i64c 1) z))
    (function Cpu.Machine.Div_by_zero -> true | _ -> false)

let test_trap_bad_callee () =
  run_expect_trap
    (fun b -> ignore (Builder.call_ind b ~ret:Types.i64 (Builder.ptrc 4096) []))
    (function Cpu.Machine.Bad_callee _ -> true | _ -> false)

let test_trap_abort () =
  run_expect_trap
    (fun b -> Builder.call0 b "abort" [])
    (function Cpu.Machine.Aborted -> true | _ -> false)

let test_function_pointers_work () =
  let m = Builder.create_module () in
  let open Builder in
  let b, ps = func m "double_it" ~ret:Types.i64 [ ("x", Types.i64) ] in
  let x = match ps with [ p ] -> Instr.Reg p | _ -> assert false in
  ret b (Some (mul b x (i64c 2)));
  let b, _ = func m ~hardened:false "main" [ ("n", Types.i64) ] in
  let fp = mov b (Instr.Fref "double_it") in
  let r = Option.get (call_ind b ~ret:Types.i64 fp [ i64c 21 ]) in
  call0 b "output_i64" [ r ];
  ret b None;
  Verifier.verify_exn m;
  let r = Cpu.Machine.run_module m "main" ~args:[| 0L |] in
  check_bool "no trap" true (r.Cpu.Machine.trap = None);
  Alcotest.(check int64) "42" 42L
    (Bytes.get_int64_le (Bytes.of_string r.Cpu.Machine.output_bytes) 0)

let test_malloc_free_roundtrip () =
  let m = Builder.create_module () in
  let open Builder in
  let b, _ = func m ~hardened:false "main" [ ("n", Types.i64) ] in
  let p = callv b ~ret:Types.ptr "malloc" [ i64c 256 ] in
  store b (i64c 77) p;
  let v = load b Types.i64 p in
  call0 b "output_i64" [ v ];
  call0 b "free" [ p ];
  let q = callv b ~ret:Types.ptr "malloc" [ i64c 64 ] in
  call0 b "output_i64" [ q ];
  ret b None;
  Verifier.verify_exn m;
  let r = Cpu.Machine.run_module m "main" ~args:[| 0L |] in
  check_bool "no trap" true (r.Cpu.Machine.trap = None);
  let out = Bytes.of_string r.Cpu.Machine.output_bytes in
  Alcotest.(check int64) "stored value" 77L (Bytes.get_int64_le out 0)

let test_trace_capture () =
  let m = Builder.create_module () in
  let open Builder in
  let b, _ = func m "kernel" [] in
  let acc = fresh b ~name:"acc" Types.i64 in
  assign b acc (i64c 0);
  for_ b ~lo:(i64c 0) ~hi:(i64c 3) (fun i -> assign b acc (add b (Instr.Reg acc) i));
  call0 b "output_i64" [ Instr.Reg acc ];
  ret b None;
  let b, _ = func m ~hardened:false "main" [ ("n", Types.i64) ] in
  call0 b "kernel" [];
  ret b None;
  Verifier.verify_exn m;
  let buf = Buffer.create 1024 in
  let cfg = { Cpu.Machine.default_config with trace = Some buf } in
  let r = Cpu.Machine.run_module ~cfg m "main" ~args:[| 0L |] in
  check_bool "no trap" true (r.Cpu.Machine.trap = None);
  let t = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and h = String.length t in
    let rec go i = i + n <= h && (String.sub t i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "trace mentions hardened kernel" true (contains "H@kernel");
  check_bool "trace mentions unhardened main" true (contains ".@main");
  check_bool "trace shows instruction text" true (contains "icmp slt")

(* A trace the 1 MB cap cuts ends with one line counting what it dropped:
   the kept lines and the dropped ones add up to every retired
   instruction. *)
let test_trace_cut_marker () =
  let w = Workloads.Registry.find "black" in
  let buf = Buffer.create 4096 in
  let cfg = { Cpu.Machine.default_config with trace = Some buf } in
  let r =
    Workloads.Workload.execute ~machine_cfg:cfg w
      ~build:(Elzar.Hardened Elzar.Harden_config.default) ~nthreads:1
      ~size:Workloads.Workload.Tiny
  in
  check_bool "no trap" true (r.Cpu.Machine.trap = None);
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' (Buffer.contents buf)) in
  let kept, last =
    match List.rev lines with last :: rest -> (List.length rest, last) | [] -> assert false
  in
  let instrs = r.Cpu.Machine.totals.Cpu.Counters.instrs in
  check_bool "the run overruns the cap" true (kept < instrs);
  Alcotest.(check string) "marker line"
    (Printf.sprintf "# trace cut at 1 MB: %d lines dropped" (instrs - kept))
    last;
  check_bool "every other line is an instruction" true
    (List.for_all (fun l -> l.[0] = 'T') (List.filteri (fun i _ -> i < kept) lines))

let test_alloca_stack_discipline () =
  let m = Builder.create_module () in
  let open Builder in
  let b, ps = func m "leaf" ~ret:Types.i64 [ ("x", Types.i64) ] in
  let x = match ps with [ p ] -> Instr.Reg p | _ -> assert false in
  let slot = alloca b 64 in
  store b x slot;
  ret b (Some (load b Types.i64 slot));
  let b, _ = func m ~hardened:false "main" [ ("n", Types.i64) ] in
  (* repeated calls must not leak stack *)
  let acc = fresh b ~name:"acc" Types.i64 in
  assign b acc (i64c 0);
  for_ b ~lo:(i64c 0) ~hi:(i64c 10_000) (fun i ->
      let v = callv b ~ret:Types.i64 "leaf" [ i ] in
      assign b acc (add b (Instr.Reg acc) v));
  call0 b "output_i64" [ Instr.Reg acc ];
  ret b None;
  Verifier.verify_exn m;
  let r = Cpu.Machine.run_module m "main" ~args:[| 0L |] in
  check_bool "no stack overflow across 10k calls" true (r.Cpu.Machine.trap = None)

(* Memory exhaustion in a simulated program is the program's outcome, not
   a host exception, on both engines: malloc returns NULL when no chunk
   fits (so the store through it segfaults at 0), and a spawn whose stack
   would reach the heap segfaults, as does any builtin's access to
   unmapped memory. *)
let run_on engine mk =
  let m = Builder.create_module () in
  let open Builder in
  let b, _ = func m "worker" [ ("x", Types.i64) ] in
  ret b None;
  let b, _ = func m ~hardened:false "main" [ ("n", Types.i64) ] in
  mk b;
  ret b None;
  Verifier.verify_exn m;
  let cfg = { Cpu.Machine.default_config with Cpu.Machine.engine; max_instrs = 1_000_000 } in
  Cpu.Machine.run_module ~cfg m "main" ~args:[| 0L |]

let check_segfault name (r : Cpu.Machine.result) =
  match r.Cpu.Machine.trap with
  | Some (Cpu.Machine.Segfault _) -> ()
  | Some t -> Alcotest.failf "%s: unexpected trap %s" name (Cpu.Machine.string_of_trap t)
  | None -> Alcotest.failf "%s: expected a segfault" name

let test_malloc_exhaustion engine () =
  let r =
    run_on engine (fun b ->
        let open Builder in
        let p = callv b ~ret:Types.ptr "malloc" [ i64c (1 lsl 40) ] in
        call0 b "output_i64" [ p ];
        store b (i64c 1) p)
  in
  Alcotest.(check string) "malloc returned NULL" (String.make 8 '\000') r.Cpu.Machine.output_bytes;
  Alcotest.(check (option string))
    "store through NULL" (Some (Cpu.Machine.string_of_trap (Cpu.Machine.Segfault 0L)))
    (Option.map Cpu.Machine.string_of_trap r.Cpu.Machine.trap)

let test_stack_exhaustion engine () =
  check_segfault "1000 spawns"
    (run_on engine (fun b ->
         let open Builder in
         for_ b ~lo:(i64c 0) ~hi:(i64c 1000) (fun i ->
             ignore (callv b ~ret:Types.i64 "spawn" [ Instr.Fref "worker"; i ]))))

let test_builtin_fault engine () =
  check_segfault "lock at 8"
    (run_on engine (fun b -> Builder.call0 b "lock" [ Builder.ptrc 8 ]));
  check_segfault "output_bytes at 8"
    (run_on engine (fun b -> Builder.call0 b "output_bytes" [ Builder.ptrc 8; Builder.i64c 4 ]))

(* Every faulting memory instruction segfaults at its own address, on
   both engines: the fault reaches the run's outcome intact. *)
let test_mem_fault engine () =
  let addr = 1 lsl 40 in
  List.iter
    (fun (name, mk) ->
      Alcotest.(check (option string))
        name
        (Some (Cpu.Machine.string_of_trap (Cpu.Machine.Segfault (Int64.of_int addr))))
        (Option.map Cpu.Machine.string_of_trap (run_on engine mk).Cpu.Machine.trap))
    (let open Builder in
     let p = ptrc addr and v4 = Types.ymm_of Types.I64 in
     [
       ("scalar load", fun b -> ignore (load b Types.i64 p));
       ("vector load", fun b -> ignore (load b v4 p));
       ("vector store", fun b -> store b (broadcast b v4 (i64c 7)) p);
       ("atomic_rmw", fun b -> ignore (atomic_rmw b Instr.Rmw_add p (i64c 1)));
       ("cmpxchg", fun b -> ignore (cmpxchg b p (i64c 0) (i64c 1)));
     ])

(* A builtin call must match the builtin's arity and result, and is
   checked when the module is loaded, as a call to an unknown function is:
   the verifier cannot see the builtin table, and a bad call must never
   reach a run (where it would index past its argument array). *)
let test_builtin_call_checked_at_load () =
  let loads mk =
    let m = Builder.create_module () in
    let b, _ = Builder.func m ~hardened:false "main" [ ("n", Types.i64) ] in
    mk b;
    Builder.ret b None;
    Verifier.verify_exn m;
    match Cpu.Machine.create m with _ -> true | exception Invalid_argument _ -> false
  in
  List.iter
    (fun (name, ok, mk) -> check_bool name ok (loads mk))
    (let open Builder in
     [
       ("malloc(size) loads", true, fun b -> ignore (callv b ~ret:Types.ptr "malloc" [ i64c 8 ]));
       ("a result left unbound loads", true, fun b -> call0 b "thread_id" []);
       ("malloc() is rejected", false, fun b -> ignore (callv b ~ret:Types.ptr "malloc" []));
       ("free(p, p) is rejected", false, fun b -> call0 b "free" [ ptrc 64; ptrc 64 ]);
       ( "a result bound from free is rejected",
         false,
         fun b -> ignore (callv b ~ret:Types.i64 "free" [ ptrc 64 ]) );
     ])

let tests =
  [
    Alcotest.test_case "builtin calls checked at load" `Quick test_builtin_call_checked_at_load;
    Alcotest.test_case "trap: null deref" `Quick test_trap_null_deref;
    Alcotest.test_case "trap: division by zero" `Quick test_trap_div_zero;
    Alcotest.test_case "trap: bad callee" `Quick test_trap_bad_callee;
    Alcotest.test_case "trap: abort" `Quick test_trap_abort;
    Alcotest.test_case "function pointers" `Quick test_function_pointers_work;
    Alcotest.test_case "malloc/free" `Quick test_malloc_free_roundtrip;
    Alcotest.test_case "instruction trace" `Quick test_trace_capture;
    Alcotest.test_case "cut trace ends with a marker" `Quick test_trace_cut_marker;
    Alcotest.test_case "alloca stack discipline" `Quick test_alloca_stack_discipline;
  ]
  @ List.concat_map
      (fun (name, engine) ->
        [
          Alcotest.test_case ("malloc exhaustion returns NULL " ^ name) `Quick
            (test_malloc_exhaustion engine);
          Alcotest.test_case ("stack exhaustion segfaults " ^ name) `Quick
            (test_stack_exhaustion engine);
          Alcotest.test_case ("builtin fault segfaults " ^ name) `Quick
            (test_builtin_fault engine);
          Alcotest.test_case ("memory instruction faults segfault " ^ name) `Quick
            (test_mem_fault engine);
        ])
      [ ("(reference)", Cpu.Machine.Reference); ("(compiled)", Cpu.Machine.Compiled) ]

(* Unit tests of the IR layer: types, builder, printer, verifier. *)

open Ir

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- types ---- *)

let test_type_sizes () =
  check_int "i1 bits" 1 (Types.bits Types.I1);
  check_int "i8 bytes" 1 (Types.bytes Types.I8);
  check_int "i16 bytes" 2 (Types.bytes Types.I16);
  check_int "f32 bits" 32 (Types.bits Types.F32);
  check_int "ptr bytes" 8 (Types.bytes Types.Ptr);
  check_int "ymm lanes i8" 32 (Types.ymm_lanes Types.I8);
  check_int "ymm lanes i32" 8 (Types.ymm_lanes Types.I32);
  check_int "ymm lanes f64" 4 (Types.ymm_lanes Types.F64);
  (* booleans live as 64-bit mask lanes *)
  check_bool "ymm of i1" true (Types.ymm_of Types.I1 = Types.Vector (Types.I64, 4))

let test_mask_elem () =
  check_bool "mask of f32 is i32" true (Types.mask_elem Types.F32 = Types.I32);
  check_bool "mask of ptr is i64" true (Types.mask_elem Types.Ptr = Types.I64);
  check_bool "mask of i16 is i16" true (Types.mask_elem Types.I16 = Types.I16)

let test_type_printing () =
  check_string "vector type" "<4 x i64>" (Types.to_string (Types.Vector (Types.I64, 4)));
  check_string "scalar" "f32" (Types.to_string Types.f32)

(* ---- builder ---- *)

let build_simple () =
  let m = Builder.create_module () in
  let b, ps = Builder.func m "f" [ ("x", Types.i64) ] ~ret:Types.i64 in
  let x = match ps with [ p ] -> Instr.Reg p | _ -> assert false in
  let open Builder in
  let y = add b x (i64c 1) in
  ret b (Some y);
  m

let test_builder_basics () =
  let m = build_simple () in
  let f = Option.get (Instr.find_func m "f") in
  check_int "one block" 1 (List.length f.Instr.blocks);
  check_int "one instr" 1 (List.length (snd (List.hd f.Instr.blocks)).Instr.instrs);
  check_bool "verifies" true (Verifier.verify m = Ok ())

let test_builder_loop_metadata () =
  let m = Builder.create_module () in
  let b, _ = Builder.func m "f" [] in
  let open Builder in
  for_ b ~lo:(i64c 0) ~hi:(i64c 10) (fun _ -> ());
  ret b None;
  let f = Option.get (Instr.find_func m "f") in
  check_int "loop recorded" 1 (List.length f.Instr.loops);
  let li = List.hd f.Instr.loops in
  check_bool "bounds recorded" true
    (li.Instr.l_lo = Instr.Imm (Types.i64, 0L) && li.Instr.l_hi = Instr.Imm (Types.i64, 10L))

let test_if_else () =
  let m = Builder.create_module () in
  let b, ps = Builder.func m "f" [ ("x", Types.i64) ] ~ret:Types.i64 in
  let x = match ps with [ p ] -> Instr.Reg p | _ -> assert false in
  let open Builder in
  let r = fresh b Types.i64 in
  if_ b
    (icmp b Instr.Isgt x (i64c 0))
    ~then_:(fun () -> assign b r x)
    ~else_:(fun () -> assign b r (sub b (i64c 0) x))
    ();
  ret b (Some (Instr.Reg r));
  Verifier.verify_exn m;
  let run v =
    let r = Cpu.Machine.run_module m "f" ~args:[| v |] in
    check_bool "no trap" true (r.Cpu.Machine.trap = None);
    r
  in
  ignore (run 5L);
  ignore (run (-5L))

(* ---- verifier rejections ---- *)

let ill_formed mk =
  let m = Builder.create_module () in
  mk m;
  match Verifier.verify m with Ok () -> false | Error _ -> true

let test_verifier_type_mismatch () =
  check_bool "i32 + i64 rejected" true
    (ill_formed (fun m ->
         let b, _ = Builder.func m "f" [] in
         let r = Builder.fresh b Types.i64 in
         Builder.emit b (Instr.Binop (r, Instr.Add, Builder.i32c 1, Builder.i64c 2));
         Builder.ret b None))

let test_verifier_bad_branch () =
  check_bool "branch to unknown label rejected" true
    (ill_formed (fun m ->
         let b, _ = Builder.func m "f" [] in
         Builder.br b "nowhere"))

let test_verifier_bad_arity () =
  check_bool "wrong call arity rejected" true
    (ill_formed (fun m ->
         let b, _ = Builder.func m "callee" [ ("x", Types.i64) ] in
         Builder.ret b None;
         let b2, _ = Builder.func m "f" [] in
         Builder.call0 b2 "callee" [];
         Builder.ret b2 None))

(* The exact error list for label and callee lookups: a label repeated
   three times is reported at its first two occurrences, an unknown branch
   target once, and a call resolves to the first function of its name. *)
let test_verifier_label_and_callee_errors () =
  let blk term = { Instr.instrs = []; term } in
  let func name params blocks : Instr.func =
    { Instr.fname = name; params; ret_ty = None; blocks; next_reg = List.length params; loops = [];
      hardened = true }
  in
  let x = { Instr.rid = 0; rname = "x"; rty = Types.i64 } in
  let call = { Instr.instrs = [ Instr.Call (None, "g", []) ]; term = Instr.Br "b" } in
  let m =
    {
      Instr.funcs =
        [
          func "f" []
            [ ("a", call); ("b", blk (Instr.Br "zz")); ("a", blk (Instr.Ret None)); ("a", blk (Instr.Ret None)) ];
          func "g" [ x ] [ ("entry", blk (Instr.Ret None)) ];
          func "g" [] [ ("entry", blk (Instr.Ret None)) ];
        ];
      globals = [];
    }
  in
  Alcotest.(check (result unit (list string)))
    "errors"
    (Error
       [
         "@f: duplicate block label %a";
         "@f: duplicate block label %a";
         "@f: call @g: arity 0, expected 1";
         "@f: branch to unknown block %zz";
       ])
    (Verifier.verify m)

let test_verifier_float_arith_on_int () =
  check_bool "fadd on ints rejected" true
    (ill_formed (fun m ->
         let b, _ = Builder.func m "f" [] in
         let r = Builder.fresh b Types.i64 in
         Builder.emit b (Instr.Fbinop (r, Instr.Fadd, Builder.i64c 1, Builder.i64c 2));
         Builder.ret b None))

let test_verifier_allows_float_xor () =
  (* bitwise ops on float vectors are the basis of the shuffle-xor check *)
  let m = Builder.create_module () in
  let b, _ = Builder.func m "f" [] in
  let vty = Types.Vector (Types.F64, 4) in
  let v = Builder.fresh b vty in
  Builder.emit b (Instr.Mov (v, Instr.Fimm (vty, 1.5)));
  let x = Builder.fresh b vty in
  Builder.emit b (Instr.Binop (x, Instr.Xor, Instr.Reg v, Instr.Reg v));
  Builder.ret b None;
  check_bool "float xor ok" true (Verifier.verify m = Ok ())

let test_verifier_shuffle_bounds () =
  check_bool "out-of-range shuffle rejected" true
    (ill_formed (fun m ->
         let b, _ = Builder.func m "f" [] in
         let vty = Types.Vector (Types.I64, 4) in
         let v = Builder.fresh b vty in
         Builder.emit b (Instr.Mov (v, Instr.Imm (vty, 0L)));
         let s = Builder.fresh b vty in
         Builder.emit b (Instr.Shuffle (s, Instr.Reg v, [| 0; 1; 2; 7 |]));
         Builder.ret b None))

let test_verifier_duplicate_symbol () =
  let mk () =
    let m = Builder.create_module () in
    let b, _ = Builder.func m "f" [] in
    Builder.ret b None;
    m
  in
  check_bool "duplicate function rejected" true
    (try
       ignore (Linker.link [ mk (); mk () ]);
       false
     with Linker.Duplicate_symbol _ -> true)

(* ---- printer ---- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_printer_roundtrip_stability () =
  let m = build_simple () in
  let s1 = Printer.modul_to_string m in
  let s2 = Printer.modul_to_string m in
  check_string "printing is deterministic" s1 s2;
  check_bool "mentions function" true (contains s1 "@f");
  check_bool "mentions add" true (contains s1 "add")

let tests =
  [
    Alcotest.test_case "type sizes" `Quick test_type_sizes;
    Alcotest.test_case "mask elements" `Quick test_mask_elem;
    Alcotest.test_case "type printing" `Quick test_type_printing;
    Alcotest.test_case "builder basics" `Quick test_builder_basics;
    Alcotest.test_case "loop metadata" `Quick test_builder_loop_metadata;
    Alcotest.test_case "if/else" `Quick test_if_else;
    Alcotest.test_case "verifier: type mismatch" `Quick test_verifier_type_mismatch;
    Alcotest.test_case "verifier: bad branch" `Quick test_verifier_bad_branch;
    Alcotest.test_case "verifier: bad arity" `Quick test_verifier_bad_arity;
    Alcotest.test_case "verifier: label and callee errors" `Quick
      test_verifier_label_and_callee_errors;
    Alcotest.test_case "verifier: fadd on ints" `Quick test_verifier_float_arith_on_int;
    Alcotest.test_case "verifier: float xor ok" `Quick test_verifier_allows_float_xor;
    Alcotest.test_case "verifier: shuffle bounds" `Quick test_verifier_shuffle_bounds;
    Alcotest.test_case "linker: duplicate symbol" `Quick test_verifier_duplicate_symbol;
  ]

(* ---- parser round trips ---- *)

let roundtrip m =
  let s1 = Printer.modul_to_string m in
  let m2 = Parser.parse s1 in
  let s2 = Printer.modul_to_string m2 in
  check_string "print/parse/print fixpoint" s1 s2;
  (match Verifier.verify m2 with
  | Ok () -> ()
  | Error es -> Alcotest.failf "parsed module ill-formed: %s" (String.concat "; " es))

let test_parser_roundtrip_simple () = roundtrip (build_simple ())

let test_parser_roundtrip_workload () =
  let m = (Workloads.Registry.find "linreg").Workloads.Workload.build Workloads.Workload.Tiny in
  roundtrip m

let test_parser_roundtrip_hardened () =
  let m = (Workloads.Registry.find "wc").Workloads.Workload.build Workloads.Workload.Tiny in
  roundtrip (Elzar.prepare (Elzar.Hardened Elzar.Harden_config.default) m);
  roundtrip (Elzar.prepare Elzar.Swiftr m);
  roundtrip (Elzar.prepare (Elzar.Hardened Elzar.Harden_config.future_avx) m)

let test_parser_roundtrip_vectorized () =
  let m = (Workloads.Registry.find "smatch").Workloads.Workload.build Workloads.Workload.Tiny in
  roundtrip (Elzar.prepare Elzar.Native m)

let test_parsed_module_runs () =
  let m = build_simple () in
  (* wrap in a runnable main *)
  let b, _ = Builder.func m ~hardened:false "main" [ ("n", Types.i64) ] in
  let r = Builder.callv b ~ret:Types.i64 "f" [ Builder.i64c 41 ] in
  Builder.call0 b "output_i64" [ r ];
  Builder.ret b None;
  let m2 = Parser.parse (Printer.modul_to_string m) in
  let out1 = (Cpu.Machine.run_module m "main" ~args:[| 0L |]).Cpu.Machine.output_bytes in
  let out2 = (Cpu.Machine.run_module m2 "main" ~args:[| 0L |]).Cpu.Machine.output_bytes in
  check_string "parsed module computes the same" out1 out2

let test_parser_rejects_garbage () =
  check_bool "bad input raises" true
    (try
       ignore (Parser.parse "define banana @f() {\nentry:\n  ret void\n}");
       false
     with Parser.Parse_error _ -> true)

let tests =
  tests
  @ [
      Alcotest.test_case "parser: roundtrip simple" `Quick test_parser_roundtrip_simple;
      Alcotest.test_case "parser: roundtrip workload" `Quick test_parser_roundtrip_workload;
      Alcotest.test_case "parser: roundtrip hardened" `Quick test_parser_roundtrip_hardened;
      Alcotest.test_case "parser: roundtrip vectorized" `Quick test_parser_roundtrip_vectorized;
      Alcotest.test_case "parser: parsed module runs" `Quick test_parsed_module_runs;
      Alcotest.test_case "parser: rejects garbage" `Quick test_parser_rejects_garbage;
    ]

(* ---- the verifier against its oracle ---- *)

(* Random modules for the verifier: a function [f] plus a callee.  One in
   five functions has hundreds of blocks, so label tables of any initial
   size must grow.  Labels repeat (some twice, some three times or more)
   and branch targets include unknown labels.  Half of the functions are
   typed: every register id has one type and each instruction is
   well-typed, so that their errors are label errors or reads before any
   definition (the definite-assignment check runs only on functions free
   of other errors).  The rest draw types, register ids (negative ones and
   ids past [next_reg] included), lanes, casts and shapes at random. *)
let gen_verifier_module : Instr.modul QCheck.Gen.t =
  let open QCheck.Gen in
  let* big = frequency [ (4, return false); (1, return true) ] in
  let* nblocks = if big then int_range 100 400 else int_range 0 8 in
  let* typed = bool in
  (* most typed functions have unique, known labels, so that the
     definite-assignment check runs *)
  let* clean = if typed then frequency [ (3, return true); (1, return false) ] else return false in
  let* next_reg = int_range 1 16 in
  let label =
    let* k = int_range 0 (if big then nblocks + 2 else max 0 (nblocks - 1)) in
    return (Printf.sprintf "b%d" k)
  in
  let target =
    if clean then map (Printf.sprintf "b%d") (int_range 0 (max 0 (nblocks - 1)))
    else frequency [ (12, label); (1, return "nowhere") ]
  in
  let vty s n = Types.Vector (s, n) in
  let tys =
    Types.[ i64; i32; i1; f64; ptr; vty I64 4; vty F64 4; vty I32 8; vty Ptr 4 ]
  in
  let typed_ty rid = if rid mod 3 = 0 then Types.i1 else Types.i64 in
  let reg_of rid ty = { Instr.rid; rname = Printf.sprintf "r%d" rid; rty = ty } in
  let rid = if typed then int_range 0 (next_reg - 1) else int_range (-1) (next_reg + 2) in
  let reg =
    let* k = rid in
    if typed then return (reg_of k (typed_ty k))
    else map (reg_of k) (oneofl tys)
  in
  (* a typed register of type [ty] *)
  let typed_reg ty =
    let* k = int_range 0 (next_reg - 1) in
    let k =
      if Types.equal ty Types.i1 then k - (k mod 3)
      else if k mod 3 <> 0 then k
      else if k + 1 < next_reg then k + 1
      else k - 1
    in
    return (reg_of k ty)
  in
  let operand =
    if typed then
      frequency
        [ (4, map (fun r -> Instr.Reg r) (typed_reg Types.i64)); (1, return (Instr.Imm (Types.i64, 7L))) ]
    else
      frequency
        [
          (5, map (fun r -> Instr.Reg r) reg);
          (1, map (fun t -> Instr.Imm (t, 1L)) (oneofl tys));
          (1, map (fun t -> Instr.Fimm (t, 0.5)) (oneofl tys));
          (1, return (Instr.Glob "g"));
          (1, return (Instr.Fref "callee"));
        ]
  in
  let args = list_size (int_range 0 3) operand in
  let instr =
    if typed then
      frequency
        [
          (3, map2 (fun d a -> Instr.Mov (d, a)) (typed_reg Types.i64) operand);
          (3, map3 (fun d a b -> Instr.Binop (d, Instr.Add, a, b)) (typed_reg Types.i64) operand operand);
          (2, map3 (fun d a b -> Instr.Icmp (d, Instr.Islt, a, b)) (typed_reg Types.i1) operand operand);
          (1, map (fun a -> Instr.Store (a, Instr.Glob "g")) operand);
          ( 1,
            map2
              (fun d a -> Instr.Call (Some d, "callee", [ a; Instr.Glob "g" ]))
              (typed_reg Types.i64) operand );
        ]
    else
      frequency
        [
          (3, map2 (fun d a -> Instr.Mov (d, a)) reg operand);
          (2, map3 (fun d a b -> Instr.Binop (d, Instr.Add, a, b)) reg operand operand);
          (1, map3 (fun d a b -> Instr.Binop (d, Instr.Xor, a, b)) reg operand operand);
          (1, map3 (fun d a b -> Instr.Fbinop (d, Instr.Fmul, a, b)) reg operand operand);
          (1, map3 (fun d a b -> Instr.Icmp (d, Instr.Ieq, a, b)) reg operand operand);
          (1, map3 (fun d a b -> Instr.Fcmp (d, Instr.Folt, a, b)) reg operand operand);
          ( 1,
            map3 (fun d c (a, b) -> Instr.Select (d, c, a, b)) reg operand (pair operand operand) );
          ( 1,
            map3
              (fun d k a -> Instr.Cast (d, k, a))
              reg
              (oneofl Instr.[ Trunc; Zext; Sext; Fptosi; Sitofp; Fpext; Fptrunc; Bitcast ])
              operand );
          (1, map2 (fun d a -> Instr.Load (d, a)) reg operand);
          (1, map2 (fun v a -> Instr.Store (v, a)) operand operand);
          (1, map2 (fun d n -> Instr.Alloca (d, n)) reg (int_range (-1) 16));
          (1, map3 (fun d n a -> Instr.Call (d, n, a)) (opt reg) (oneofl [ "callee"; "putc" ]) args);
          ( 1,
            map3 (fun d f a -> Instr.Call_ind (d, Some Types.i64, f, a)) (opt reg) operand args );
          (1, map3 (fun d a x -> Instr.Atomic_rmw (d, Instr.Rmw_add, a, x)) reg operand operand);
          ( 1,
            map3 (fun d a (e, x) -> Instr.Cmpxchg (d, a, e, x)) reg operand (pair operand operand) );
          (1, map3 (fun d v l -> Instr.Extractlane (d, v, l)) reg operand (int_range (-1) 8));
          ( 1,
            map3
              (fun d (v, l) x -> Instr.Insertlane (d, v, l, x))
              reg
              (pair operand (int_range (-1) 8))
              operand );
          (1, map2 (fun d x -> Instr.Broadcast (d, x)) reg operand);
          ( 1,
            map3
              (fun d v p -> Instr.Shuffle (d, v, Array.of_list p))
              reg operand
              (list_size (int_range 0 9) (int_range (-1) 8)) );
          (1, map2 (fun d v -> Instr.Ptestz (d, v)) reg operand);
          (1, map2 (fun d a -> Instr.Gather (d, a)) reg operand);
          (1, map2 (fun v a -> Instr.Scatter (v, a)) operand operand);
        ]
  in
  (* registers outside [0, next_reg) that only terminators read, or only
     parameters name, are not range-checked: the definite-assignment check
     must still cover them *)
  let stray = oneofl [ -1; next_reg + 64 ] in
  let cond =
    if typed then
      frequency
        [
          (8, map (fun r -> Instr.Reg r) (typed_reg Types.i1));
          (1, map (fun k -> Instr.Reg (reg_of k Types.i1)) stray);
        ]
    else operand
  in
  let term =
    frequency
      [
        (1, return (Instr.Ret None));
        (if typed then (0, return Instr.Unreachable) else (1, map (fun o -> Instr.Ret (Some o)) operand));
        (3, map (fun l -> Instr.Br l) target);
        (4, map3 (fun c a b -> Instr.Cond_br (c, a, b)) cond target target);
        ( (if typed then 0 else 1),
          map2 (fun c (a, b, x) -> Instr.Vbr (c, a, b, x)) operand (triple target target target) );
        ((if typed then 0 else 1), map3 (fun c a b -> Instr.Vbr_unchecked (c, a, b)) operand target target);
        (1, return Instr.Unreachable);
      ]
  in
  let block =
    map2 (fun instrs term -> { Instr.instrs; term }) (list_size (int_range 0 5) instr) term
  in
  let* blocks = list_repeat nblocks block in
  (* big functions: layout labels b0, b1, ... with a few repeats of earlier
     ones; small ones draw every label from a pool of their own size *)
  let* labels =
    if clean then return (List.init nblocks (Printf.sprintf "b%d"))
    else if big then
      flatten_l
        (List.init nblocks (fun i ->
             frequency
               [ (30, return (Printf.sprintf "b%d" i)); (1, map (Printf.sprintf "b%d") (int_range 0 i)) ]))
    else list_repeat nblocks label
  in
  let* nparams = int_range 0 (min 2 next_reg) in
  let* params =
    list_repeat nparams
      (if typed then
         frequency [ (6, typed_reg Types.i64); (1, map (fun k -> reg_of k Types.i64) stray) ]
       else reg)
  in
  let* loops =
    if typed then return []
    else
      map
        (fun ivar ->
          [
            {
              Instr.l_header = "b0";
              l_body = "b1";
              l_latch = "b2";
              l_exit = "b3";
              l_ivar = ivar;
              l_lo = Instr.Imm (Types.i64, 0L);
              l_hi = Instr.Imm (Types.i64, 4L);
            };
          ])
        (map (fun k -> reg_of k Types.i64) (int_range 0 (next_reg + 4)))
  in
  let f =
    {
      Instr.fname = "f";
      params;
      ret_ty = None;
      blocks = List.combine labels blocks;
      next_reg;
      loops;
      hardened = true;
    }
  in
  let p0 = reg_of 0 Types.i64 and p1 = reg_of 1 Types.ptr in
  let callee =
    {
      Instr.fname = "callee";
      params = [ p0; p1 ];
      ret_ty = Some Types.i64;
      blocks = [ ("entry", { Instr.instrs = []; term = Instr.Ret (Some (Instr.Reg p0)) }) ];
      next_reg = 2;
      loops = [];
      hardened = true;
    }
  in
  return { Instr.funcs = [ f; callee ]; globals = [ { Instr.gname = "g"; gsize = 8; ginit = None } ] }

let prop_verifier_matches_oracle =
  QCheck.Test.make ~count:400 ~name:"verifier reports the oracle's errors, in order"
    (QCheck.make ~print:Printer.modul_to_string gen_verifier_module)
    (fun m -> Verifier.verify m = Verifier_oracle.verify m)

let tests = tests @ [ QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_verifier_matches_oracle ]

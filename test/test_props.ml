(* Property-based differential testing: random straight-line programs over
   integers, floats, booleans and a scratch buffer must produce bit-identical
   output under every build flavour (the hardening passes and the vectorizer
   are semantics-preserving by construction). *)

open Ir

type pools = {
  b : Builder.t;
  mutable i64s : Instr.operand list;
  mutable i32s : Instr.operand list;
  mutable f64s : Instr.operand list;
  mutable i1s : Instr.operand list;
}

let pick xs k = List.nth xs (k mod List.length xs)
let push_i64 p v = if List.length p.i64s < 24 then p.i64s <- v :: p.i64s
let push_i32 p v = if List.length p.i32s < 16 then p.i32s <- v :: p.i32s
let push_f64 p v = if List.length p.f64s < 16 then p.f64s <- v :: p.f64s
let push_i1 p v = if List.length p.i1s < 8 then p.i1s <- v :: p.i1s

(* interprets one opcode (a random int) against the pools *)
let step (p : pools) (code : int) =
  let b = p.b in
  let open Builder in
  let k1 = code / 23 and k2 = code / 577 in
  let x = pick p.i64s k1 and y = pick p.i64s k2 in
  match code mod 20 with
  | 0 -> push_i64 p (add b x y)
  | 1 -> push_i64 p (sub b x y)
  | 2 -> push_i64 p (mul b x y)
  | 3 ->
      (* force a nonzero denominator *)
      push_i64 p (sdiv b x (or_ b y (i64c 1)))
  | 4 -> push_i64 p (xor b x y)
  | 5 -> push_i64 p (shl b x (and_ b y (i64c 63)))
  | 6 -> push_i1 p (icmp b Instr.Islt x y)
  | 7 -> push_i64 p (select b (pick p.i1s k1) x y)
  | 8 -> push_i64 p (zext b Types.i64 (pick p.i1s k2))
  | 9 -> push_i32 p (trunc b Types.i32 x)
  | 10 -> push_i64 p (sext b Types.i64 (pick p.i32s k1))
  | 11 ->
      let a = pick p.f64s k1 and c = pick p.f64s k2 in
      push_f64 p (fadd b a c)
  | 12 ->
      let a = pick p.f64s k1 and c = pick p.f64s k2 in
      push_f64 p (fmul b a c)
  | 13 ->
      let a = pick p.f64s k1 and c = pick p.f64s k2 in
      push_f64 p (fdiv b a c)
  | 14 ->
      let a = pick p.f64s k1 and c = pick p.f64s k2 in
      push_i1 p (fcmp b Instr.Folt a c)
  | 15 ->
      let a = pick p.f64s k1 and c = pick p.f64s k2 in
      push_f64 p (select b (pick p.i1s k2) a c)
  | 16 -> push_f64 p (sitofp b Types.f64 x)
  | 17 ->
      (* clamp before fptosi so Int64.of_float stays defined *)
      let v = pick p.f64s k1 in
      let inr =
        and_ b
          (zext b Types.i64 (fcmp b Instr.Folt v (f64c 1e9)))
          (zext b Types.i64 (fcmp b Instr.Fogt v (f64c (-1e9))))
      in
      let safe = select b (icmp b Instr.Ine inr (i64c 0)) v (f64c 0.0) in
      push_i64 p (fptosi b Types.i64 safe)
  | 18 ->
      let addr = gep b (Instr.Glob "scratch") (and_ b x (i64c 63)) 8 in
      push_i64 p (load b Types.i64 addr)
  | 19 ->
      let addr = gep b (Instr.Glob "scratch") (and_ b y (i64c 63)) 8 in
      store b x addr
  | _ -> assert false

let build_random (codes : int list) : Instr.modul =
  let m = Builder.create_module () in
  Builder.global m "scratch" 1024;
  let b, ps = Builder.func m "kernel" [ ("a", Types.i64); ("c", Types.i64) ] in
  let a, c = match ps with [ a; c ] -> (Instr.Reg a, Instr.Reg c) | _ -> assert false in
  let open Builder in
  let p =
    {
      b;
      i64s = [ a; c; i64c 7; i64c (-3); Instr.Imm (Types.i64, 0x123456789ABCDEFL) ];
      i32s = [ i32c 5; i32c (-9) ];
      f64s = [ f64c 1.5; f64c (-0.25); f64c 3.25 ];
      i1s = [ i1c true; i1c false ];
    }
  in
  List.iter (fun code -> step p (abs code)) codes;
  (* fold everything into the output stream *)
  let acc = fresh b ~name:"acc" Types.i64 in
  assign b acc (i64c 0);
  List.iter (fun o -> assign b acc (xor b (Reg acc) o)) p.i64s;
  List.iter (fun o -> assign b acc (xor b (Reg acc) (sext b Types.i64 o))) p.i32s;
  List.iter
    (fun o -> assign b acc (xor b (Reg acc) (cast b Instr.Bitcast Types.i64 o)))
    p.f64s;
  List.iter (fun o -> assign b acc (xor b (Reg acc) (zext b Types.i64 o))) p.i1s;
  call0 b "output_i64" [ Reg acc ];
  (* and dump the scratch buffer to catch store divergence *)
  for_ b ~lo:(i64c 0) ~hi:(i64c 64) (fun i ->
      call0 b "output_i64" [ load b Types.i64 (gep b (Instr.Glob "scratch") i 8) ]);
  ret b None;
  let b, ps = Builder.func m ~hardened:false "main" [ ("n", Types.i64) ] in
  let n = match ps with [ n ] -> Instr.Reg n | _ -> assert false in
  call0 b "kernel" [ n; i64c 99 ];
  ret b None;
  m

let builds =
  [
    Elzar.Native;
    Elzar.Hardened Elzar.Harden_config.default;
    Elzar.Hardened Elzar.Harden_config.no_checks;
    Elzar.Hardened { Elzar.Harden_config.default with recovery = Elzar.Harden_config.Extended };
    Elzar.Hardened Elzar.Harden_config.future_avx;
    Elzar.Swiftr;
    Elzar.Swiftr_norepair;
  ]

let differential codes =
  let m = build_random codes in
  Verifier.verify_exn m;
  let run b =
    let prepared = Elzar.prepare b m in
    let cfg = { Cpu.Machine.default_config with max_instrs = 2_000_000 } in
    let machine = Elzar.machine ~cfg b prepared in
    let r = Cpu.Machine.run ~args:[| 42L |] machine "main" in
    match r.Cpu.Machine.trap with
    | Some t ->
        QCheck.Test.fail_reportf "%s trapped: %s" (Elzar.build_name b)
          (Cpu.Machine.string_of_trap t)
    | None -> r.Cpu.Machine.output_bytes
  in
  let reference = run Elzar.Native_novec in
  List.for_all
    (fun b ->
      let out = run b in
      if out <> reference then
        QCheck.Test.fail_reportf "%s diverges from novec" (Elzar.build_name b)
      else true)
    builds

let gen_codes = QCheck.(list_of_size (Gen.int_range 5 45) (int_bound 1_000_000))

let prop_differential =
  QCheck.Test.make ~count:40 ~name:"random programs: all builds agree" gen_codes differential

(* a second property: hardened builds execute MORE instructions, never fewer *)
let prop_hardening_costs =
  QCheck.Test.make ~count:15 ~name:"hardening never reduces instruction count" gen_codes
    (fun codes ->
      let m = build_random codes in
      Verifier.verify_exn m;
      let instrs b =
        let prepared = Elzar.prepare b m in
        let machine = Cpu.Machine.create prepared in
        let r = Cpu.Machine.run ~args:[| 42L |] machine "main" in
        r.Cpu.Machine.totals.Cpu.Counters.instrs
      in
      let n = instrs Elzar.Native_novec in
      instrs (Elzar.Hardened Elzar.Harden_config.default) >= n && instrs Elzar.Swiftr >= n)

let tests =
  List.map QCheck_alcotest.to_alcotest [ prop_differential; prop_hardening_costs ]

(* parser round trip over the same random programs *)
let prop_parser_roundtrip =
  QCheck.Test.make ~count:25 ~name:"parser: print/parse/print fixpoint" gen_codes
    (fun codes ->
      let m = build_random codes in
      Verifier.verify_exn m;
      let s1 = Printer.modul_to_string m in
      let s2 = Printer.modul_to_string (Parser.parse s1) in
      if s1 <> s2 then QCheck.Test.fail_reportf "round trip diverged" else true)

(* the optimizer alone preserves behaviour (the differential property runs
   it inside every build; this isolates it) *)
let prop_optimizer_sound =
  QCheck.Test.make ~count:25 ~name:"optimizer: output unchanged" gen_codes
    (fun codes ->
      let m = build_random codes in
      let opt = Linker.copy m in
      ignore (Elzar.Optimize.run opt);
      Verifier.verify_exn opt;
      let out mm = (Cpu.Machine.run_module mm "main" ~args:[| 42L |]).Cpu.Machine.output_bytes in
      out m = out opt)

let tests =
  tests
  @ List.map QCheck_alcotest.to_alcotest [ prop_parser_roundtrip; prop_optimizer_sound ]

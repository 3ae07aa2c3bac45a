(* Unit tests of the scalar optimizer. *)

open Ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let count_instrs (f : Instr.func) =
  List.fold_left (fun a (_, (b : Instr.block)) -> a + List.length b.Instr.instrs) 0 f.Instr.blocks

let with_func mk =
  let m = Builder.create_module () in
  Builder.global m "g" 64;
  let b, ps = Builder.func m "f" [ ("x", Types.i64) ] ~ret:Types.i64 in
  let x = match ps with [ p ] -> Instr.Reg p | _ -> assert false in
  mk b x;
  (m, Option.get (Instr.find_func m "f"))

let test_constant_folding () =
  let m, f =
    with_func (fun b x ->
        let open Builder in
        (* (2+3)*4 folds to 20 *)
        let c = mul b (add b (i64c 2) (i64c 3)) (i64c 4) in
        ret b (Some (add b x c)))
  in
  ignore (Elzar.Optimize.run m);
  Verifier.verify_exn m;
  let has_imm20 =
    List.exists
      (fun (_, (blk : Instr.block)) ->
        List.exists
          (function
            | Instr.Binop (_, Instr.Add, _, Instr.Imm (_, 20L))
            | Instr.Binop (_, Instr.Add, Instr.Imm (_, 20L), _) ->
                true
            | _ -> false)
          blk.Instr.instrs)
      f.Instr.blocks
  in
  check_bool "constant chain folded to 20" true has_imm20

let test_dce_removes_unused () =
  let m, f =
    with_func (fun b x ->
        let open Builder in
        ignore (mul b x (i64c 3));  (* dead *)
        ignore (xor b x (i64c 5));  (* dead *)
        ret b (Some x))
  in
  ignore (Elzar.Optimize.run m);
  check_int "dead instructions removed" 0 (count_instrs f)

let test_dce_keeps_effects () =
  let m, f =
    with_func (fun b x ->
        let open Builder in
        ignore (load b Types.i64 (Instr.Glob "g"));  (* result unused, but a load *)
        store b x (Instr.Glob "g");
        call0 b "output_i64" [ x ];
        ret b (Some x))
  in
  ignore (Elzar.Optimize.run m);
  check_int "loads/stores/calls kept" 3 (count_instrs f)

let test_cse_merges () =
  let m, f =
    with_func (fun b x ->
        let open Builder in
        let a1 = add b x (i64c 7) in
        let a2 = add b x (i64c 7) in
        (* both used: the second collapses to a copy of the first and then
           propagates away *)
        ret b (Some (mul b a1 a2)))
  in
  ignore (Elzar.Optimize.run m);
  Verifier.verify_exn m;
  check_int "one add + one mul remain" 2 (count_instrs f)

let test_cse_respects_redefinition () =
  let m, _ =
    with_func (fun b x ->
        let open Builder in
        let acc = fresh b ~name:"acc" Types.i64 in
        assign b acc x;
        let a1 = add b (Instr.Reg acc) (i64c 1) in
        assign b acc a1;
        (* not the same value: acc changed in between *)
        let a2 = add b (Instr.Reg acc) (i64c 1) in
        ret b (Some a2))
  in
  ignore (Elzar.Optimize.run m);
  Verifier.verify_exn m;
  let r = Cpu.Machine.run_module m "f" ~args:[| 10L |] in
  check_bool "no trap" true (r.Cpu.Machine.trap = None)

let test_copyprop_through_mov () =
  let m, f =
    with_func (fun b x ->
        let open Builder in
        let t = mov b x in
        let u = mov b t in
        ret b (Some (add b u (i64c 1))))
  in
  ignore (Elzar.Optimize.run m);
  check_int "mov chain collapsed" 1 (count_instrs f)

(* the optimizer must preserve semantics on every workload (cheap smoke on
   top of the full differential property suite) *)
let test_semantics_preserved () =
  let w = Workloads.Registry.find "wc" in
  let m = w.Workloads.Workload.build Workloads.Workload.Tiny in
  let raw = Ir.Linker.copy m in
  let opt = Ir.Linker.copy m in
  let stats = Elzar.Optimize.run opt in
  check_bool "optimizer did something" true
    (stats.Elzar.Optimize.dce_removed + stats.Elzar.Optimize.cse_hits
     + stats.Elzar.Optimize.propagated + stats.Elzar.Optimize.folded
    > 0);
  Verifier.verify_exn opt;
  let run mm =
    let machine = Cpu.Machine.create mm in
    w.Workloads.Workload.init Workloads.Workload.Tiny machine;
    (Cpu.Machine.run ~args:[| 2L |] machine "main").Cpu.Machine.output_bytes
  in
  Alcotest.(check string) "same output" (run raw) (run opt)

let tests =
  [
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "DCE removes unused" `Quick test_dce_removes_unused;
    Alcotest.test_case "DCE keeps effects" `Quick test_dce_keeps_effects;
    Alcotest.test_case "CSE merges duplicates" `Quick test_cse_merges;
    Alcotest.test_case "CSE respects redefinition" `Quick test_cse_respects_redefinition;
    Alcotest.test_case "copy propagation" `Quick test_copyprop_through_mov;
    Alcotest.test_case "semantics preserved" `Quick test_semantics_preserved;
  ]

let test_licm_hoists () =
  let m = Builder.create_module () in
  Builder.global m "g" 64;
  let b, ps = Builder.func m "f" [ ("x", Types.i64) ] ~ret:Types.i64 in
  let x = match ps with [ p ] -> Instr.Reg p | _ -> assert false in
  let open Builder in
  let acc = fresh b ~name:"acc" Types.i64 in
  assign b acc (i64c 0);
  for_ b ~lo:(i64c 0) ~hi:(i64c 50) (fun i ->
      (* x*13+5 is loop-invariant; i*x is not *)
      let inv = add b (mul b x (i64c 13)) (i64c 5) in
      assign b acc (add b (Instr.Reg acc) (add b inv (mul b i x))));
  ret b (Some (Instr.Reg acc));
  Verifier.verify_exn m;
  let f = Option.get (Instr.find_func m "f") in
  (* dependent invariants hoist across successive sweeps *)
  let hoisted = Elzar.Optimize.licm f + Elzar.Optimize.licm f in
  Verifier.verify_exn m;
  check_bool "hoisted the invariant chain" true (hoisted >= 2);
  (* and semantics are intact *)
  let r = Cpu.Machine.run_module m "f" ~args:[| 3L |] in
  check_bool "no trap" true (r.Cpu.Machine.trap = None)

let test_licm_leaves_divisions () =
  let m = Builder.create_module () in
  let b, ps = Builder.func m "f" [ ("x", Types.i64) ] ~ret:Types.i64 in
  let x = match ps with [ p ] -> Instr.Reg p | _ -> assert false in
  let open Builder in
  let acc = fresh b ~name:"acc" Types.i64 in
  assign b acc (i64c 0);
  (* zero-trip loop containing a division by x (= 0 at runtime): hoisting
     it would introduce a trap the original never has *)
  for_ b ~lo:(i64c 5) ~hi:(i64c 5) (fun _ ->
      assign b acc (sdiv b (i64c 100) x));
  ret b (Some (Instr.Reg acc));
  Verifier.verify_exn m;
  ignore (Elzar.Optimize.run m);
  let r = Cpu.Machine.run_module m "f" ~args:[| 0L |] in
  check_bool "division not speculated" true (r.Cpu.Machine.trap = None)

let tests =
  tests
  @ [
      Alcotest.test_case "LICM hoists invariants" `Quick test_licm_hoists;
      Alcotest.test_case "LICM never speculates divisions" `Quick test_licm_leaves_divisions;
    ]

(* ---- pinned block-local semantics, on hand-built single-block functions ---- *)

let reg k = { Instr.rid = k; rname = Printf.sprintf "r%d" k; rty = Types.i64 }
let r k = Instr.Reg (reg k)
let imm v = Instr.Imm (Types.i64, Int64.of_int v)
let add d a b = Instr.Binop (reg d, Instr.Add, a, b)
let mov d a = Instr.Mov (reg d, a)

(* @f(r0, r1) with one block; registers r0..r9 *)
let one_block instrs term : Instr.func =
  {
    Instr.fname = "f";
    params = [ reg 0; reg 1 ];
    ret_ty = Some Types.i64;
    blocks = [ ("entry", { Instr.instrs; term }) ];
    next_reg = 10;
    loops = [];
    hardened = true;
  }

let check_block name (want : Instr.t list) (f : Instr.func) =
  let got = match f.Instr.blocks with [ (_, b) ] -> b.Instr.instrs | _ -> assert false in
  Alcotest.(check (list string)) name
    (List.map Printer.string_of_instr want)
    (List.map Printer.string_of_instr got)

let test_copyprop_source_redefined () =
  let f =
    one_block
      [ mov 2 (r 0); add 3 (r 2) (imm 2); add 0 (r 0) (imm 1); add 4 (r 2) (imm 1) ]
      (Instr.Ret (Some (r 4)))
  in
  check_int "one substitution" 1 (Elzar.Optimize.copy_propagate f);
  (* r2 = r0 holds until r0 is redefined; after that r2 must stay *)
  check_block "copy killed by a write to its source"
    [ mov 2 (r 0); add 3 (r 0) (imm 2); add 0 (r 0) (imm 1); add 4 (r 2) (imm 1) ]
    f

let test_copyprop_dest_recopied () =
  let f =
    one_block
      [
        mov 3 (r 0);
        add 4 (r 3) (imm 1);
        mov 3 (r 1);
        add 0 (r 0) (imm 5);
        add 5 (r 3) (imm 1);
        add 1 (r 1) (imm 1);
        add 6 (r 3) (imm 1);
      ]
      (Instr.Ret (Some (r 6)))
  in
  check_int "two substitutions" 2 (Elzar.Optimize.copy_propagate f);
  (* r3 is copied from r0, then from r1: a write to the old source r0
     leaves the new copy alone, a write to r1 kills it *)
  check_block "the latest copy is the one in force"
    [
      mov 3 (r 0);
      add 4 (r 0) (imm 1);
      mov 3 (r 1);
      add 0 (r 0) (imm 5);
      add 5 (r 1) (imm 1);
      add 1 (r 1) (imm 1);
      add 6 (r 3) (imm 1);
    ]
    f

let test_cse_falls_back_to_older () =
  let f =
    one_block
      [
        add 2 (r 0) (r 1);
        add 3 (r 0) (r 1);
        Instr.Binop (reg 3, Instr.Mul, r 0, imm 7);
        add 4 (r 0) (r 1);
      ]
      (Instr.Ret (Some (r 4)))
  in
  check_int "two hits" 2 (Elzar.Optimize.local_cse f);
  (* r3 becomes the newest holder of r0+r1, then is overwritten: the next
     r0+r1 reuses the older holder r2 *)
  check_block "older entry survives the newest's invalidation"
    [ add 2 (r 0) (r 1); mov 3 (r 2); Instr.Binop (reg 3, Instr.Mul, r 0, imm 7); mov 4 (r 2) ]
    f

let test_cse_self_update_not_available () =
  let f =
    one_block [ add 1 (r 1) (imm 1); add 2 (r 1) (imm 1) ] (Instr.Ret (Some (r 2)))
  in
  check_int "no hits" 0 (Elzar.Optimize.local_cse f);
  (* after r1 = r1+1 the key r1+1 names the new r1: r2 is r1+2 in terms of
     the entry value, not a copy of r1 *)
  check_block "self-update is not an available value"
    [ add 1 (r 1) (imm 1); add 2 (r 1) (imm 1) ]
    f

let tests =
  tests
  @ [
      Alcotest.test_case "copy propagation: source redefined" `Quick
        test_copyprop_source_redefined;
      Alcotest.test_case "copy propagation: destination re-copied" `Quick
        test_copyprop_dest_recopied;
      Alcotest.test_case "CSE falls back to an older entry" `Quick test_cse_falls_back_to_older;
      Alcotest.test_case "CSE: a self-update is not available" `Quick
        test_cse_self_update_not_available;
    ]

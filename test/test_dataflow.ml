(* Dataflow analysis tests: definite assignment, liveness, and the
   register-pressure story that the infinite-register simulator would
   otherwise hide (real SWIFT-R triples live values). *)

open Ir

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_verify_defs_catches_undefined () =
  (* if/else where one arm forgets to assign *)
  let m = Builder.create_module () in
  let b, ps = Builder.func m "f" [ ("x", Types.i64) ] ~ret:Types.i64 in
  let x = match ps with [ p ] -> Instr.Reg p | _ -> assert false in
  let open Builder in
  let r = fresh b ~name:"r" Types.i64 in
  if_ b
    (icmp b Instr.Isgt x (i64c 0))
    ~then_:(fun () -> assign b r x)
    ();
  (* r undefined when the branch is not taken *)
  ret b (Some (Instr.Reg r));
  match Verifier.verify m with
  | Ok () -> Alcotest.fail "undefined-register path not caught"
  | Error es ->
      check_bool "mentions definite assignment" true
        (List.exists (fun e -> String.length e > 0) es)

let test_verify_defs_accepts_diamond () =
  let m = Builder.create_module () in
  let b, ps = Builder.func m "f" [ ("x", Types.i64) ] ~ret:Types.i64 in
  let x = match ps with [ p ] -> Instr.Reg p | _ -> assert false in
  let open Builder in
  let r = fresh b ~name:"r" Types.i64 in
  if_ b
    (icmp b Instr.Isgt x (i64c 0))
    ~then_:(fun () -> assign b r x)
    ~else_:(fun () -> assign b r (i64c 0))
    ();
  ret b (Some (Instr.Reg r));
  check_bool "both arms assign: accepted" true (Verifier.verify m = Ok ())

let test_liveness_simple () =
  let m = Builder.create_module () in
  let b, ps = Builder.func m "f" [ ("x", Types.i64) ] ~ret:Types.i64 in
  let x = match ps with [ p ] -> Instr.Reg p | _ -> assert false in
  let open Builder in
  let t = add b x (i64c 1) in
  let u = mul b t t in
  ret b (Some u);
  let f = Option.get (Instr.find_func m "f") in
  let lv = Dataflow.liveness f in
  (* single block: nothing live out of the exit *)
  check_int "nothing live out" 0 (Dataflow.Regset.cardinal lv.Dataflow.live_out.(0));
  check_bool "param live in" true
    (Dataflow.Regset.mem 0 lv.Dataflow.live_in.(0))

let test_pressure_monotone_under_swiftr () =
  let w = Workloads.Registry.find "linreg" in
  let m = w.Workloads.Workload.build Workloads.Workload.Tiny in
  let pressure build name =
    let p = Elzar.prepare build m in
    Dataflow.max_pressure (Option.get (Instr.find_func p name))
  in
  let native = pressure Elzar.Native_novec "work" in
  let swiftr = pressure Elzar.Swiftr "work" in
  let elzar = pressure (Elzar.Hardened Elzar.Harden_config.default) "work" in
  check_bool "SWIFT-R pressure well above native (spills on a 16-reg ISA)" true
    (swiftr > 2 * native);
  (* ELZAR replicates data, not registers: pressure stays in the same
     ballpark as native (the paper's rationale for the approach) *)
  check_bool "ELZAR pressure below SWIFT-R" true (elzar < swiftr);
  check_bool "native pressure plausible" true (native > 4 && native < 64)

let test_cfg_shape () =
  let m = Builder.create_module () in
  let b, _ = Builder.func m "f" [] in
  let open Builder in
  for_ b ~lo:(i64c 0) ~hi:(i64c 4) (fun _ -> ());
  ret b None;
  let f = Option.get (Instr.find_func m "f") in
  let cfg = Dataflow.build_cfg f in
  (* entry, head, body, latch, exit *)
  check_int "five blocks" 5 (Array.length cfg.Dataflow.labels);
  let head = Dataflow.Labels.find cfg.Dataflow.index "for.head1" in
  check_int "loop header has two predecessors" 2 (List.length cfg.Dataflow.preds.(head))

(* ---- the Set-based analyses as oracles ---- *)

(* The definite-assignment and liveness analyses as they were written over
   [Set.Make (Int)], kept here as the reference the bitset versions must
   agree with exactly (same errors in the same order, same sets). *)
module Oracle = struct
  open Instr
  module Iset = Set.Make (Int)

  let uses_of_instr i = List.filter_map (function Reg r -> Some r.rid | _ -> None) (operands i)
  let defs_of_instr i = match dest i with Some r -> [ r.rid ] | None -> []
  let uses_of_term t = List.filter_map (function Reg r -> Some r.rid | _ -> None) (term_operands t)

  let verify_defs (f : func) : string list =
    let blocks = Array.of_list (List.map snd f.blocks) in
    let cfg = Dataflow.build_cfg f in
    let n = Array.length blocks in
    if n = 0 then []
    else begin
      let params = Iset.of_list (List.map (fun (r : reg) -> r.rid) f.params) in
      let gen = Array.make n Iset.empty in
      Array.iteri
        (fun i (b : block) ->
          gen.(i) <-
            List.fold_left
              (fun s instr -> List.fold_left (fun s d -> Iset.add d s) s (defs_of_instr instr))
              Iset.empty b.instrs)
        blocks;
      let reachable = Array.make n false in
      let rec visit i =
        if not reachable.(i) then begin
          reachable.(i) <- true;
          List.iter visit cfg.Dataflow.succs.(i)
        end
      in
      visit 0;
      let all = Array.fold_left (fun s g -> Iset.union s g) params gen in
      let entry_in = Array.make n all in
      entry_in.(0) <- params;
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iteri
          (fun i _ ->
            if reachable.(i) && i > 0 then begin
              let inter =
                match List.filter (fun p -> reachable.(p)) cfg.Dataflow.preds.(i) with
                | [] -> params
                | p :: rest ->
                    List.fold_left
                      (fun s q -> Iset.inter s (Iset.union entry_in.(q) gen.(q)))
                      (Iset.union entry_in.(p) gen.(p))
                      rest
              in
              if not (Iset.equal inter entry_in.(i)) then begin
                entry_in.(i) <- inter;
                changed := true
              end
            end)
          blocks
      done;
      let errors = ref [] in
      Array.iteri
        (fun i (b : block) ->
          if reachable.(i) then begin
            let defined = ref entry_in.(i) in
            List.iter
              (fun instr ->
                List.iter
                  (fun u ->
                    if not (Iset.mem u !defined) then
                      errors :=
                        Printf.sprintf "@%s: block %%%s reads register #%d before any definition"
                          f.fname cfg.Dataflow.labels.(i) u
                        :: !errors)
                  (uses_of_instr instr);
                List.iter (fun d -> defined := Iset.add d !defined) (defs_of_instr instr))
              b.instrs;
            List.iter
              (fun u ->
                if not (Iset.mem u !defined) then
                  errors :=
                    Printf.sprintf "@%s: terminator of %%%s reads register #%d before any definition"
                      f.fname cfg.Dataflow.labels.(i) u
                    :: !errors)
              (uses_of_term b.term)
          end)
        blocks;
      List.rev !errors
    end

  let liveness (f : func) : Iset.t array * Iset.t array =
    let blocks = Array.of_list (List.map snd f.blocks) in
    let cfg = Dataflow.build_cfg f in
    let n = Array.length blocks in
    let use = Array.make n Iset.empty and def = Array.make n Iset.empty in
    Array.iteri
      (fun i (b : block) ->
        let u = ref Iset.empty and d = ref Iset.empty in
        List.iter
          (fun instr ->
            List.iter (fun x -> if not (Iset.mem x !d) then u := Iset.add x !u) (uses_of_instr instr);
            List.iter (fun x -> d := Iset.add x !d) (defs_of_instr instr))
          b.instrs;
        List.iter (fun x -> if not (Iset.mem x !d) then u := Iset.add x !u) (uses_of_term b.term);
        use.(i) <- !u;
        def.(i) <- !d)
      blocks;
    let live_in = Array.make n Iset.empty and live_out = Array.make n Iset.empty in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = n - 1 downto 0 do
        let out =
          List.fold_left (fun s j -> Iset.union s live_in.(j)) Iset.empty cfg.Dataflow.succs.(i)
        in
        let inn = Iset.union use.(i) (Iset.diff out def.(i)) in
        if not (Iset.equal out live_out.(i)) || not (Iset.equal inn live_in.(i)) then begin
          live_out.(i) <- out;
          live_in.(i) <- inn;
          changed := true
        end
      done
    done;
    (live_in, live_out)

  let max_pressure (f : func) : int =
    let blocks = Array.of_list (List.map snd f.blocks) in
    let _, live_out = liveness f in
    let peak = ref 0 in
    Array.iteri
      (fun i (b : block) ->
        let live = ref live_out.(i) in
        peak := max !peak (Iset.cardinal !live);
        List.iter
          (fun instr ->
            List.iter (fun d -> live := Iset.remove d !live) (defs_of_instr instr);
            List.iter (fun u -> live := Iset.add u !live) (uses_of_instr instr);
            peak := max !peak (Iset.cardinal !live))
          (List.rev b.instrs))
      blocks;
    !peak
end

(* Random single-function CFGs: up to eight blocks whose terminators jump
   anywhere, the entry block included (so some blocks are unreachable and
   some edges are back edges into the entry); instructions read registers
   that may have no definition on some path, and register ids run up to
   [next_reg + 3]. *)
let gen_func : Instr.func QCheck.Gen.t =
  let open QCheck.Gen in
  let* nblocks = int_range 1 8 in
  let* next_reg = int_range 0 12 in
  let* nparams = int_range 0 (min 3 next_reg) in
  let reg k = { Instr.rid = k; rname = Printf.sprintf "r%d" k; rty = Types.i64 } in
  let rid = int_range 0 (next_reg + 3) in
  let operand = frequency [ (4, map (fun k -> Instr.Reg (reg k)) rid); (1, return (Instr.Imm (Types.i64, 1L))) ] in
  let instr =
    frequency
      [
        (3, map2 (fun d a -> Instr.Mov (reg d, a)) rid operand);
        (3, map3 (fun d a b -> Instr.Binop (reg d, Instr.Add, a, b)) rid operand operand);
        (1, map2 (fun a b -> Instr.Store (a, b)) operand operand);
      ]
  in
  let label = map (fun k -> Printf.sprintf "b%d" k) (int_range 0 (nblocks - 1)) in
  let term =
    frequency
      [
        (1, return (Instr.Ret None));
        (1, map (fun o -> Instr.Ret (Some o)) operand);
        (2, map (fun l -> Instr.Br l) label);
        (3, map3 (fun c a b -> Instr.Cond_br (c, a, b)) operand label label);
        (1, return Instr.Unreachable);
      ]
  in
  let block = map2 (fun instrs term -> { Instr.instrs; term }) (list_size (int_range 0 6) instr) term in
  let+ blocks = list_repeat nblocks block in
  {
    Instr.fname = "f";
    params = List.init nparams reg;
    ret_ty = None;
    blocks = List.mapi (fun i b -> (Printf.sprintf "b%d" i, b)) blocks;
    next_reg;
    loops = [];
    hardened = true;
  }

let arb_func = QCheck.make ~print:Printer.func_to_string gen_func

let prop_verify_defs_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"definite assignment agrees with the Set-based oracle" arb_func
    (fun f -> Dataflow.verify_defs f = Oracle.verify_defs f)

let prop_liveness_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"liveness and pressure agree with the Set-based oracle"
    arb_func (fun f ->
      let lv = Dataflow.liveness f in
      let oin, oout = Oracle.liveness f in
      let same mine theirs = Dataflow.Regset.elements mine = Oracle.Iset.elements theirs in
      Array.for_all2 same lv.Dataflow.live_in oin
      && Array.for_all2 same lv.Dataflow.live_out oout
      && Dataflow.max_pressure f = Oracle.max_pressure f)

let tests =
  [
    Alcotest.test_case "definite assignment: catches" `Quick test_verify_defs_catches_undefined;
    Alcotest.test_case "definite assignment: diamond ok" `Quick test_verify_defs_accepts_diamond;
    Alcotest.test_case "liveness basics" `Quick test_liveness_simple;
    Alcotest.test_case "register pressure: SWIFT-R vs ELZAR" `Quick
      test_pressure_monotone_under_swiftr;
    Alcotest.test_case "cfg construction" `Quick test_cfg_shape;
    QCheck_alcotest.to_alcotest prop_verify_defs_matches_oracle;
    QCheck_alcotest.to_alcotest prop_liveness_matches_oracle;
  ]

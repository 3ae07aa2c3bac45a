(** Classic scalar optimizations, run before vectorization and hardening in
    every build flavour — the paper plugs ELZAR in "after all optimization
    passes and right before assembly code generation" (§IV-A), so hardened
    code must not contain redundancies a real -O3 pipeline would have
    removed.

    All passes are conservative under the IR's non-SSA register model:
    copy propagation and CSE are block-local and invalidate on
    redefinition; dead-code elimination removes only pure instructions
    whose destination is never read anywhere in the function. *)

open Ir
open Instr

(* ---- constant folding ---- *)

let imm_of (o : operand) : (Types.t * int64) option =
  match o with
  | Imm (t, v) -> Some (t, v)
  | Fimm (t, v) -> Some (t, Cpu.Value.fencode (Types.elem t) v)
  | Reg _ | Glob _ | Fref _ -> None

let is_div = function Sdiv | Udiv | Srem | Urem -> true | _ -> false

(* evaluates one pure scalar instruction over constant operands; bit-exact
   via the machine's own value semantics *)
let fold_instr (i : t) : t option =
  let ( let* ) = Option.bind in
  match i with
  | Binop (r, op, a, b) when not (Types.is_vector r.rty) && not (is_div op) ->
      let* _, x = imm_of a in
      let* _, y = imm_of b in
      let s = Types.elem r.rty in
      Some (Mov (r, Imm (r.rty, Cpu.Value.binop (Cpu.Value.binop_desc s op) x y)))
  | Fbinop (r, op, a, b) when not (Types.is_vector r.rty) ->
      let* _, x = imm_of a in
      let* _, y = imm_of b in
      let s = Types.elem r.rty in
      Some (Mov (r, Fimm (r.rty, Cpu.Value.fdecode s (Cpu.Value.fbinop (Cpu.Value.fbinop_desc s op) x y))))
  | Icmp (r, cc, a, b) when not (Types.is_vector r.rty) ->
      let* ta, x = imm_of a in
      let* _, y = imm_of b in
      let s = Types.elem ta in
      Some (Mov (r, Imm (Types.i1, if Cpu.Value.icmp (Cpu.Value.icmp_desc s cc) x y then 1L else 0L)))
  | Cast (r, k, a) when not (Types.is_vector r.rty) ->
      let* ta, x = imm_of a in
      let from = Types.elem ta and dst = Types.elem r.rty in
      let bits = Cpu.Value.cast (Cpu.Value.cast_desc k ~from ~dst) x in
      if Types.is_float dst then Some (Mov (r, Fimm (r.rty, Cpu.Value.fdecode dst bits)))
      else Some (Mov (r, Imm (r.rty, bits)))
  | Select (r, c, a, b) -> (
      match imm_of c with
      | Some (_, cv) -> Some (Mov (r, if cv <> 0L then a else b))
      | None -> None)
  | _ -> None

let constant_fold (f : func) : int =
  let changed = ref 0 in
  List.iter
    (fun (_, (blk : block)) ->
      blk.instrs <-
        List.map
          (fun i ->
            match fold_instr i with
            | Some i' ->
                incr changed;
                i'
            | None -> i)
          blk.instrs)
    f.blocks;
  !changed

(* ---- block-local copy propagation ---- *)

let map_operands (g : operand -> operand) (i : t) : t =
  match i with
  | Binop (r, op, a, b) -> Binop (r, op, g a, g b)
  | Fbinop (r, op, a, b) -> Fbinop (r, op, g a, g b)
  | Icmp (r, cc, a, b) -> Icmp (r, cc, g a, g b)
  | Fcmp (r, cc, a, b) -> Fcmp (r, cc, g a, g b)
  | Select (r, c, a, b) -> Select (r, g c, g a, g b)
  | Cast (r, k, a) -> Cast (r, k, g a)
  | Mov (r, a) -> Mov (r, g a)
  | Load (r, a) -> Load (r, g a)
  | Store (v, a) -> Store (g v, g a)
  | Alloca _ -> i
  | Call (r, n, args) -> Call (r, n, List.map g args)
  | Call_ind (r, rt, fp, args) -> Call_ind (r, rt, g fp, List.map g args)
  | Atomic_rmw (r, op, a, x) -> Atomic_rmw (r, op, g a, g x)
  | Cmpxchg (r, a, e, d) -> Cmpxchg (r, g a, g e, g d)
  | Extractlane (r, v, l) -> Extractlane (r, g v, l)
  | Insertlane (r, v, l, s) -> Insertlane (r, g v, l, g s)
  | Broadcast (r, s) -> Broadcast (r, g s)
  | Shuffle (r, v, p) -> Shuffle (r, g v, p)
  | Ptestz (r, v) -> Ptestz (r, g v)
  | Gather (r, a) -> Gather (r, g a)
  | Scatter (v, a) -> Scatter (g v, g a)

let map_term_operands (g : operand -> operand) (t : terminator) : terminator =
  match t with
  | Ret (Some o) -> Ret (Some (g o))
  | Cond_br (c, a, b) -> Cond_br (g c, a, b)
  | Vbr (m, a, b, r) -> Vbr (g m, a, b, r)
  | Vbr_unchecked (m, a, b) -> Vbr_unchecked (g m, a, b)
  | (Ret None | Br _ | Unreachable) as t -> t

let copy_propagate (f : func) : int =
  let changed = ref 0 in
  List.iter
    (fun (_, (blk : block)) ->
      (* rid -> replacement operand, valid until either side is redefined *)
      let copies : (int, operand) Hashtbl.t = Hashtbl.create 16 in
      let kill rid =
        Hashtbl.remove copies rid;
        Hashtbl.iter
          (fun k v -> match v with Reg r when r.rid = rid -> Hashtbl.remove copies k | _ -> ())
          (Hashtbl.copy copies)
      in
      let subst (o : operand) : operand =
        match o with
        | Reg r -> (
            match Hashtbl.find_opt copies r.rid with
            | Some o' when Types.equal (operand_ty None o') r.rty ->
                incr changed;
                o'
            | _ -> o)
        | o -> o
      in
      blk.instrs <-
        List.map
          (fun i ->
            let i = map_operands subst i in
            (match dest i with Some r -> kill r.rid | None -> ());
            (match i with
            | Mov (r, src) when not (match src with Reg s -> s.rid = r.rid | _ -> false) ->
                Hashtbl.replace copies r.rid src
            | _ -> ());
            i)
          blk.instrs;
      blk.term <- map_term_operands subst blk.term)
    f.blocks;
  !changed

(* ---- block-local common subexpression elimination ---- *)

(* pure, side-effect-free instructions with a deterministic value *)
let cse_key (i : t) : (string * operand list) option =
  let mask_key p = String.concat "," (Array.to_list (Array.map string_of_int p)) in
  match i with
  | Binop (r, op, a, b) ->
      Some (Printf.sprintf "b%s%s" (Printer.string_of_binop op) (Types.to_string r.rty), [ a; b ])
  | Fbinop (r, op, a, b) ->
      Some (Printf.sprintf "f%s%s" (Printer.string_of_fbinop op) (Types.to_string r.rty), [ a; b ])
  | Icmp (r, cc, a, b) ->
      Some (Printf.sprintf "i%s%s" (Printer.string_of_icmp cc) (Types.to_string r.rty), [ a; b ])
  | Fcmp (r, cc, a, b) ->
      Some (Printf.sprintf "c%s%s" (Printer.string_of_fcmp cc) (Types.to_string r.rty), [ a; b ])
  | Cast (r, k, a) ->
      Some (Printf.sprintf "k%s%s" (Printer.string_of_cast k) (Types.to_string r.rty), [ a ])
  | Select (r, c, a, b) -> Some ("s" ^ Types.to_string r.rty, [ c; a; b ])
  | Extractlane (_, v, l) -> Some (Printf.sprintf "x%d" l, [ v ])
  | Broadcast (r, s) -> Some ("bc" ^ Types.to_string r.rty, [ s ])
  | Shuffle (r, v, p) -> Some ("sh" ^ Types.to_string r.rty ^ mask_key p, [ v ])
  | _ -> None

let operand_regs (ops : operand list) =
  List.filter_map (function Reg r -> Some r.rid | _ -> None) ops

let local_cse (f : func) : int =
  let changed = ref 0 in
  List.iter
    (fun (_, (blk : block)) ->
      (* (key, operands) -> available destination register *)
      let avail : ((string * operand list) * reg) list ref = ref [] in
      let invalidate rid =
        avail :=
          List.filter
            (fun (((_, ops), d) : (string * operand list) * reg) ->
              d.rid <> rid && not (List.mem rid (operand_regs ops)))
            !avail
      in
      blk.instrs <-
        List.map
          (fun i ->
            match cse_key i with
            | None ->
                (match dest i with Some r -> invalidate r.rid | None -> ());
                i
            | Some key -> (
                let d = Option.get (dest i) in
                match List.assoc_opt key !avail with
                | Some prev when Types.equal prev.rty d.rty && prev.rid <> d.rid ->
                    incr changed;
                    invalidate d.rid;
                    avail := (key, d) :: !avail;
                    Mov (d, Reg prev)
                | _ ->
                    invalidate d.rid;
                    avail := (key, d) :: !avail;
                    i))
          blk.instrs)
    f.blocks;
  !changed

(* ---- dead code elimination ---- *)

let is_pure (i : t) : bool =
  match i with
  | Binop _ | Fbinop _ | Icmp _ | Fcmp _ | Select _ | Cast _ | Mov _ | Extractlane _
  | Insertlane _ | Broadcast _ | Shuffle _ | Ptestz _ ->
      true
  | Load _ | Store _ | Alloca _ | Call _ | Call_ind _ | Atomic_rmw _ | Cmpxchg _ | Gather _
  | Scatter _ ->
      false

let dead_code_eliminate (f : func) : int =
  let removed = ref 0 in
  let rec fixpoint () =
    let used = Hashtbl.create 64 in
    let see = function Reg r -> Hashtbl.replace used r.rid () | _ -> () in
    List.iter
      (fun (_, (blk : block)) ->
        List.iter (fun i -> List.iter see (operands i)) blk.instrs;
        List.iter see (term_operands blk.term))
      f.blocks;
    (* keep induction variables: the vectorizer's loop metadata names them *)
    List.iter (fun li -> Hashtbl.replace used li.l_ivar.rid ()) f.loops;
    let changed = ref false in
    List.iter
      (fun (_, (blk : block)) ->
        let keep i =
          match dest i with
          | Some r when is_pure i && not (Hashtbl.mem used r.rid) ->
              incr removed;
              changed := true;
              false
          | _ -> true
        in
        blk.instrs <- List.filter keep blk.instrs)
      f.blocks;
    if !changed then fixpoint ()
  in
  fixpoint ();
  !removed

(* ---- loop-invariant code motion ---- *)

(* Instructions safe to execute speculatively in the preheader even when
   the loop body never runs: pure and trap-free (divisions stay put). *)
let hoistable (i : t) : bool =
  match i with
  | Binop (_, (Sdiv | Udiv | Srem | Urem), _, _) -> false
  | Binop _ | Fbinop _ | Icmp _ | Fcmp _ | Select _ | Cast _ | Mov _ -> true
  | _ -> false

(* Hoists invariant computations of single-block loop bodies recorded by
   the builder into the block that jumps into the loop header. *)
let licm (f : func) : int =
  let hoisted = ref 0 in
  List.iter
    (fun (li : loop_info) ->
      match List.assoc_opt li.l_body f.blocks with
      | Some body when body.term = Br li.l_latch ->
          (* registers redefined anywhere inside the loop are not invariant *)
          let loop_defs = Hashtbl.create 16 in
          List.iter
            (fun lbl ->
              match List.assoc_opt lbl f.blocks with
              | Some (b : block) ->
                  List.iter
                    (fun i ->
                      match dest i with
                      | Some r -> Hashtbl.replace loop_defs r.rid ()
                      | None -> ())
                    b.instrs
              | None -> ())
            [ li.l_header; li.l_body; li.l_latch ];
          Hashtbl.replace loop_defs li.l_ivar.rid ();
          let invariant_op = function
            | Reg r -> not (Hashtbl.mem loop_defs r.rid)
            | Imm _ | Fimm _ | Glob _ | Fref _ -> true
          in
          (* find the unique preheader: a block other than the latch whose
             terminator targets the header *)
          let preheader =
            List.filter
              (fun (l, (b : block)) ->
                l <> li.l_latch && List.mem li.l_header (successors b.term))
              f.blocks
          in
          (match preheader with
          | [ (pre_label, pre) ] ->
              (* a destination is only safe to hoist when the body is its
                 sole writer in the whole function (no pre-loop value can
                 be observed) and the body never reads it before writing *)
              let defined_elsewhere = Hashtbl.create 16 in
              List.iter
                (fun (l, (b : block)) ->
                  if l <> li.l_body then
                    List.iter
                      (fun i ->
                        match dest i with
                        | Some r -> Hashtbl.replace defined_elsewhere r.rid ()
                        | None -> ())
                      b.instrs)
                f.blocks;
              let use_before_def = Hashtbl.create 16 in
              let seen_def = Hashtbl.create 16 in
              List.iter
                (fun i ->
                  List.iter
                    (function
                      | Reg r when not (Hashtbl.mem seen_def r.rid) ->
                          Hashtbl.replace use_before_def r.rid ()
                      | _ -> ())
                    (operands i);
                  match dest i with
                  | Some r -> Hashtbl.replace seen_def r.rid ()
                  | None -> ())
                body.instrs;
              ignore pre_label;
              let moved = ref [] in
              body.instrs <-
                List.filter
                  (fun i ->
                    if
                      hoistable i
                      && List.for_all invariant_op (operands i)
                      &&
                      match dest i with
                      | Some d ->
                          (not (Hashtbl.mem defined_elsewhere d.rid))
                          && (not (Hashtbl.mem use_before_def d.rid))
                          && List.length
                               (List.filter
                                  (fun j ->
                                    match dest j with
                                    | Some r -> r.rid = d.rid
                                    | None -> false)
                                  body.instrs)
                             = 1
                      | None -> false
                    then begin
                      moved := i :: !moved;
                      incr hoisted;
                      false
                    end
                    else true)
                  body.instrs;
              pre.instrs <- pre.instrs @ List.rev !moved
          | _ -> ())
      | _ -> ())
    f.loops;
  !hoisted

(* ---- driver ---- *)

type stats = { folded : int; propagated : int; cse_hits : int; dce_removed : int }

let run_func (f : func) : stats =
  let folded = ref 0 and propagated = ref 0 and cse_hits = ref 0 and dce = ref 0 in
  for _ = 1 to 2 do
    propagated := !propagated + copy_propagate f;
    folded := !folded + constant_fold f;
    propagated := !propagated + copy_propagate f;
    cse_hits := !cse_hits + local_cse f;
    cse_hits := !cse_hits + licm f;
    dce := !dce + dead_code_eliminate f
  done;
  { folded = !folded; propagated = !propagated; cse_hits = !cse_hits; dce_removed = !dce }

(* Optimizes every function of [m] in place; returns aggregate stats. *)
let run (m : modul) : stats =
  List.fold_left
    (fun acc f ->
      let s = run_func f in
      {
        folded = acc.folded + s.folded;
        propagated = acc.propagated + s.propagated;
        cse_hits = acc.cse_hits + s.cse_hits;
        dce_removed = acc.dce_removed + s.dce_removed;
      })
    { folded = 0; propagated = 0; cse_hits = 0; dce_removed = 0 }
    m.funcs

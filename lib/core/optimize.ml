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

(* The passes below index scratch tables by register: slot [rid - lo] for
   every id of [span], the function's [Dataflow.reg_span].  No pass adds a
   register, so [run_func] computes the span once for all of them. *)
let reg_table ((lo, hi) : int * int) (init : 'a) : int * 'a array = (lo, Array.make (hi - lo) init)

let copy_propagate_in ~span (f : func) : int =
  let changed = ref 0 in
  (* rid -> replacement operand, valid until either side is redefined *)
  let lo, copies = reg_table span None in
  (* rid -> destinations whose copy reads that register; an entry goes
     stale when its destination is killed or re-copied, so [kill] checks *)
  let readers = Array.make (Array.length copies) [] in
  let touched = ref [] in
  (* number of [Some] slots: while it is 0, nothing can be substituted *)
  let live = ref 0 in
  let drop k =
    if Option.is_some copies.(k) then begin
      copies.(k) <- None;
      decr live
    end
  in
  let kill rid =
    drop (rid - lo);
    List.iter
      (fun d -> match copies.(d - lo) with Some (Reg r) when r.rid = rid -> drop (d - lo) | _ -> ())
      readers.(rid - lo);
    readers.(rid - lo) <- []
  in
  let subst (o : operand) : operand =
    match o with
    | Reg r -> (
        match copies.(r.rid - lo) with
        | Some o' when Types.equal (operand_ty None o') r.rty ->
            incr changed;
            o'
        | _ -> o)
    | o -> o
  in
  List.iter
    (fun (_, (blk : block)) ->
      blk.instrs <-
        List.map
          (fun i ->
            let i = if !live = 0 then i else map_operands subst i in
            (match dest i with Some r -> kill r.rid | None -> ());
            (match i with
            | Mov (r, src) when not (match src with Reg s -> s.rid = r.rid | _ -> false) ->
                copies.(r.rid - lo) <- Some src;
                incr live;
                touched := r.rid :: !touched;
                (match src with
                | Reg s ->
                    readers.(s.rid - lo) <- r.rid :: readers.(s.rid - lo);
                    touched := s.rid :: !touched
                | Imm _ | Fimm _ | Glob _ | Fref _ -> ())
            | _ -> ());
            i)
          blk.instrs;
      if !live > 0 then blk.term <- map_term_operands subst blk.term;
      (* copies are block-local *)
      List.iter
        (fun rid ->
          copies.(rid - lo) <- None;
          readers.(rid - lo) <- [])
        !touched;
      touched := [];
      live := 0)
    f.blocks;
  !changed

(* ---- block-local common subexpression elimination ---- *)

(* What makes two pure instructions compute the same value, besides their
   operands. *)
type cse_op =
  | Kbinop of binop * Types.t
  | Kfbinop of fbinop * Types.t
  | Kicmp of icmp * Types.t
  | Kfcmp of fcmp * Types.t
  | Kcast of cast * Types.t
  | Kselect of Types.t
  | Kextract of int
  | Kbroadcast of Types.t
  | Kshuffle of Types.t * int array

(* pure, side-effect-free instructions with a deterministic value *)
let cse_key (i : t) : (cse_op * operand list) option =
  match i with
  | Binop (r, op, a, b) -> Some (Kbinop (op, r.rty), [ a; b ])
  | Fbinop (r, op, a, b) -> Some (Kfbinop (op, r.rty), [ a; b ])
  | Icmp (r, cc, a, b) -> Some (Kicmp (cc, r.rty), [ a; b ])
  | Fcmp (r, cc, a, b) -> Some (Kfcmp (cc, r.rty), [ a; b ])
  | Cast (r, k, a) -> Some (Kcast (k, r.rty), [ a ])
  | Select (r, c, a, b) -> Some (Kselect r.rty, [ c; a; b ])
  | Extractlane (_, v, l) -> Some (Kextract l, [ v ])
  | Broadcast (r, s) -> Some (Kbroadcast r.rty, [ s ])
  | Shuffle (r, v, p) -> Some (Kshuffle (r.rty, p), [ v ])
  | _ -> None

(* Structural equality of keys, spelled out so that no polymorphic compare
   runs: float immediates compare as IEEE values (0.0 matches -0.0, NaN
   matches nothing), registers by every field. *)
module Cse_key = struct
  type t = cse_op * operand list

  let op_equal (a : cse_op) (b : cse_op) =
    let open Types in
    match (a, b) with
    | Kbinop (x, t), Kbinop (y, u) -> x = y && equal t u
    | Kfbinop (x, t), Kfbinop (y, u) -> x = y && equal t u
    | Kicmp (x, t), Kicmp (y, u) -> x = y && equal t u
    | Kfcmp (x, t), Kfcmp (y, u) -> x = y && equal t u
    | Kcast (x, t), Kcast (y, u) -> x = y && equal t u
    | Kselect t, Kselect u | Kbroadcast t, Kbroadcast u -> equal t u
    | Kextract l, Kextract k -> l = k
    | Kshuffle (t, p), Kshuffle (u, q) ->
        equal t u && Array.length p = Array.length q && Array.for_all2 Int.equal p q
    | ( ( Kbinop _ | Kfbinop _ | Kicmp _ | Kfcmp _ | Kcast _ | Kselect _ | Kextract _
        | Kbroadcast _ | Kshuffle _ ),
        _ ) ->
        false

  let operand_equal (a : operand) (b : operand) =
    match (a, b) with
    | Reg r, Reg s -> r.rid = s.rid && String.equal r.rname s.rname && Types.equal r.rty s.rty
    | Imm (t, x), Imm (u, y) -> Types.equal t u && Int64.equal x y
    | Fimm (t, x), Fimm (u, y) -> Types.equal t u && (x : float) = y
    | Glob x, Glob y | Fref x, Fref y -> String.equal x y
    | (Reg _ | Imm _ | Fimm _ | Glob _ | Fref _), _ -> false

  let equal ((o, xs) : t) ((p, ys) : t) = op_equal o p && List.equal operand_equal xs ys

  let operand_hash = function
    | Reg r -> r.rid
    | Imm (_, x) -> Int64.to_int x
    | Fimm (_, x) -> if (x : float) = 0.0 then 0 else Hashtbl.hash x
    | Glob s | Fref s -> Hashtbl.hash s

  (* keys that differ only in the operation or a type share a hash *)
  let op_hash = function
    | Kbinop _ -> 1
    | Kfbinop _ -> 2
    | Kicmp _ -> 3
    | Kfcmp _ -> 4
    | Kcast _ -> 5
    | Kselect _ -> 6
    | Kextract l -> 7 + (16 * l)
    | Kbroadcast _ -> 8
    | Kshuffle _ -> 9

  let hash ((o, xs) : t) =
    List.fold_left (fun h x -> (h * 31) + operand_hash x) (op_hash o) xs land max_int
end

module Cse_table = Hashtbl.Make (Cse_key)

(* An available value: [d] holds its key's value until [d] or an operand
   register of the key is redefined. *)
type cse_entry = { d : reg; mutable live : bool }

(* The entries of one key, newest first; dead ones are dropped lazily. *)
type cse_bucket = { mutable entries : cse_entry list }

let local_cse_in ~span (f : func) : int =
  let changed = ref 0 in
  let avail : cse_bucket Cse_table.t = Cse_table.create 64 in
  (* rid -> entries that die when it is redefined *)
  let lo, mentions = reg_table span [] in
  let touched = ref [] in
  let invalidate rid =
    List.iter (fun e -> e.live <- false) mentions.(rid - lo);
    mentions.(rid - lo) <- []
  in
  let mention rid e =
    mentions.(rid - lo) <- e :: mentions.(rid - lo);
    touched := rid :: !touched
  in
  let rec newest = function e :: rest when not e.live -> newest rest | l -> l in
  List.iter
    (fun (_, (blk : block)) ->
      blk.instrs <-
        List.map
          (fun i ->
            match cse_key i with
            | None ->
                (match dest i with Some r -> invalidate r.rid | None -> ());
                i
            | Some ((_, ops) as key) ->
                let d = Option.get (dest i) in
                let bucket =
                  match Cse_table.find_opt avail key with
                  | Some b -> b
                  | None ->
                      let b = { entries = [] } in
                      Cse_table.add avail key b;
                      b
                in
                let i' =
                  match newest bucket.entries with
                  | { d = prev; _ } :: _ when Types.equal prev.rty d.rty && prev.rid <> d.rid ->
                      incr changed;
                      Mov (d, Reg prev)
                  | _ -> i
                in
                invalidate d.rid;
                (* [%r1 = add %r1, 1] leaves no available value: its key
                   names the old [%r1], which [d] has just overwritten. *)
                if not (List.exists (function Reg r -> r.rid = d.rid | _ -> false) ops)
                then begin
                  let e = { d; live = true } in
                  bucket.entries <- e :: newest bucket.entries;
                  mention d.rid e;
                  List.iter (function Reg r -> mention r.rid e | _ -> ()) ops
                end;
                i')
          blk.instrs;
      (* available values are block-local *)
      Cse_table.reset avail;
      List.iter (fun rid -> mentions.(rid - lo) <- []) !touched;
      touched := [])
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

let dead_code_eliminate_in ~span (f : func) : int =
  let removed = ref 0 in
  let lo, used = reg_table span false in
  let rec fixpoint () =
    Array.fill used 0 (Array.length used) false;
    let see = function Reg r -> used.(r.rid - lo) <- true | _ -> () in
    List.iter
      (fun (_, (blk : block)) ->
        List.iter (fun i -> List.iter see (operands i)) blk.instrs;
        List.iter see (term_operands blk.term))
      f.blocks;
    (* keep induction variables: the vectorizer's loop metadata names them *)
    List.iter (fun li -> used.(li.l_ivar.rid - lo) <- true) f.loops;
    let changed = ref false in
    List.iter
      (fun (_, (blk : block)) ->
        let keep i =
          match dest i with
          | Some r when is_pure i && not used.(r.rid - lo) ->
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
let licm_in ~span (f : func) : int =
  if f.loops = [] then 0
  else
  let hoisted = ref 0 in
  (* Per-register facts of the loop at hand live in register-indexed
     arrays: a flag is set, and a count valid, only where its slot holds
     the loop's stamp, so no array is cleared between loops. *)
  let lo, defs = reg_table span 0 in
  let n = Array.length defs in
  let stamp = ref 0 in
  let flag () = Array.make n 0 in
  let in_loop = flag () and seen_def = flag () and read_first = flag () in
  let counter () = (Array.make n 0, Array.make n 0) in
  let label_defs = counter () and own_defs = counter () in
  let set (a : int array) rid = a.(rid - lo) <- !stamp in
  let is_set (a : int array) rid = a.(rid - lo) = !stamp in
  let count (c, at) rid = if at.(rid - lo) = !stamp then c.(rid - lo) else 0 in
  let bump ((c, at) as ctr) rid =
    c.(rid - lo) <- count ctr rid + 1;
    at.(rid - lo) <- !stamp
  in
  let iter_defs g (b : block) =
    List.iter (fun i -> match dest i with Some r -> g r.rid | None -> ()) b.instrs
  in
  (* writes of each register in the whole function; hoisting only moves
     instructions between blocks, so the counts stay exact *)
  List.iter (fun (_, b) -> iter_defs (fun rid -> defs.(rid - lo) <- defs.(rid - lo) + 1) b) f.blocks;
  List.iter
    (fun (li : loop_info) ->
      match List.assoc_opt li.l_body f.blocks with
      | Some body when body.term = Br li.l_latch ->
          incr stamp;
          (* registers redefined anywhere inside the loop are not invariant *)
          List.iter
            (fun lbl ->
              match List.assoc_opt lbl f.blocks with
              | Some b -> iter_defs (set in_loop) b
              | None -> ())
            [ li.l_header; li.l_body; li.l_latch ];
          set in_loop li.l_ivar.rid;
          let invariant_op = function
            | Reg r -> not (is_set in_loop r.rid)
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
          | [ (_, pre) ] ->
              (* a destination is only safe to hoist when the body is its
                 sole writer in the whole function (no pre-loop value can
                 be observed), writes it once, and never reads it before
                 writing *)
              List.iter (fun (l, b) -> if l = li.l_body then iter_defs (bump label_defs) b) f.blocks;
              iter_defs (bump own_defs) body;
              List.iter
                (fun i ->
                  List.iter
                    (function Reg r when not (is_set seen_def r.rid) -> set read_first r.rid | _ -> ())
                    (operands i);
                  match dest i with Some r -> set seen_def r.rid | None -> ())
                body.instrs;
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
                          defs.(d.rid - lo) = count label_defs d.rid
                          && (not (is_set read_first d.rid))
                          && count own_defs d.rid = 1
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

let copy_propagate f = copy_propagate_in ~span:(Dataflow.reg_span f) f
let local_cse f = local_cse_in ~span:(Dataflow.reg_span f) f
let dead_code_eliminate f = dead_code_eliminate_in ~span:(Dataflow.reg_span f) f
let licm f = licm_in ~span:(Dataflow.reg_span f) f

(* ---- driver ---- *)

type stats = { folded : int; propagated : int; cse_hits : int; dce_removed : int }

let run_func (f : func) : stats =
  let folded = ref 0 and propagated = ref 0 and cse_hits = ref 0 and dce = ref 0 in
  let span = Dataflow.reg_span f in
  for _ = 1 to 2 do
    propagated := !propagated + copy_propagate_in ~span f;
    folded := !folded + constant_fold f;
    propagated := !propagated + copy_propagate_in ~span f;
    cse_hits := !cse_hits + local_cse_in ~span f;
    cse_hits := !cse_hits + licm_in ~span f;
    dce := !dce + dead_code_eliminate_in ~span f
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

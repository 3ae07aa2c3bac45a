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

let is_imm = function Imm _ | Fimm _ -> true | Reg _ | Glob _ | Fref _ -> false
let is_div = function Sdiv | Udiv | Srem | Urem -> true | _ -> false

(* evaluates one pure scalar instruction over constant operands; bit-exact
   via the machine's own value semantics (the [is_imm] guards only keep
   instructions that cannot fold from paying for the [let*] closures) *)
let fold_instr (i : t) : t option =
  let ( let* ) = Option.bind in
  match i with
  | Binop (r, op, a, b)
    when (not (Types.is_vector r.rty)) && (not (is_div op)) && is_imm a && is_imm b ->
      let* _, x = imm_of a in
      let* _, y = imm_of b in
      let s = Types.elem r.rty in
      Some (Mov (r, Imm (r.rty, Cpu.Value.binop (Cpu.Value.binop_desc s op) x y)))
  | Fbinop (r, op, a, b) when (not (Types.is_vector r.rty)) && is_imm a && is_imm b ->
      let* _, x = imm_of a in
      let* _, y = imm_of b in
      let s = Types.elem r.rty in
      Some (Mov (r, Fimm (r.rty, Cpu.Value.fdecode s (Cpu.Value.fbinop (Cpu.Value.fbinop_desc s op) x y))))
  | Icmp (r, cc, a, b) when (not (Types.is_vector r.rty)) && is_imm a && is_imm b ->
      let* ta, x = imm_of a in
      let* _, y = imm_of b in
      let s = Types.elem ta in
      Some (Mov (r, Imm (Types.i1, if Cpu.Value.icmp (Cpu.Value.icmp_desc s cc) x y then 1L else 0L)))
  | Cast (r, k, a) when (not (Types.is_vector r.rty)) && is_imm a ->
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

(* [List.map g l], but [l] itself when [g] returns every element unchanged
   (physically): a pass that changes nothing builds no new list.  [g] runs
   on the elements in order. *)
let rec map_shared g = function
  | [] -> []
  | x :: rest as l ->
      let x' = g x in
      let rest' = map_shared g rest in
      if x' == x && rest' == rest then l else x' :: rest'

(* [List.filter keep l], sharing the longest unchanged tail with [l]. *)
let rec filter_shared keep = function
  | [] -> []
  | x :: rest as l ->
      let k = keep x in
      let rest' = filter_shared keep rest in
      if not k then rest' else if rest' == rest then l else x :: rest'

let constant_fold (f : func) : int =
  let changed = ref 0 in
  let fold i =
    match fold_instr i with
    | Some i' ->
        incr changed;
        i'
    | None -> i
  in
  List.iter (fun (_, (blk : block)) -> blk.instrs <- map_shared fold blk.instrs) f.blocks;
  !changed

(* ---- block-local copy propagation ---- *)

(* [i] with [g] applied to its operands; [i] itself when [g] changes none. *)
let map_operands (g : operand -> operand) (i : t) : t =
  match i with
  | Binop (r, op, a, b) ->
      let a' = g a in
      let b' = g b in
      if a' == a && b' == b then i else Binop (r, op, a', b')
  | Fbinop (r, op, a, b) ->
      let a' = g a in
      let b' = g b in
      if a' == a && b' == b then i else Fbinop (r, op, a', b')
  | Icmp (r, cc, a, b) ->
      let a' = g a in
      let b' = g b in
      if a' == a && b' == b then i else Icmp (r, cc, a', b')
  | Fcmp (r, cc, a, b) ->
      let a' = g a in
      let b' = g b in
      if a' == a && b' == b then i else Fcmp (r, cc, a', b')
  | Select (r, c, a, b) ->
      let c' = g c in
      let a' = g a in
      let b' = g b in
      if c' == c && a' == a && b' == b then i else Select (r, c', a', b')
  | Cast (r, k, a) ->
      let a' = g a in
      if a' == a then i else Cast (r, k, a')
  | Mov (r, a) ->
      let a' = g a in
      if a' == a then i else Mov (r, a')
  | Load (r, a) ->
      let a' = g a in
      if a' == a then i else Load (r, a')
  | Store (v, a) ->
      let v' = g v in
      let a' = g a in
      if v' == v && a' == a then i else Store (v', a')
  | Alloca _ -> i
  | Call (r, n, args) ->
      let args' = map_shared g args in
      if args' == args then i else Call (r, n, args')
  | Call_ind (r, rt, fp, args) ->
      let fp' = g fp in
      let args' = map_shared g args in
      if fp' == fp && args' == args then i else Call_ind (r, rt, fp', args')
  | Atomic_rmw (r, op, a, x) ->
      let a' = g a in
      let x' = g x in
      if a' == a && x' == x then i else Atomic_rmw (r, op, a', x')
  | Cmpxchg (r, a, e, d) ->
      let a' = g a in
      let e' = g e in
      let d' = g d in
      if a' == a && e' == e && d' == d then i else Cmpxchg (r, a', e', d')
  | Extractlane (r, v, l) ->
      let v' = g v in
      if v' == v then i else Extractlane (r, v', l)
  | Insertlane (r, v, l, x) ->
      let v' = g v in
      let x' = g x in
      if v' == v && x' == x then i else Insertlane (r, v', l, x')
  | Broadcast (r, x) ->
      let x' = g x in
      if x' == x then i else Broadcast (r, x')
  | Shuffle (r, v, p) ->
      let v' = g v in
      if v' == v then i else Shuffle (r, v', p)
  | Ptestz (r, v) ->
      let v' = g v in
      if v' == v then i else Ptestz (r, v')
  | Gather (r, a) ->
      let a' = g a in
      if a' == a then i else Gather (r, a')
  | Scatter (v, a) ->
      let v' = g v in
      let a' = g a in
      if v' == v && a' == a then i else Scatter (v', a')

let map_term_operands (g : operand -> operand) (t : terminator) : terminator =
  match t with
  | Ret (Some o) ->
      let o' = g o in
      if o' == o then t else Ret (Some o')
  | Cond_br (c, a, b) ->
      let c' = g c in
      if c' == c then t else Cond_br (c', a, b)
  | Vbr (m, a, b, r) ->
      let m' = g m in
      if m' == m then t else Vbr (m', a, b, r)
  | Vbr_unchecked (m, a, b) ->
      let m' = g m in
      if m' == m then t else Vbr_unchecked (m', a, b)
  | Ret None | Br _ | Unreachable -> t

(* ---- block-local common subexpression elimination ---- *)

(* An available value: [d] holds its key's value until [d] or an operand
   register of the key is redefined. *)
type cse_entry = { d : reg; mutable live : bool }

(* The entries of one key, newest first; dead ones are dropped lazily. *)
type cse_bucket = { mutable entries : cse_entry list }

(* Per-register scratch of the passes: slot [rid - lo] for every id of the
   function's [Dataflow.reg_span].  No pass adds a register (nor a block),
   so [run_func] sizes it once for all of them.  Copy propagation and CSE
   leave their slots as they found them; DCE and LICM fill theirs before
   use, and a LICM flag is set only where it holds the current [stamp]. *)
type scratch = {
  lo : int;
  copies : operand option array;  (** copy propagation: rid -> replacement *)
  readers : int list array;  (** copy propagation: rid -> copies reading it *)
  mentions : cse_entry list array;  (** CSE: rid -> entries that die with it *)
  uses : int array;  (** DCE: reads of rid *)
  defs : int array;  (** LICM: writes of rid in the function *)
  labels : Dataflow.Labels.t Lazy.t;  (** LICM: the blocks by label *)
  in_loop : int array;
  seen_def : int array;
  read_first : int array;
  mutable stamp : int;
}

let scratch (f : func) : scratch =
  let lo, hi = Dataflow.reg_span f in
  let n = hi - lo in
  let flag () = Array.make n 0 in
  {
    lo;
    copies = Array.make n None;
    readers = Array.make n [];
    mentions = Array.make n [];
    uses = Array.make n 0;
    defs = Array.make n 0;
    labels = lazy (Dataflow.Labels.create f);
    in_loop = flag ();
    seen_def = flag ();
    read_first = flag ();
    stamp = 0;
  }

let copy_propagate_in (s : scratch) (f : func) : int =
  let changed = ref 0 in
  (* rid -> replacement operand, valid until either side is redefined *)
  let lo = s.lo and copies = s.copies in
  (* rid -> destinations whose copy reads that register; an entry goes
     stale when its destination is killed or re-copied, so [kill] checks *)
  let readers = s.readers in
  let touched = ref [] in
  (* number of [Some] slots: while it is 0, nothing can be substituted *)
  let live = ref 0 in
  let drop k =
    if Option.is_some copies.(k) then begin
      copies.(k) <- None;
      decr live
    end
  in
  let rec drop_readers rid = function
    | [] -> ()
    | d :: ds ->
        (match copies.(d - lo) with Some (Reg r) when r.rid = rid -> drop (d - lo) | _ -> ());
        drop_readers rid ds
  in
  let kill (d : reg) =
    drop (d.rid - lo);
    drop_readers d.rid readers.(d.rid - lo);
    readers.(d.rid - lo) <- []
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
  let step i =
    let i = if !live = 0 then i else map_operands subst i in
    iter_dest kill i;
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
    i
  in
  List.iter
    (fun (_, (blk : block)) ->
      blk.instrs <- map_shared step blk.instrs;
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

(* CSE candidates are the pure, side-effect-free instructions with a
   deterministic value that [local_cse_in] matches on: two of them compute
   the same value when their operations, result types (but for
   [Extractlane]) and operands agree.  A candidate is its own hash key, so
   no key is built.  Equality is spelled out so that no polymorphic compare runs:
   float immediates compare as IEEE values (0.0 matches -0.0, NaN matches
   nothing), registers by every field. *)
module Cse_key = struct
  type nonrec t = t

  let operand_equal (a : operand) (b : operand) =
    match (a, b) with
    | Reg r, Reg s -> r.rid = s.rid && String.equal r.rname s.rname && Types.equal r.rty s.rty
    | Imm (t, x), Imm (u, y) -> Types.equal t u && Int64.equal x y
    | Fimm (t, x), Fimm (u, y) -> Types.equal t u && (x : float) = y
    | Glob x, Glob y | Fref x, Fref y -> String.equal x y
    | (Reg _ | Imm _ | Fimm _ | Glob _ | Fref _), _ -> false

  let equal (i : t) (j : t) =
    let ty (r : reg) (s : reg) = Types.equal r.rty s.rty and ( =~ ) = operand_equal in
    match (i, j) with
    | Binop (r, x, a, b), Binop (s, y, c, d) -> x = y && ty r s && a =~ c && b =~ d
    | Fbinop (r, x, a, b), Fbinop (s, y, c, d) -> x = y && ty r s && a =~ c && b =~ d
    | Icmp (r, x, a, b), Icmp (s, y, c, d) -> x = y && ty r s && a =~ c && b =~ d
    | Fcmp (r, x, a, b), Fcmp (s, y, c, d) -> x = y && ty r s && a =~ c && b =~ d
    | Cast (r, x, a), Cast (s, y, c) -> x = y && ty r s && a =~ c
    | Select (r, k, a, b), Select (s, l, c, d) -> ty r s && k =~ l && a =~ c && b =~ d
    | Extractlane (_, a, x), Extractlane (_, c, y) -> x = y && a =~ c
    | Broadcast (r, a), Broadcast (s, c) -> ty r s && a =~ c
    | Shuffle (r, a, p), Shuffle (s, c, q) ->
        ty r s && Array.length p = Array.length q && Array.for_all2 Int.equal p q && a =~ c
    | _ -> false

  let operand_hash = function
    | Reg r -> r.rid
    | Imm (_, x) -> Int64.to_int x
    | Fimm (_, x) -> if (x : float) = 0.0 then 0 else Hashtbl.hash x
    | Glob s | Fref s -> Hashtbl.hash s

  (* keys that differ only in the operation or a type share a hash *)
  let hash (i : t) =
    let h = operand_hash in
    let mix h0 a = (h0 * 31) + h a in
    (match i with
    | Binop (_, _, a, b) -> mix (mix 1 a) b
    | Fbinop (_, _, a, b) -> mix (mix 2 a) b
    | Icmp (_, _, a, b) -> mix (mix 3 a) b
    | Fcmp (_, _, a, b) -> mix (mix 4 a) b
    | Cast (_, _, a) -> mix 5 a
    | Select (_, c, a, b) -> mix (mix (mix 6 c) a) b
    | Extractlane (_, a, l) -> mix (7 + (16 * l)) a
    | Broadcast (_, a) -> mix 8 a
    | Shuffle (_, a, _) -> mix 9 a
    | _ -> 0)
    land max_int
end

module Cse_table = Hashtbl.Make (Cse_key)

let local_cse_in (s : scratch) (f : func) : int =
  let changed = ref 0 in
  let avail : cse_bucket Cse_table.t = Cse_table.create 64 in
  (* rid -> entries that die when it is redefined *)
  let lo = s.lo and mentions = s.mentions in
  let touched = ref [] in
  let invalidate (r : reg) =
    List.iter (fun e -> e.live <- false) mentions.(r.rid - lo);
    mentions.(r.rid - lo) <- []
  in
  let mention e rid =
    mentions.(rid - lo) <- e :: mentions.(rid - lo);
    touched := rid :: !touched
  in
  let rec newest = function e :: rest when not e.live -> newest rest | l -> l in
  (* candidate [i], which computes into [d] *)
  let candidate i (d : reg) =
    let bucket =
      match Cse_table.find_opt avail i with
      | Some b -> b
      | None ->
          let b = { entries = [] } in
          Cse_table.add avail i b;
          b
    in
    let i' =
      match newest bucket.entries with
      | { d = prev; _ } :: _ when Types.equal prev.rty d.rty && prev.rid <> d.rid ->
          incr changed;
          Mov (d, Reg prev)
      | _ -> i
    in
    invalidate d;
    (* [%r1 = add %r1, 1] leaves no available value: its key names the
       old [%r1], which [d] has just overwritten. *)
    if not (exists_operand (function Reg r -> r.rid = d.rid | _ -> false) i) then begin
      let e = { d; live = true } in
      bucket.entries <- e :: newest bucket.entries;
      mention e d.rid;
      iter_operands (function Reg r -> mention e r.rid | _ -> ()) i
    end;
    i'
  in
  let step i =
    match i with
    | Binop (d, _, _, _) | Fbinop (d, _, _, _) | Icmp (d, _, _, _) | Fcmp (d, _, _, _)
    | Cast (d, _, _) | Select (d, _, _, _) | Extractlane (d, _, _) | Broadcast (d, _)
    | Shuffle (d, _, _) ->
        candidate i d
    | _ ->
        iter_dest invalidate i;
        i
  in
  List.iter
    (fun (_, (blk : block)) ->
      blk.instrs <- map_shared step blk.instrs;
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

let dead_code_eliminate_in (s : scratch) (f : func) : int =
  let removed = ref 0 and freed = ref false in
  let lo = s.lo and uses = s.uses in
  (* reads of each register by the instructions and terminators left *)
  Array.fill uses 0 (Array.length uses) 0;
  let use = function Reg r -> uses.(r.rid - lo) <- uses.(r.rid - lo) + 1 | _ -> () in
  let unuse = function
    | Reg r ->
        let k = r.rid - lo in
        uses.(k) <- uses.(k) - 1;
        if uses.(k) = 0 then freed := true
    | _ -> ()
  in
  let use_instr = iter_operands use in
  List.iter
    (fun (_, (blk : block)) ->
      List.iter use_instr blk.instrs;
      iter_term_operands use blk.term)
    f.blocks;
  (* keep induction variables: the vectorizer's loop metadata names them *)
  List.iter (fun li -> uses.(li.l_ivar.rid - lo) <- uses.(li.l_ivar.rid - lo) + 1) f.loops;
  let dead = ref false in
  let unread (r : reg) = dead := uses.(r.rid - lo) = 0 in
  (* every pure instruction has a destination *)
  let keep i =
    (not (is_pure i))
    || begin
         iter_dest unread i;
         if !dead then begin
           incr removed;
           iter_operands unuse i
         end;
         not !dead
       end
  in
  (* Removing an instruction only takes reads away, so what a sweep
     removes stays removable and any order of sweeps ends with the same
     instructions.  A definition dies only when the last read of its
     register goes: another sweep is due only when a count reached zero. *)
  let rec sweep () =
    freed := false;
    List.iter (fun (_, (blk : block)) -> blk.instrs <- filter_shared keep blk.instrs) f.blocks;
    if !freed then sweep ()
  in
  sweep ();
  !removed

(* ---- loop-invariant code motion ---- *)

(* Instructions safe to execute speculatively in the preheader even when
   the loop body never runs: pure and trap-free (divisions stay put). *)
let hoistable (i : t) : bool =
  match i with
  | Binop (_, (Sdiv | Udiv | Srem | Urem), _, _) -> false
  | Binop _ | Fbinop _ | Icmp _ | Fcmp _ | Select _ | Cast _ | Mov _ -> true
  | _ -> false

let branches_to (l : string) (t : terminator) =
  match t with
  | Ret _ | Unreachable -> false
  | Br a -> String.equal a l
  | Cond_br (_, a, b) | Vbr_unchecked (_, a, b) -> String.equal a l || String.equal b l
  | Vbr (_, a, b, c) -> String.equal a l || String.equal b l || String.equal c l

(* Hoists invariant computations of single-block loop bodies recorded by
   the builder into the block that jumps into the loop header. *)
let licm_in (s : scratch) (f : func) : int =
  if f.loops = [] then 0
  else
  let hoisted = ref 0 in
  let labels = Lazy.force s.labels in
  let block_of l =
    let i = Dataflow.Labels.find labels l in
    if i < 0 then None else Some (Dataflow.Labels.block labels i)
  in
  (* Per-register facts of the loop at hand live in register-indexed
     arrays: a flag is set only where its slot holds the loop's stamp, so
     no array is cleared between loops. *)
  let lo = s.lo and defs = s.defs in
  let set (a : int array) (r : reg) = a.(r.rid - lo) <- s.stamp in
  let is_set (a : int array) rid = a.(rid - lo) = s.stamp in
  let in_loop = set s.in_loop and seen_def = set s.seen_def in
  let read_first = function
    | Reg r when not (is_set s.seen_def r.rid) -> set s.read_first r
    | _ -> ()
  in
  let variant_op = function
    | Reg r -> is_set s.in_loop r.rid
    | Imm _ | Fimm _ | Glob _ | Fref _ -> false
  in
  (* writes of a register in the whole function, counted on the first
     candidate; hoisting only moves instructions between blocks, so the
     counts stay exact *)
  let counted = ref false in
  let count (r : reg) = defs.(r.rid - lo) <- defs.(r.rid - lo) + 1 in
  let count_instr = iter_dest count in
  let writes (r : reg) =
    if not !counted then begin
      counted := true;
      Array.fill defs 0 (Array.length defs) 0;
      List.iter (fun (_, (b : block)) -> List.iter count_instr b.instrs) f.blocks
    end;
    defs.(r.rid - lo)
  in
  List.iter
    (fun (li : loop_info) ->
      match block_of li.l_body with
      | Some body when (match body.term with Br l -> String.equal l li.l_latch | _ -> false) -> (
          s.stamp <- s.stamp + 1;
          (* registers redefined anywhere inside the loop are not invariant *)
          List.iter
            (fun lbl ->
              match block_of lbl with
              | Some b -> List.iter (iter_dest in_loop) b.instrs
              | None -> ())
            [ li.l_header; li.l_body; li.l_latch ];
          in_loop li.l_ivar;
          (* find the unique preheader: a block other than the latch whose
             terminator targets the header *)
          let preheaders = ref 0 and pre = ref body in
          List.iter
            (fun (l, (b : block)) ->
              if (not (String.equal l li.l_latch)) && branches_to li.l_header b.term then begin
                incr preheaders;
                pre := b
              end)
            f.blocks;
          match !preheaders with
          | 1 ->
              let pre = !pre in
              (* a destination is only safe to hoist when the body is its
                 sole writer in the whole function (no pre-loop value can
                 be observed), writes it once, and never reads it before
                 writing *)
              List.iter
                (fun i ->
                  iter_operands read_first i;
                  iter_dest seen_def i)
                body.instrs;
              let moved = ref [] in
              body.instrs <-
                filter_shared
                  (fun i ->
                    if
                      hoistable i
                      && (not (exists_operand variant_op i))
                      &&
                      match i with
                      | Binop (d, _, _, _) | Fbinop (d, _, _, _) | Icmp (d, _, _, _)
                      | Fcmp (d, _, _, _) | Select (d, _, _, _) | Cast (d, _, _) | Mov (d, _) ->
                          (not (is_set s.read_first d.rid)) && writes d = 1
                      | _ -> false
                    then begin
                      moved := i :: !moved;
                      incr hoisted;
                      false
                    end
                    else true)
                  body.instrs;
              if !moved <> [] then pre.instrs <- pre.instrs @ List.rev !moved
          | _ -> ())
      | _ -> ())
    f.loops;
  !hoisted

let copy_propagate f = copy_propagate_in (scratch f) f
let local_cse f = local_cse_in (scratch f) f
let licm f = licm_in (scratch f) f

(* ---- driver ---- *)

type stats = { folded : int; propagated : int; cse_hits : int; dce_removed : int }

let run_func (f : func) : stats =
  let folded = ref 0 and propagated = ref 0 and cse_hits = ref 0 and dce = ref 0 in
  let s = scratch f in
  for _ = 1 to 2 do
    propagated := !propagated + copy_propagate_in s f;
    folded := !folded + constant_fold f;
    propagated := !propagated + copy_propagate_in s f;
    cse_hits := !cse_hits + local_cse_in s f;
    cse_hits := !cse_hits + licm_in s f;
    dce := !dce + dead_code_eliminate_in s f
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

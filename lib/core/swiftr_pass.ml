(** SWIFT-R instruction triplication (Reis et al., reproduced as the
    paper's ILR baseline for Fig. 14 / Table III).

    Every computational instruction is emitted three times over three
    independent register files (master + two shadows); inputs (loads, call
    results, allocas, parameters) are replicated with moves; and before
    every synchronization instruction each register operand is
    majority-voted with a branchless compare+select and repaired in all
    three copies (Fig. 5b).  Control flow and memory stay single-copy. *)

open Ir
open Instr

exception Unsupported of string

type st = {
  s2 : reg array;  (** rid -> shadow copy 2 *)
  s3 : reg array;  (** rid -> shadow copy 3 *)
  mutable nextr : int;
  mutable cur : t list;  (** reversed *)
  repair : bool;  (** write the majority back into all three copies *)
}

let fresh st ty =
  let r = { rid = st.nextr; rname = "w"; rty = ty } in
  st.nextr <- st.nextr + 1;
  r

let emit st i = st.cur <- i :: st.cur

let sub_operand (map : reg array) (o : operand) : operand =
  match o with Reg r -> Reg map.(r.rid) | o -> o

let sub_instr (map : reg array) (i : t) : t =
  let s = sub_operand map in
  match i with
  | Binop (r, op, a, b) -> Binop (map.(r.rid), op, s a, s b)
  | Fbinop (r, op, a, b) -> Fbinop (map.(r.rid), op, s a, s b)
  | Icmp (r, cc, a, b) -> Icmp (map.(r.rid), cc, s a, s b)
  | Fcmp (r, cc, a, b) -> Fcmp (map.(r.rid), cc, s a, s b)
  | Select (r, c, a, b) -> Select (map.(r.rid), s c, s a, s b)
  | Cast (r, k, o) -> Cast (map.(r.rid), k, s o)
  | Mov (r, o) -> Mov (map.(r.rid), s o)
  | _ -> invalid_arg "Swiftr_pass.sub_instr: not a computational instruction"

(* Scalar bit-equality (floats compare on their encodings). *)
let lane_eq st (a : operand) (b : operand) : operand =
  let t = operand_ty None a in
  let c = fresh st Types.i1 in
  (match Types.elem t with
  | Types.F32 | Types.F64 ->
      let ity = if Types.elem t = Types.F32 then Types.i32 else Types.i64 in
      let ai = fresh st ity and bi = fresh st ity in
      emit st (Cast (ai, Bitcast, a));
      emit st (Cast (bi, Bitcast, b));
      emit st (Icmp (c, Ieq, Reg ai, Reg bi))
  | _ -> emit st (Icmp (c, Ieq, a, b)));
  Reg c

(* majority(r, r', r''): if the master agrees with shadow 2 it wins,
   otherwise shadow 3 holds the majority value (single-fault model). *)
let vote st (o : operand) : operand =
  match o with
  | Reg r ->
      let r2 = st.s2.(r.rid) and r3 = st.s3.(r.rid) in
      let c = lane_eq st (Reg r) (Reg r2) in
      let m = fresh st r.rty in
      emit st (Select (m, c, Reg r, Reg r3));
      if st.repair then begin
        emit st (Mov (r, Reg m));
        emit st (Mov (r2, Reg m));
        emit st (Mov (r3, Reg m))
      end;
      Reg m
  | o -> o

(* Replicates a freshly produced input into the shadow copies. *)
let replicate st (r : reg) =
  emit st (Mov (st.s2.(r.rid), Reg r));
  emit st (Mov (st.s3.(r.rid), Reg r))

let xform_instr st (i : t) =
  match i with
  | Binop _ | Fbinop _ | Icmp _ | Fcmp _ | Select _ | Cast _ | Mov _ ->
      emit st i;
      emit st (sub_instr st.s2 i);
      emit st (sub_instr st.s3 i)
  | Load (r, a) ->
      let va = vote st a in
      emit st (Load (r, va));
      replicate st r
  | Store (v, a) ->
      let vv = vote st v in
      let va = vote st a in
      emit st (Store (vv, va))
  | Alloca (r, _) ->
      emit st i;
      replicate st r
  | Call (r, name, args) ->
      let vargs = List.map (vote st) args in
      emit st (Call (r, name, vargs));
      (match r with Some r -> replicate st r | None -> ())
  | Call_ind (r, rt, fp, args) ->
      let vfp = vote st fp in
      let vargs = List.map (vote st) args in
      emit st (Call_ind (r, rt, vfp, vargs));
      (match r with Some r -> replicate st r | None -> ())
  | Atomic_rmw (r, op, addr, x) ->
      let va = vote st addr in
      let vx = vote st x in
      emit st (Atomic_rmw (r, op, va, vx));
      replicate st r
  | Cmpxchg (r, addr, e, d) ->
      let va = vote st addr in
      let ve = vote st e in
      let vd = vote st d in
      emit st (Cmpxchg (r, va, ve, vd));
      replicate st r
  | Extractlane _ | Insertlane _ | Broadcast _ | Shuffle _ | Ptestz _ | Gather _
  | Scatter _ ->
      raise (Unsupported "input program already contains vector instructions")

let xform_term st (term : terminator) : terminator =
  match term with
  | Ret (Some o) -> Ret (Some (vote st o))
  | Cond_br (c, t, f) -> Cond_br (vote st c, t, f)
  | (Ret None | Br _ | Unreachable) as t -> t
  | Vbr _ | Vbr_unchecked _ ->
      raise (Unsupported "input program already contains vector branches")

let xform_func ?(repair = true) (f : func) =
  let tys = Elzar_pass.reg_scalar_types f in
  let nextr = ref f.next_reg in
  let mk () =
    Array.init f.next_reg (fun rid ->
        let ty = match tys.(rid) with Some t -> t | None -> Types.i64 in
        let r = { rid = !nextr; rname = "w"; rty = ty } in
        incr nextr;
        r)
  in
  let s2 = mk () in
  let s3 = mk () in
  let st = { s2; s3; nextr = !nextr; cur = []; repair } in
  let blocks =
    List.map
      (fun (l, (b : block)) ->
        st.cur <- [];
        List.iter (xform_instr st) b.instrs;
        let term = xform_term st b.term in
        (l, { instrs = List.rev st.cur; term }))
      f.blocks
  in
  (* prologue block replicating the parameters *)
  st.cur <- [];
  List.iter (fun (p : reg) -> replicate st p) f.params;
  let entry = entry_label f in
  let prologue = ("w.entry", { instrs = List.rev st.cur; term = Br entry }) in
  f.blocks <- prologue :: blocks;
  f.next_reg <- st.nextr;
  f.loops <- []

(* Triplicates every [hardened] function of the module in place. *)
let run ?(repair = true) (m : modul) : unit =
  List.iter (fun (f : func) -> if f.hardened then xform_func ~repair f) m.funcs

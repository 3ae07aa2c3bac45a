(** The ELZAR transformation (paper §III-C, §IV-A).

    Data, not instructions, is replicated: every protected register becomes
    a YMM vector holding four or more copies of its value, computational
    instructions become their AVX counterparts, and synchronization
    instructions (loads, stores, branches, calls, atomics, returns) are
    wrapped with [extractlane]/[broadcast] plus the shuffle-xor-ptest checks
    of Fig. 8.  Branches use the AVX comparison + [ptest] sequence of
    Figs. 7/9 ([Vbr]); a mixed true/false mask diverts to an out-of-line
    recovery block that majority-votes the faulty register.  Function
    signatures are unchanged, so unhardened libraries and builtins are
    called transparently (§III-B).

    With [future_avx] set, loads and stores become the FPGA-checked
    [gather]/[scatter] accesses of §VII and vector branches lower to the
    proposed FLAGS-setting comparisons: the wrappers and memory checks
    disappear, which is what Fig. 17 estimates. *)

open Ir
open Instr

exception Unsupported of string

type st = {
  cfg : Harden_config.t;
  mutable nextr : int;
  mutable nlab : int;
  vmap : reg option array;  (** original rid -> vector counterpart *)
  mutable cur_label : string;
  mutable cur : t list;  (** current block, reversed *)
  mutable out : (string * block) list;  (** finished blocks, reversed *)
  mutable extra : (string * block) list;  (** out-of-line recovery blocks *)
  mutable fatal : string option;
}

let fresh st ?(name = "z") ty =
  let r = { rid = st.nextr; rname = name; rty = ty } in
  st.nextr <- st.nextr + 1;
  r

let flabel st prefix =
  st.nlab <- st.nlab + 1;
  String.concat "" [ "z."; prefix; string_of_int st.nlab ]

let emit st i = st.cur <- i :: st.cur

let close st term =
  st.out <- (st.cur_label, { instrs = List.rev st.cur; term }) :: st.out;
  st.cur <- []

let open_block st l = st.cur_label <- l

let protect_scalar (cfg : Harden_config.t) (s : Types.scalar) =
  match cfg.mode with
  | Harden_config.Full -> true
  | Harden_config.Floats_only -> Types.is_float s

let prot st (r : reg) = Option.is_some st.vmap.(r.rid)

let vreg st (r : reg) =
  match st.vmap.(r.rid) with
  | Some v -> v
  | None -> invalid_arg ("Elzar_pass.vreg: unprotected register " ^ r.rname)

let canonical_mask_ty = Types.Vector (Types.I64, 4)

(* Maps an operand into the vector domain; unprotected registers and
   link-time constants pass through (constants splat for free). *)
let vop st (o : operand) : operand =
  match o with
  | Reg r -> ( match st.vmap.(r.rid) with Some v -> Reg v | None -> o)
  | Imm (Types.Scalar Types.I1, v) ->
      Imm (canonical_mask_ty, if v <> 0L then -1L else 0L)
  | Imm (Types.Scalar s, v) -> Imm (Types.ymm_of s, v)
  | Fimm (Types.Scalar s, v) -> Fimm (Types.ymm_of s, v)
  | Glob _ | Fref _ -> o
  | Imm (Types.Vector _, _) | Fimm (Types.Vector _, _) ->
      raise (Unsupported "vector immediate in input program")

let rotate_perm n = Array.init n (fun j -> (j + 1) mod n)

(* Scalar bit-equality of two lanes; floats compare on their encodings so
   that recovery is exact even around NaNs. *)
let lane_eq st (a : reg) (b : reg) : reg * t list =
  let s = match a.rty with Types.Scalar s -> s | _ -> assert false in
  let c = fresh st ~name:"eq" Types.i1 in
  if Types.is_float s then begin
    let ity = if s = Types.F32 then Types.i32 else Types.i64 in
    let ai = fresh st ~name:"bits" ity and bi = fresh st ~name:"bits" ity in
    ( c,
      [
        Cast (ai, Bitcast, Reg a);
        Cast (bi, Bitcast, Reg b);
        Icmp (c, Ieq, Reg ai, Reg bi);
      ] )
  end
  else (c, [ Icmp (c, Ieq, Reg a, Reg b) ])

let ensure_fatal st =
  match st.fatal with
  | Some l -> l
  | None ->
      let l = "z.fatal" in
      st.extra <- (l, { instrs = [ Call (None, "elzar_fatal", []) ]; term = Unreachable }) :: st.extra;
      st.fatal <- Some l;
      l

(* Builds the out-of-line recovery block(s) that repair vector register [v]
   and continue with [resume]; returns the entry label (paper §III-C step 3:
   the slow path need not be fast, only correct). *)
let recovery st (v : reg) (resume : terminator) : string =
  let s, n =
    match v.rty with Types.Vector (s, n) -> (s, n) | _ -> assert false
  in
  let sc = Types.Scalar s in
  let lab = flabel st "recover" in
  let ex i =
    let e = fresh st ~name:"lane" sc in
    (e, Extractlane (e, Reg v, i))
  in
  (match st.cfg.recovery with
  | Harden_config.Basic ->
      (* compare the two low elements; broadcast the low or the high one *)
      let e0, i0 = ex 0 and e1, i1 = ex 1 and en, ilast = ex (n - 1) in
      let c, eq_is = lane_eq st e0 e1 in
      let m = fresh st ~name:"maj" sc in
      let instrs =
        [ Call (None, "elzar_recovered", []); i0; i1; ilast ]
        @ eq_is
        @ [ Select (m, Reg c, Reg e0, Reg en); Broadcast (v, Reg m) ]
      in
      st.extra <- (lab, { instrs; term = resume }) :: st.extra
  | Harden_config.Extended | Harden_config.Reexec _ ->
      (* full 4-element analysis (paper §III-C step 3, extended strategy):
         (1) >=3 identical -> broadcast the majority;
         (2) exactly one agreeing pair -> broadcast the pair's value;
         (3) two 2-2 groups or all distinct -> no majority.
         The cases are distinguished by the number of agreeing element
         pairs: >=3, exactly 1, and anything else respectively.
         [Extended] fail-stops on no majority; [Reexec k] re-extracts the
         lanes and retries the vote up to [k] times, then calls the
         [elzar_reexec] runtime (checkpointed re-execution of the whole
         hardened call) before the machine finally fail-stops. *)
      let vote_analysis () =
        let e0, i0 = ex 0 and e1, i1 = ex 1 in
        let e2, i2 = ex 2 and e3, i3 = ex (min 3 (n - 1)) in
        let pairs = [ (e0, e1); (e0, e2); (e0, e3); (e1, e2); (e1, e3); (e2, e3) ] in
        let eqs = List.map (fun (a, b) -> lane_eq st a b) pairs in
        let total = fresh st ~name:"total" Types.i64 in
        let count_is =
          List.concat_map
            (fun (c, _) ->
              let z = fresh st ~name:"z" Types.i64 in
              [ Cast (z, Zext, Reg c); Binop (total, Add, Reg total, Reg z) ])
            eqs
        in
        let cs = List.map fst eqs in
        let c01, c02, c03, c12, c13 =
          match cs with
          | [ a; b; c; d; e; _ ] -> (a, b, c, d, e)
          | _ -> assert false
        in
        (* an element belonging to some agreeing pair: e0 if it matches
           anything, else e1, else e2 (a pair not involving e0/e1 must be
           (e2,e3)) *)
        let e0any1 = fresh st ~name:"p" Types.i1 in
        let e0any = fresh st ~name:"p" Types.i1 in
        let e1any = fresh st ~name:"p" Types.i1 in
        let m12 = fresh st ~name:"m12" sc in
        let m = fresh st ~name:"maj" sc in
        let pick_is =
          [
            Binop (e0any1, Or, Reg c01, Reg c02);
            Binop (e0any, Or, Reg e0any1, Reg c03);
            Binop (e1any, Or, Reg c12, Reg c13);
            Select (m12, Reg e1any, Reg e1, Reg e2);
            Select (m, Reg e0any, Reg e0, Reg m12);
          ]
        in
        let has_majority = fresh st ~name:"hasmaj" Types.i1 in
        let is_pair = fresh st ~name:"ispair" Types.i1 in
        let instrs =
          [ i0; i1; i2; i3; Mov (total, Imm (Types.i64, 0L)) ]
          @ List.concat_map snd eqs @ count_is @ pick_is
          @ [
              Icmp (has_majority, Isge, Reg total, Imm (Types.i64, 3L));
              Icmp (is_pair, Ieq, Reg total, Imm (Types.i64, 1L));
            ]
        in
        (instrs, has_majority, is_pair, m)
      in
      (match st.cfg.recovery with
      | Harden_config.Extended ->
          let instrs, has_majority, is_pair, m = vote_analysis () in
          let head = Call (None, "elzar_recovered", []) :: instrs in
          let vote = flabel st "vote" in
          let chk_pair = flabel st "pair" in
          let fatal = ensure_fatal st in
          st.extra <-
            (vote, { instrs = [ Broadcast (v, Reg m) ]; term = resume })
            :: (chk_pair, { instrs = []; term = Cond_br (Reg is_pair, vote, fatal) })
            :: (lab, { instrs = head; term = Cond_br (Reg has_majority, vote, chk_pair) })
            :: st.extra
      | Harden_config.Reexec k ->
          let tries = fresh st ~name:"tries" Types.i64 in
          let exhausted = fresh st ~name:"exh" Types.i1 in
          let loop = flabel st "revote" in
          let chk_pair = flabel st "pair" in
          let retry = flabel st "retry" in
          let reex = flabel st "reexec" in
          let vote = flabel st "vote" in
          let instrs, has_majority, is_pair, m = vote_analysis () in
          st.extra <-
            (vote, { instrs = [ Broadcast (v, Reg m) ]; term = resume })
            :: ( reex,
                 { instrs = [ Call (None, "elzar_reexec", []) ]; term = Unreachable } )
            :: ( retry,
                 {
                   instrs =
                     [
                       Call (None, "elzar_retried", []);
                       Binop (tries, Add, Reg tries, Imm (Types.i64, 1L));
                       Icmp (exhausted, Isge, Reg tries, Imm (Types.i64, Int64.of_int k));
                     ];
                   term = Cond_br (Reg exhausted, reex, loop);
                 } )
            :: (chk_pair, { instrs = []; term = Cond_br (Reg is_pair, vote, retry) })
            :: (loop, { instrs; term = Cond_br (Reg has_majority, vote, chk_pair) })
            :: ( lab,
                 {
                   instrs =
                     [ Call (None, "elzar_recovered", []); Mov (tries, Imm (Types.i64, 0L)) ];
                   term = Br loop;
                 } )
            :: st.extra
      | Harden_config.Basic -> assert false));
  lab

(* Inserts the shuffle-xor-ptest check of Fig. 8 on a protected register
   operand, splitting the current block; faults divert to recovery. *)
let emit_check st (o : operand) =
  match o with
  | Reg r when prot st r ->
      let v = vreg st r in
      let n = Types.lanes v.rty in
      if n >= 2 then begin
        let sh = fresh st ~name:"shuf" v.rty in
        emit st (Shuffle (sh, Reg v, rotate_perm n));
        let x = fresh st ~name:"diff" v.rty in
        emit st (Binop (x, Xor, Reg v, Reg sh));
        let z = fresh st ~name:"allz" Types.i1 in
        emit st (Ptestz (z, Reg x));
        let cont = flabel st "ok" in
        let rl = recovery st v (Br cont) in
        close st (Cond_br (Reg z, cont, rl));
        open_block st cont
      end
  | _ -> ()

(* Extracts one copy of a protected operand for use by a synchronization
   instruction (Fig. 6 left half). *)
let scalarize st (o : operand) : operand =
  match o with
  | Reg r when prot st r -> (
      let v = vreg st r in
      let s = match v.rty with Types.Vector (s, _) -> s | _ -> assert false in
      let e = fresh st ~name:"x" (Types.Scalar s) in
      emit st (Extractlane (e, Reg v, 0));
      match r.rty with
      | Types.Scalar Types.I1 ->
          (* i1 lives as a 64-bit mask lane inside vectors *)
          let c = fresh st ~name:"b" Types.i1 in
          emit st (Icmp (c, Ine, Reg e, Imm (Types.i64, 0L)));
          Reg c
      | _ -> Reg e)
  | o -> o

(* Replicates a just-produced scalar input (load result, call result,
   alloca, parameter) into its vector counterpart (Fig. 6 right half);
   booleans widen to a 64-bit lane and normalize to the canonical all-ones
   mask. *)
let replicate st (r : reg) (src : reg) =
  let v = vreg st r in
  let src =
    if Types.equal src.rty Types.i1 then begin
      let wide = fresh st ~name:"bw" Types.i64 in
      emit st (Cast (wide, Zext, Reg src));
      wide
    end
    else src
  in
  emit st (Broadcast (v, Reg src));
  if Types.equal r.rty Types.i1 then
    emit st (Icmp (v, Ine, Reg v, Imm (canonical_mask_ty, 0L)))

(* Canonicalizes a fresh comparison mask into an i1 register's <4 x i64>
   counterpart (the `sext <n x i1> to <4 x i64>` boilerplate of Fig. 10). *)
let canonicalize_mask st (dst : reg) (mask : reg) =
  let v = vreg st dst in
  if Types.equal mask.rty canonical_mask_ty then emit st (Mov (v, Reg mask))
  else emit st (Cast (v, Sext, Reg mask))

let splat_i ty v = Imm (ty, v)

(* ---- per-instruction rewriting ---- *)

let xform_cast st (r : reg) (k : cast) (o : operand) =
  let o_is_i1 = Types.equal (operand_ty None o) Types.i1 in
  let src_prot_reg = match o with Reg x -> prot st x | _ -> false in
  let src_unprot_reg = match o with Reg x -> not (prot st x) | _ -> false in
  if not (prot st r) then
    if src_prot_reg then begin
      (* protected -> unprotected boundary (floats-only mode): extract *)
      let s = scalarize st o in
      emit st (Cast (r, k, s))
    end
    else emit st (Cast (r, k, o))
  else if src_unprot_reg then begin
    (* unprotected -> protected boundary: compute scalar, then replicate *)
    let tmp = fresh st ~name:"cv" r.rty in
    emit st (Cast (tmp, k, o));
    replicate st r tmp
  end
  else if o_is_i1 then begin
    (* source is a canonical <4 x i64> mask *)
    let v = vreg st r in
    match k with
    | Zext ->
        let one = fresh st ~name:"bit" canonical_mask_ty in
        emit st (Binop (one, And, vop st o, splat_i canonical_mask_ty 1L));
        if Types.equal v.rty canonical_mask_ty then emit st (Mov (v, Reg one))
        else emit st (Cast (v, Trunc, Reg one))
    | Sext ->
        let norm = fresh st ~name:"mask" canonical_mask_ty in
        emit st (Icmp (norm, Ine, vop st o, splat_i canonical_mask_ty 0L));
        if Types.equal v.rty canonical_mask_ty then emit st (Mov (v, Reg norm))
        else emit st (Cast (v, Trunc, Reg norm))
    | _ -> raise (Unsupported "non-extension cast from i1")
  end
  else if Types.equal r.rty Types.i1 then begin
    (* truncation to i1: keep the low bit, produce a canonical mask *)
    let src_v = vop st o in
    let vt =
      match src_v with
      | Reg v -> v.rty
      | Imm (t, _) | Fimm (t, _) -> t
      | Glob _ | Fref _ -> assert false
    in
    let bit = fresh st ~name:"bit" vt in
    emit st (Binop (bit, And, src_v, splat_i vt 1L));
    let s, n = match vt with Types.Vector (s, n) -> (s, n) | _ -> assert false in
    let mask = fresh st ~name:"m" (Types.Vector (Types.mask_elem s, n)) in
    emit st (Icmp (mask, Ine, Reg bit, splat_i vt 0L));
    canonicalize_mask st r mask
  end
  else emit st (Cast (vreg st r, k, vop st o))

let xform_cmp st ~is_f (r : reg) emit_cmp (a : operand) (b : operand) =
  ignore is_f;
  let prot_a = match a with Reg x -> prot st x | _ -> false in
  let prot_b = match b with Reg x -> prot st x | _ -> false in
  if not (prot_a || prot_b) then
    if prot st r then begin
      (* comparison of constants/unprotected values feeding a protected i1 *)
      let tmp = fresh st ~name:"c" Types.i1 in
      emit st (emit_cmp tmp a b);
      replicate st r tmp
    end
    else emit st (emit_cmp r a b)
  else begin
    let vt =
      match (vop st a, vop st b) with
      | Reg v, _ | _, Reg v -> v.rty
      | _ -> assert false
    in
    let s, n = match vt with Types.Vector (s, n) -> (s, n) | _ -> assert false in
    let mask = fresh st ~name:"m" (Types.Vector (Types.mask_elem s, n)) in
    emit st (emit_cmp mask (vop st a) (vop st b));
    if prot st r then canonicalize_mask st r mask
    else begin
      (* floats-only mode: reduce the mask to a scalar boolean *)
      let e = fresh st ~name:"x" (Types.Scalar (Types.mask_elem s)) in
      emit st (Extractlane (e, Reg mask, 0));
      emit st (Icmp (r, Ine, Reg e, Imm (Types.Scalar (Types.mask_elem s), 0L)))
    end
  end

let operand_protected st = function Reg r -> prot st r | _ -> false

let xform_instr st (i : t) =
  match i with
  | Binop (r, op, a, b) when prot st r ->
      emit st (Binop (vreg st r, op, vop st a, vop st b))
  | Fbinop (r, op, a, b) when prot st r ->
      emit st (Fbinop (vreg st r, op, vop st a, vop st b))
  | Binop _ | Fbinop _ -> emit st i
  | Icmp (r, cc, a, b) -> xform_cmp st ~is_f:false r (fun d x y -> Icmp (d, cc, x, y)) a b
  | Fcmp (r, cc, a, b) -> xform_cmp st ~is_f:true r (fun d x y -> Fcmp (d, cc, x, y)) a b
  | Select (r, c, a, b) when prot st r ->
      let vc =
        match c with
        | Reg x when prot st x -> Reg (vreg st x)
        | Imm (Types.Scalar Types.I1, v) -> Imm (canonical_mask_ty, if v <> 0L then -1L else 0L)
        | c -> c (* scalar i1 condition selects whole vectors (floats-only) *)
      in
      emit st (Select (vreg st r, vc, vop st a, vop st b))
  | Select (r, c, a, b) ->
      if operand_protected st a || operand_protected st b then begin
        let sa = scalarize st a and sb = scalarize st b in
        emit st (Select (r, c, sa, sb))
      end
      else emit st i
  | Cast (r, k, o) -> xform_cast st r k o
  | Mov (r, o) when prot st r -> emit st (Mov (vreg st r, vop st o))
  | Mov _ -> emit st i
  | Load (r, a) when prot st r ->
      if st.cfg.future_avx && operand_protected st a then
        (* FPGA-checked gather: no wrappers, no separate check (§VII-C) *)
        emit st (Gather (vreg st r, vop st a))
      else begin
        if st.cfg.check_loads then emit_check st a;
        let sa = scalarize st a in
        let s = fresh st ~name:"ld" r.rty in
        emit st (Load (s, sa));
        replicate st r s
      end
  | Load (r, a) ->
      if operand_protected st a then begin
        if st.cfg.check_loads then emit_check st a;
        emit st (Load (r, scalarize st a))
      end
      else emit st i
  | Store (v, a) ->
      let pv = operand_protected st v and pa = operand_protected st a in
      if st.cfg.future_avx && pv && pa then emit st (Scatter (vop st v, vop st a))
      else begin
        if st.cfg.check_stores then begin
          if pv && st.cfg.store_check_value then emit_check st v;
          if pa then emit_check st a
        end;
        let sv = if pv then scalarize st v else v in
        let sa = if pa then scalarize st a else a in
        emit st (Store (sv, sa))
      end
  | Alloca (r, n) when prot st r ->
      let s = fresh st ~name:"sp" Types.ptr in
      emit st (Alloca (s, n));
      replicate st r s
  | Alloca _ -> emit st i
  | Call (r, name, args) ->
      let sargs =
        List.map
          (fun a ->
            if operand_protected st a then begin
              if st.cfg.check_calls then emit_check st a;
              scalarize st a
            end
            else a)
          args
      in
      (match r with
      | Some r when prot st r ->
          let s = fresh st ~name:"ret" r.rty in
          emit st (Call (Some s, name, sargs));
          replicate st r s
      | _ -> emit st (Call (r, name, sargs)))
  | Call_ind (r, rt, fp, args) ->
      let sfp =
        if operand_protected st fp then begin
          if st.cfg.check_calls then emit_check st fp;
          scalarize st fp
        end
        else fp
      in
      let sargs =
        List.map
          (fun a ->
            if operand_protected st a then begin
              if st.cfg.check_calls then emit_check st a;
              scalarize st a
            end
            else a)
          args
      in
      (match r with
      | Some r when prot st r ->
          let s = fresh st ~name:"ret" r.rty in
          emit st (Call_ind (Some s, rt, sfp, sargs));
          replicate st r s
      | _ -> emit st (Call_ind (r, rt, sfp, sargs)))
  | Atomic_rmw (r, op, addr, x) ->
      let handle o =
        if operand_protected st o then begin
          if st.cfg.check_calls then emit_check st o;
          scalarize st o
        end
        else o
      in
      let sa = handle addr in
      let sx = handle x in
      if prot st r then begin
        let s = fresh st ~name:"old" r.rty in
        emit st (Atomic_rmw (s, op, sa, sx));
        replicate st r s
      end
      else emit st (Atomic_rmw (r, op, sa, sx))
  | Cmpxchg (r, addr, e, d) ->
      let handle o =
        if operand_protected st o then begin
          if st.cfg.check_calls then emit_check st o;
          scalarize st o
        end
        else o
      in
      let sa = handle addr in
      let se = handle e in
      let sd = handle d in
      if prot st r then begin
        let s = fresh st ~name:"old" r.rty in
        emit st (Cmpxchg (s, sa, se, sd));
        replicate st r s
      end
      else emit st (Cmpxchg (r, sa, se, sd))
  | Extractlane _ | Insertlane _ | Broadcast _ | Shuffle _ | Ptestz _ | Gather _
  | Scatter _ ->
      raise (Unsupported "input program already contains vector instructions")

let xform_term st (term : terminator) =
  match term with
  | Ret None | Br _ | Unreachable -> close st term
  | Ret (Some o) ->
      if operand_protected st o then begin
        if st.cfg.check_calls then emit_check st o;
        let s = scalarize st o in
        close st (Ret (Some s))
      end
      else close st (Ret (Some o))
  | Cond_br (c, tl, fl) -> (
      match c with
      | Reg r when prot st r ->
          let mask = vreg st r in
          if st.cfg.check_branches then begin
            (* recovery repairs the mask, then re-branches; a second mixed
               outcome means an uncorrectable pattern *)
            let fatal = ensure_fatal st in
            let rl = recovery st mask (Vbr (Reg mask, tl, fl, fatal)) in
            close st (Vbr (Reg mask, tl, fl, rl))
          end
          else close st (Vbr_unchecked (Reg mask, tl, fl))
      | _ -> close st term)
  | Vbr _ | Vbr_unchecked _ ->
      raise (Unsupported "input program already contains vector branches")

(* ---- whole-function / whole-module driver ---- *)

let reg_scalar_types (f : func) : Types.t option array =
  let tys = Array.make f.next_reg None in
  let note (r : reg) = if Option.is_none tys.(r.rid) then tys.(r.rid) <- Some r.rty in
  let note_operand = function Reg r -> note r | Imm _ | Fimm _ | Glob _ | Fref _ -> () in
  let note_instr i =
    iter_dest note i;
    iter_operands note_operand i
  in
  List.iter note f.params;
  List.iter
    (fun (_, (b : block)) ->
      List.iter note_instr b.instrs;
      iter_term_operands note_operand b.term)
    f.blocks;
  tys

let xform_func (cfg : Harden_config.t) (f : func) =
  let tys = reg_scalar_types f in
  let param_ids = List.map (fun (r : reg) -> r.rid) f.params in
  let vmap = Array.make f.next_reg None in
  let nextr = ref f.next_reg in
  Array.iteri
    (fun rid ty ->
      match ty with
      | Some (Types.Scalar s) when protect_scalar cfg s ->
          let vty = Types.ymm_of s in
          if List.mem rid param_ids then begin
            vmap.(rid) <- Some { rid = !nextr; rname = "v"; rty = vty };
            incr nextr
          end
          else vmap.(rid) <- Some { rid; rname = "v"; rty = vty }
      | Some (Types.Vector _) -> raise (Unsupported "input program already vectorized")
      | _ -> ())
    tys;
  let st =
    {
      cfg;
      nextr = !nextr;
      nlab = 0;
      vmap;
      cur_label = "z.entry";
      cur = [];
      out = [];
      extra = [];
      fatal = None;
    }
  in
  (* prologue: replicate protected parameters (§III-B "ILR replicates all
     inputs ... function arguments") *)
  let old_entry = entry_label f in
  List.iter (fun (p : reg) -> if prot st p then replicate st p p) f.params;
  close st (Br old_entry);
  List.iter
    (fun (l, (b : block)) ->
      open_block st l;
      List.iter (xform_instr st) b.instrs;
      xform_term st b.term)
    f.blocks;
  f.blocks <- List.rev st.out @ List.rev st.extra;
  f.next_reg <- st.nextr;
  f.loops <- []

(* Hardens every [hardened] function of the module in place. *)
let run ?(cfg = Harden_config.default) (m : modul) : unit =
  List.iter (fun (f : func) -> if f.hardened then xform_func cfg f) m.funcs

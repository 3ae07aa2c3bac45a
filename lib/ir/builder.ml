(** Imperative construction of IR modules.

    A builder holds a current function and a current basic block; emit
    helpers append instructions and return the destination as an operand, so
    straight-line code reads like the computation it performs.  Structured
    control flow ([if_], [while_], [for_]) manages labels and terminators;
    [for_] additionally records canonical-loop metadata for the
    auto-vectorizer. *)

open Instr

type t = {
  func : func;
  mutable cur : string;
  mutable nlabel : int;
}

let create_module () : modul = { funcs = []; globals = [] }

let global (m : modul) name size = m.globals <- { gname = name; gsize = size; ginit = None } :: m.globals

let func (m : modul) ?(hardened = true) ?ret name params : t * reg list =
  let params =
    List.mapi (fun i (n, ty) -> { rid = i; rname = n; rty = ty }) params
  in
  let f =
    {
      fname = name;
      params;
      ret_ty = ret;
      blocks = [ ("entry", { instrs = []; term = Unreachable }) ];
      next_reg = List.length params;
      loops = [];
      hardened;
    }
  in
  m.funcs <- m.funcs @ [ f ];
  ({ func = f; cur = "entry"; nlabel = 0 }, params)

let fresh b ?(name = "t") ty =
  let r = { rid = b.func.next_reg; rname = name; rty = ty } in
  b.func.next_reg <- b.func.next_reg + 1;
  r

let label b prefix =
  b.nlabel <- b.nlabel + 1;
  Printf.sprintf "%s%d" prefix b.nlabel

(* Creates an empty block without switching to it. *)
let declare_block b l =
  b.func.blocks <- b.func.blocks @ [ (l, { instrs = []; term = Unreachable }) ]

let switch_to b l = b.cur <- l

let block b l =
  declare_block b l;
  switch_to b l

let cur_block b = find_block b.func b.cur
let emit b i = (cur_block b).instrs <- (cur_block b).instrs @ [ i ]
let terminate b t = (cur_block b).term <- t

(* ---- immediates ---- *)

let i1c v : operand = Imm (Types.i1, if v then 1L else 0L)
let i8c v : operand = Imm (Types.i8, Int64.of_int v)
let i32c v : operand = Imm (Types.i32, Int64.of_int v)
let i64c v : operand = Imm (Types.i64, Int64.of_int v)
let ptrc v : operand = Imm (Types.ptr, Int64.of_int v)
let f64c v : operand = Fimm (Types.f64, v)

let ty_of (o : operand) = operand_ty None o

(* ---- value-producing emitters ---- *)

let binop b op x y =
  let r = fresh b (ty_of x) in
  emit b (Binop (r, op, x, y));
  Reg r

let add b x y = binop b Add x y
let sub b x y = binop b Sub x y
let mul b x y = binop b Mul x y
let sdiv b x y = binop b Sdiv x y
let udiv b x y = binop b Udiv x y
let srem b x y = binop b Srem x y
let urem b x y = binop b Urem x y
let and_ b x y = binop b And x y
let or_ b x y = binop b Or x y
let xor b x y = binop b Xor x y
let shl b x y = binop b Shl x y
let lshr b x y = binop b Lshr x y
let ashr b x y = binop b Ashr x y

let fbinop b op x y =
  let r = fresh b (ty_of x) in
  emit b (Fbinop (r, op, x, y));
  Reg r

let fadd b x y = fbinop b Fadd x y
let fsub b x y = fbinop b Fsub x y
let fmul b x y = fbinop b Fmul x y
let fdiv b x y = fbinop b Fdiv x y

let icmp b cc x y =
  let r = fresh b Types.i1 in
  emit b (Icmp (r, cc, x, y));
  Reg r

let fcmp b cc x y =
  let r = fresh b Types.i1 in
  emit b (Fcmp (r, cc, x, y));
  Reg r

let select b c x y =
  let r = fresh b (ty_of x) in
  emit b (Select (r, c, x, y));
  Reg r

let cast b kind ty x =
  let r = fresh b ty in
  emit b (Cast (r, kind, x));
  Reg r

let trunc b ty x = cast b Trunc ty x
let zext b ty x = cast b Zext ty x
let sext b ty x = cast b Sext ty x
let sitofp b ty x = cast b Sitofp ty x
let fptosi b ty x = cast b Fptosi ty x

let mov b x =
  let r = fresh b (ty_of x) in
  emit b (Mov (r, x));
  Reg r

let load b ty addr =
  let r = fresh b ty in
  emit b (Load (r, addr));
  Reg r

let store b v addr = emit b (Store (v, addr))

let alloca b size =
  let r = fresh b Types.ptr in
  emit b (Alloca (r, size));
  Reg r

let call b ?ret name args =
  match ret with
  | None ->
      emit b (Call (None, name, args));
      None
  | Some ty ->
      let r = fresh b ty in
      emit b (Call (Some r, name, args));
      Some (Reg r)

let callv b ~ret name args =
  match call b ~ret name args with
  | Some v -> v
  | None -> assert false

let call0 b name args = ignore (call b name args)

let call_ind b ?ret fp args =
  match ret with
  | None ->
      emit b (Call_ind (None, None, fp, args));
      None
  | Some ty ->
      let r = fresh b ty in
      emit b (Call_ind (Some r, Some ty, fp, args));
      Some (Reg r)

let atomic_rmw b op addr x =
  let r = fresh b (ty_of x) in
  emit b (Atomic_rmw (r, op, addr, x));
  Reg r

let cmpxchg b addr expected desired =
  let r = fresh b (ty_of expected) in
  emit b (Cmpxchg (r, addr, expected, desired));
  Reg r

(* Writes [v] into an existing register (loop accumulators etc.). *)
let assign b (r : reg) (v : operand) = emit b (Mov (r, v))

(* ---- address arithmetic ---- *)

(* addr + index * scale, all in the pointer domain.  Power-of-two scales
   become shifts, as x86 addressing/LEA would encode them. *)
let gep b base index scale =
  let idx =
    match ty_of index with
    | Types.Scalar Types.Ptr -> index
    | Types.Scalar Types.I64 -> cast b Bitcast Types.ptr index
    | _ -> cast b Zext Types.ptr index
  in
  let off =
    if scale = 1 then idx
    else if scale land (scale - 1) = 0 then
      let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
      binop b Shl idx (ptrc (log2 scale 0))
    else binop b Mul idx (ptrc scale)
  in
  binop b Add base off

(* ---- vector helpers (used by hardened code and the vectorizer) ---- *)

let extractlane b o lane =
  let r = fresh b (Types.Scalar (Types.elem (ty_of o))) in
  emit b (Extractlane (r, o, lane));
  Reg r

let insertlane b vec lane s =
  let r = fresh b (ty_of vec) in
  emit b (Insertlane (r, vec, lane, s));
  Reg r

let broadcast b vty s =
  let r = fresh b vty in
  emit b (Broadcast (r, s));
  Reg r

let shuffle b o perm =
  let r = fresh b (ty_of o) in
  emit b (Shuffle (r, o, perm));
  Reg r

let ptestz b o =
  let r = fresh b Types.i1 in
  emit b (Ptestz (r, o));
  Reg r

(* ---- control flow ---- *)

let ret b o = terminate b (Ret o)
let br b l = terminate b (Br l)
let cond_br b c t f = terminate b (Cond_br (c, t, f))

let if_ b cond ~then_ ?else_ () =
  let lt = label b "then" and le = label b "else" and lj = label b "join" in
  (match else_ with
  | Some _ -> cond_br b cond lt le
  | None -> cond_br b cond lt lj);
  block b lt;
  then_ ();
  br b lj;
  (match else_ with
  | Some f ->
      block b le;
      f ();
      br b lj
  | None -> ());
  block b lj

let while_ b ~cond ~body =
  let lh = label b "while.head" and lb = label b "while.body" and lx = label b "while.exit" in
  br b lh;
  block b lh;
  let c = cond () in
  cond_br b c lb lx;
  block b lb;
  body ();
  br b lh;
  block b lx

(* Canonical counted loop over [lo, hi) with unit step; records metadata for
   the auto-vectorizer.  The body receives the induction variable. *)
let for_ b ?(name = "i") ~lo ~hi body =
  let lh = label b "for.head"
  and lb = label b "for.body"
  and ll = label b "for.latch"
  and lx = label b "for.exit" in
  let i = fresh b ~name (ty_of lo) in
  assign b i lo;
  br b lh;
  block b lh;
  let c = icmp b Islt (Reg i) hi in
  cond_br b c lb lx;
  block b lb;
  body (Reg i);
  br b ll;
  block b ll;
  emit b (Binop (i, Add, Reg i, Imm (i.rty, 1L)));
  br b lh;
  block b lx;
  b.func.loops <-
    {
      l_header = lh;
      l_body = lb;
      l_latch = ll;
      l_exit = lx;
      l_ivar = i;
      l_lo = lo;
      l_hi = hi;
    }
    :: b.func.loops

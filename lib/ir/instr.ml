(** Instructions, basic blocks, functions and modules of the ELZAR IR.

    The IR is a register-transfer form rather than SSA: virtual registers may
    be assigned more than once, which keeps loops free of phi nodes and lets
    the hardening passes rewrite programs with a one-to-one register map.
    Control flow is structured into named basic blocks ending in a single
    terminator. *)

type reg = { rid : int; rname : string; rty : Types.t }

type operand =
  | Reg of reg
  | Imm of Types.t * int64  (** integer/pointer immediate; splat if vector *)
  | Fimm of Types.t * float  (** float immediate; splat if vector *)
  | Glob of string  (** address of a named global buffer (type ptr) *)
  | Fref of string  (** address of a named function (type ptr) *)

type binop =
  | Add
  | Sub
  | Mul
  | Sdiv
  | Udiv
  | Srem
  | Urem
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Ashr

type fbinop = Fadd | Fsub | Fmul | Fdiv

type icmp = Ieq | Ine | Islt | Isle | Isgt | Isge | Iult | Iule | Iugt | Iuge
type fcmp = Foeq | Fone | Folt | Fole | Fogt | Foge

type cast =
  | Trunc
  | Zext
  | Sext
  | Fptosi
  | Sitofp
  | Fpext
  | Fptrunc
  | Bitcast

type rmw = Rmw_add | Rmw_sub | Rmw_xchg | Rmw_and | Rmw_or

type t =
  | Binop of reg * binop * operand * operand
  | Fbinop of reg * fbinop * operand * operand
  | Icmp of reg * icmp * operand * operand
  | Fcmp of reg * fcmp * operand * operand
  | Select of reg * operand * operand * operand  (** cond, if-true, if-false *)
  | Cast of reg * cast * operand  (** target type is [reg.rty] *)
  | Mov of reg * operand  (** register copy / immediate materialization *)
  | Load of reg * operand  (** loads a [reg.rty] from a scalar address *)
  | Store of operand * operand  (** value, address *)
  | Alloca of reg * int  (** stack allocation of n bytes; yields ptr *)
  | Call of reg option * string * operand list
  | Call_ind of reg option * Types.t option * operand * operand list
      (** indirect call through a function pointer; snd is return type *)
  | Atomic_rmw of reg * rmw * operand * operand  (** returns old value *)
  | Cmpxchg of reg * operand * operand * operand
      (** addr, expected, desired; returns old value *)
  | Extractlane of reg * operand * int
  | Insertlane of reg * operand * int * operand  (** vec, lane, scalar *)
  | Broadcast of reg * operand  (** scalar replicated into all lanes *)
  | Shuffle of reg * operand * int array  (** lane permutation of one vector *)
  | Ptestz of reg * operand  (** i1 := all lanes of the vector are zero *)
  | Gather of reg * operand
      (** FPGA-checked gather (paper §VII): majority-votes the address
          lanes, performs one load, replicates the result *)
  | Scatter of operand * operand
      (** FPGA-checked scatter: majority-votes value and address lanes,
          performs one store *)

type terminator =
  | Ret of operand option
  | Br of string
  | Cond_br of operand * string * string  (** i1 cond, if-true, if-false *)
  | Vbr of operand * string * string * string
      (** mask vector; all-true target, all-false target, mixed target
          (fault detected -> recovery).  Lowers to [vptest]+[je]+[ja]. *)
  | Vbr_unchecked of operand * string * string
      (** AVX branch without the mixed-outcome check (the "no branch
          checks" configuration of Fig. 12); lowers to [vptest]+[jcc] *)
  | Unreachable

type block = { mutable instrs : t list; mutable term : terminator }

(* Loop metadata recorded by the builder's [for_] combinator; consumed by the
   auto-vectorizer. *)
type loop_info = {
  l_header : string;
  l_body : string;
  l_latch : string;
  l_exit : string;
  l_ivar : reg;  (** canonical induction variable: starts at l_lo, step +1 *)
  l_lo : operand;
  l_hi : operand;  (** exclusive upper bound, loop-invariant *)
}

type func = {
  fname : string;
  params : reg list;
  ret_ty : Types.t option;
  mutable blocks : (string * block) list;  (** in layout order; head = entry *)
  mutable next_reg : int;
  mutable loops : loop_info list;
  hardened : bool;  (** false = third-party/library code left unprotected *)
}

type global = { gname : string; gsize : int; ginit : string option }

type modul = {
  mutable funcs : func list;
  mutable globals : global list;
}

let operand_ty (m : modul option) (o : operand) : Types.t =
  ignore m;
  match o with
  | Reg r -> r.rty
  | Imm (t, _) -> t
  | Fimm (t, _) -> t
  | Glob _ | Fref _ -> Types.ptr

(* Destination register of an instruction, if any. *)
let dest = function
  | Binop (r, _, _, _)
  | Fbinop (r, _, _, _)
  | Icmp (r, _, _, _)
  | Fcmp (r, _, _, _)
  | Select (r, _, _, _)
  | Cast (r, _, _)
  | Mov (r, _)
  | Load (r, _)
  | Alloca (r, _)
  | Atomic_rmw (r, _, _, _)
  | Cmpxchg (r, _, _, _)
  | Extractlane (r, _, _)
  | Insertlane (r, _, _, _)
  | Broadcast (r, _)
  | Shuffle (r, _, _)
  | Ptestz (r, _)
  | Gather (r, _) ->
      Some r
  | Call (r, _, _) | Call_ind (r, _, _, _) -> r
  | Store _ | Scatter _ -> None

let operands = function
  | Binop (_, _, a, b)
  | Fbinop (_, _, a, b)
  | Icmp (_, _, a, b)
  | Fcmp (_, _, a, b)
  | Atomic_rmw (_, _, a, b) ->
      [ a; b ]
  | Select (_, c, a, b) | Cmpxchg (_, c, a, b) -> [ c; a; b ]
  | Cast (_, _, a)
  | Mov (_, a)
  | Load (_, a)
  | Broadcast (_, a)
  | Shuffle (_, a, _)
  | Ptestz (_, a)
  | Gather (_, a)
  | Extractlane (_, a, _) ->
      [ a ]
  | Insertlane (_, a, _, b) | Store (a, b) | Scatter (a, b) -> [ a; b ]
  | Call (_, _, args) -> args
  | Call_ind (_, _, f, args) -> f :: args
  | Alloca _ -> []

(* The allocation-free walks below visit what [dest], [operands] and
   [term_operands] return, in the same order, and a terminator's branch
   targets in the order they are written. *)
let iter_dest (g : reg -> unit) = function
  | Binop (r, _, _, _)
  | Fbinop (r, _, _, _)
  | Icmp (r, _, _, _)
  | Fcmp (r, _, _, _)
  | Select (r, _, _, _)
  | Cast (r, _, _)
  | Mov (r, _)
  | Load (r, _)
  | Alloca (r, _)
  | Atomic_rmw (r, _, _, _)
  | Cmpxchg (r, _, _, _)
  | Extractlane (r, _, _)
  | Insertlane (r, _, _, _)
  | Broadcast (r, _)
  | Shuffle (r, _, _)
  | Ptestz (r, _)
  | Gather (r, _)
  | Call (Some r, _, _)
  | Call_ind (Some r, _, _, _) ->
      g r
  | Call (None, _, _) | Call_ind (None, _, _, _) | Store _ | Scatter _ -> ()

let iter_operands (g : operand -> unit) = function
  | Binop (_, _, a, b)
  | Fbinop (_, _, a, b)
  | Icmp (_, _, a, b)
  | Fcmp (_, _, a, b)
  | Atomic_rmw (_, _, a, b)
  | Insertlane (_, a, _, b)
  | Store (a, b)
  | Scatter (a, b) ->
      g a;
      g b
  | Select (_, c, a, b) | Cmpxchg (_, c, a, b) ->
      g c;
      g a;
      g b
  | Cast (_, _, a)
  | Mov (_, a)
  | Load (_, a)
  | Broadcast (_, a)
  | Shuffle (_, a, _)
  | Ptestz (_, a)
  | Gather (_, a)
  | Extractlane (_, a, _) ->
      g a
  | Call (_, _, args) -> List.iter g args
  | Call_ind (_, _, f, args) ->
      g f;
      List.iter g args
  | Alloca _ -> ()

let exists_operand (p : operand -> bool) = function
  | Binop (_, _, a, b)
  | Fbinop (_, _, a, b)
  | Icmp (_, _, a, b)
  | Fcmp (_, _, a, b)
  | Atomic_rmw (_, _, a, b)
  | Insertlane (_, a, _, b)
  | Store (a, b)
  | Scatter (a, b) ->
      p a || p b
  | Select (_, c, a, b) | Cmpxchg (_, c, a, b) -> p c || p a || p b
  | Cast (_, _, a)
  | Mov (_, a)
  | Load (_, a)
  | Broadcast (_, a)
  | Shuffle (_, a, _)
  | Ptestz (_, a)
  | Gather (_, a)
  | Extractlane (_, a, _) ->
      p a
  | Call (_, _, args) -> List.exists p args
  | Call_ind (_, _, f, args) -> p f || List.exists p args
  | Alloca _ -> false

let iter_term_operands (g : operand -> unit) = function
  | Ret (Some o) | Cond_br (o, _, _) | Vbr (o, _, _, _) | Vbr_unchecked (o, _, _) -> g o
  | Ret None | Br _ | Unreachable -> ()

let iter_successors (g : string -> unit) = function
  | Ret _ | Unreachable -> ()
  | Br l -> g l
  | Cond_br (_, a, b) | Vbr_unchecked (_, a, b) ->
      g a;
      g b
  | Vbr (_, a, b, c) ->
      g a;
      g b;
      g c

let term_operands = function
  | Ret (Some o) -> [ o ]
  | Ret None | Br _ | Unreachable -> []
  | Cond_br (o, _, _) | Vbr (o, _, _, _) | Vbr_unchecked (o, _, _) -> [ o ]

(* Instruction classification used by the hardening passes (paper §III-B):
   synchronization instructions (memory and call-like operations, plus all
   terminators) are not replicated; computational ones are. *)
type klass = Computational | Memory | Callish

let classify = function
  | Binop _ | Fbinop _ | Icmp _ | Fcmp _ | Select _ | Cast _ | Mov _
  | Extractlane _ | Insertlane _ | Broadcast _ | Shuffle _ | Ptestz _ ->
      Computational
  | Load _ | Store _ | Gather _ | Scatter _ | Alloca _ -> Memory
  | Atomic_rmw _ | Cmpxchg _ | Call _ | Call_ind _ -> Callish

let find_func (m : modul) name = List.find_opt (fun f -> f.fname = name) m.funcs

let find_block (f : func) label =
  match List.assoc_opt label f.blocks with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "find_block: no %%%s in @%s" label f.fname)

let entry_label (f : func) =
  match f.blocks with
  | (l, _) :: _ -> l
  | [] -> invalid_arg (Printf.sprintf "entry_label: @%s has no blocks" f.fname)

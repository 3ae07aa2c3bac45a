(** Instructions, basic blocks, functions and modules of the ELZAR IR.

    The IR is a register-transfer form rather than SSA: virtual registers
    may be assigned more than once, which keeps loops free of phi nodes and
    lets the hardening passes rewrite programs with a one-to-one register
    map.  Control flow is structured into named basic blocks ending in a
    single terminator. *)

(** A virtual register.  [rid] is unique within a function; two [reg]
    values with the same [rid] denote the same storage (the hardening
    passes exploit this to retype a register in place). *)
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
type cast = Trunc | Zext | Sext | Fptosi | Sitofp | Fpext | Fptrunc | Bitcast
type rmw = Rmw_add | Rmw_sub | Rmw_xchg | Rmw_and | Rmw_or

type t =
  | Binop of reg * binop * operand * operand
  | Fbinop of reg * fbinop * operand * operand
  | Icmp of reg * icmp * operand * operand
      (** vector compares fill lanes with full-width all-ones/all-zero
          masks, like AVX [vpcmpeq*] *)
  | Fcmp of reg * fcmp * operand * operand
  | Select of reg * operand * operand * operand  (** cond, if-true, if-false *)
  | Cast of reg * cast * operand
      (** target type is [reg.rty]; vector casts with differing lane counts
          read source lane [j mod lanes] *)
  | Mov of reg * operand
  | Load of reg * operand  (** loads a [reg.rty] from a scalar address *)
  | Store of operand * operand  (** value, address *)
  | Alloca of reg * int  (** stack allocation of n bytes; yields ptr *)
  | Call of reg option * string * operand list
  | Call_ind of reg option * Types.t option * operand * operand list
  | Atomic_rmw of reg * rmw * operand * operand  (** returns old value *)
  | Cmpxchg of reg * operand * operand * operand
  | Extractlane of reg * operand * int
  | Insertlane of reg * operand * int * operand
  | Broadcast of reg * operand
  | Shuffle of reg * operand * int array
  | Ptestz of reg * operand  (** i1 := all lanes of the vector are zero *)
  | Gather of reg * operand
      (** FPGA-checked gather (paper §VII): majority-votes the address
          lanes, performs one load, replicates the result *)
  | Scatter of operand * operand
      (** FPGA-checked scatter: votes value and address lanes, stores once *)

type terminator =
  | Ret of operand option
  | Br of string
  | Cond_br of operand * string * string
  | Vbr of operand * string * string * string
      (** mask vector; all-true, all-false and mixed (fault -> recovery)
          targets; lowers to [vptest]+[je]+[ja] *)
  | Vbr_unchecked of operand * string * string
      (** AVX branch without the mixed-outcome check (Fig. 12's "no branch
          checks"); lowers to [vptest]+[jcc] *)
  | Unreachable

type block = { mutable instrs : t list; mutable term : terminator }

(** Loop metadata recorded by {!Builder.for_}; consumed by the
    auto-vectorizer. *)
type loop_info = {
  l_header : string;
  l_body : string;
  l_latch : string;
  l_exit : string;
  l_ivar : reg;
  l_lo : operand;
  l_hi : operand;
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
type modul = { mutable funcs : func list; mutable globals : global list }

(** Type of an operand ([Glob]/[Fref] are pointers). *)
val operand_ty : modul option -> operand -> Types.t

(** Destination register, if any. *)
val dest : t -> reg option

(** Register and immediate inputs, in evaluation order. *)
val operands : t -> operand list

val term_operands : terminator -> operand list

(** {2 Allocation-free walks}

    Each calls its function on what the list-returning function above
    returns, in the same order, without building the list. *)

val iter_dest : (reg -> unit) -> t -> unit
val iter_operands : (operand -> unit) -> t -> unit

(** [List.exists p (operands i)], stopping at the first hit. *)
val exists_operand : (operand -> bool) -> t -> bool

val iter_term_operands : (operand -> unit) -> terminator -> unit

(** A terminator's branch targets, in the order they are written. *)
val iter_successors : (string -> unit) -> terminator -> unit

(** Hardening classification (paper §III-B): synchronization instructions
    (memory and call-like, plus all terminators) are not replicated. *)
type klass = Computational | Memory | Callish

val classify : t -> klass
val find_func : modul -> string -> func option

(** @raise Invalid_argument when the label is unknown. *)
val find_block : func -> string -> block

(** @raise Invalid_argument when the function has no blocks. *)
val entry_label : func -> string

(** Imperative construction of IR modules.

    A builder holds a current function and a current basic block; emit
    helpers append instructions and return the destination as an operand.
    Structured control flow ([if_], [while_], [for_]) manages labels and
    terminators; [for_] additionally records canonical-loop metadata for
    the auto-vectorizer. *)

open Instr

type t = {
  func : func;
  mutable cur : string;  (** label of the block being appended to *)
  mutable nlabel : int;
}

val create_module : unit -> modul

(** [global m name size] declares a zero-initialized global buffer. *)
val global : modul -> string -> int -> unit

(** [func m name params] starts a new function and returns its builder and
    parameter registers.  [~hardened:false] marks third-party/library code
    that the hardening passes must leave untouched. *)
val func :
  modul -> ?hardened:bool -> ?ret:Types.t -> string -> (string * Types.t) list -> t * reg list

(** Fresh virtual register of the given type. *)
val fresh : t -> ?name:string -> Types.t -> reg

(** Fresh block label with the given prefix. *)
val label : t -> string -> string

(** Creates a block and makes it current. *)
val block : t -> string -> unit

val emit : t -> Instr.t -> unit
val terminate : t -> terminator -> unit

(** {1 Immediates} *)

val i1c : bool -> operand
val i8c : int -> operand
val i32c : int -> operand
val i64c : int -> operand
val ptrc : int -> operand
val f64c : float -> operand

(** {1 Value-producing emitters}

    Each appends one instruction to the current block and returns its
    destination. *)

val binop : t -> binop -> operand -> operand -> operand
val add : t -> operand -> operand -> operand
val sub : t -> operand -> operand -> operand
val mul : t -> operand -> operand -> operand
val sdiv : t -> operand -> operand -> operand
val udiv : t -> operand -> operand -> operand
val srem : t -> operand -> operand -> operand
val urem : t -> operand -> operand -> operand
val and_ : t -> operand -> operand -> operand
val or_ : t -> operand -> operand -> operand
val xor : t -> operand -> operand -> operand
val shl : t -> operand -> operand -> operand
val lshr : t -> operand -> operand -> operand
val ashr : t -> operand -> operand -> operand
val fbinop : t -> fbinop -> operand -> operand -> operand
val fadd : t -> operand -> operand -> operand
val fsub : t -> operand -> operand -> operand
val fmul : t -> operand -> operand -> operand
val fdiv : t -> operand -> operand -> operand
val icmp : t -> icmp -> operand -> operand -> operand
val fcmp : t -> fcmp -> operand -> operand -> operand
val select : t -> operand -> operand -> operand -> operand
val cast : t -> cast -> Types.t -> operand -> operand
val trunc : t -> Types.t -> operand -> operand
val zext : t -> Types.t -> operand -> operand
val sext : t -> Types.t -> operand -> operand
val sitofp : t -> Types.t -> operand -> operand
val fptosi : t -> Types.t -> operand -> operand
val mov : t -> operand -> operand
val load : t -> Types.t -> operand -> operand
val store : t -> operand -> operand -> unit
val alloca : t -> int -> operand

val call : t -> ?ret:Types.t -> string -> operand list -> operand option

(** [call] that must return a value. *)
val callv : t -> ret:Types.t -> string -> operand list -> operand

(** [call] for effect only. *)
val call0 : t -> string -> operand list -> unit

val call_ind : t -> ?ret:Types.t -> operand -> operand list -> operand option
val atomic_rmw : t -> rmw -> operand -> operand -> operand
val cmpxchg : t -> operand -> operand -> operand -> operand

(** Writes a value into an existing register (loop accumulators etc.). *)
val assign : t -> reg -> operand -> unit

(** [gep b base index scale] computes [base + index*scale] in the pointer
    domain; power-of-two scales become shifts, as x86 addressing would
    encode them. *)
val gep : t -> operand -> operand -> int -> operand

(** {1 Vector helpers} (used by hardened code and the vectorizer) *)

val extractlane : t -> operand -> int -> operand
val insertlane : t -> operand -> int -> operand -> operand
val broadcast : t -> Types.t -> operand -> operand
val shuffle : t -> operand -> int array -> operand
val ptestz : t -> operand -> operand

(** {1 Control flow} *)

val ret : t -> operand option -> unit
val br : t -> string -> unit
val cond_br : t -> operand -> string -> string -> unit

(** Structured conditional; creates then/else/join blocks. *)
val if_ : t -> operand -> then_:(unit -> unit) -> ?else_:(unit -> unit) -> unit -> unit

val while_ : t -> cond:(unit -> operand) -> body:(unit -> unit) -> unit

(** Canonical counted loop over [lo, hi) with unit step; records metadata
    for the auto-vectorizer.  The body receives the induction variable. *)
val for_ : t -> ?name:string -> lo:operand -> hi:operand -> (operand -> unit) -> unit

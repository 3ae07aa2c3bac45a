(** CFG dataflow analyses over the non-SSA IR: definite assignment (used by
    the verifier to catch pass bugs) and backward liveness / register
    pressure, all over bitsets of register ids in {!Regset}'s layout. *)

(** The id range [\[lo, hi)] covering every register a function mentions
    (parameters, destinations, operands, loop induction variables) and
    [\[0, next_reg)]; [lo <= 0]. *)
val reg_span : Instr.func -> int * int

(** A bitset of register ids over one function's {!reg_span}. *)
module Regset : sig
  type t

  (** [false] for ids outside the set's range. *)
  val mem : int -> t -> bool

  val cardinal : t -> int

  (** In increasing order. *)
  val elements : t -> int list
end

(** A function's blocks in layout order, indexed by label: one table per
    function, sized to its block count, that the verifier and the
    analyses share. *)
module Labels : sig
  type t

  val create : Instr.func -> t

  (** Number of blocks. *)
  val length : t -> int

  (** Label and block at a layout position. *)
  val label : t -> int -> string

  val block : t -> int -> Instr.block

  (** Layout position of the block with this label, [-1] if none; a
      repeated label resolves to its last block. *)
  val find : t -> string -> int

  (** Some label names more than one block. *)
  val has_duplicates : t -> bool
end

type cfg = {
  labels : string array;  (** by layout position *)
  index : Labels.t;
  preds : int list array;
  succs : int list array;
}

(** Edges to unknown labels are dropped. *)
val build_cfg : Instr.func -> cfg

(** Errors for registers read on some path before any definition
    (unreachable blocks are ignored). *)
val verify_defs : Instr.func -> string list

(** [verify_defs] for a caller that walks the function anyway: [create],
    then for each block in layout order [start_block] and a [read] of
    every operand and [write] of every destination of its instructions,
    in order, and a [read] of its terminator's operands; [check] then
    returns [verify_defs]'s errors. *)
module Defs : sig
  type t

  val create : blocks:int -> Instr.func -> t
  val start_block : t -> int -> unit
  val read : t -> Instr.operand -> unit
  val write : t -> Instr.reg -> unit

  (** [cfg] is the function's [build_cfg]. *)
  val check : t -> cfg -> Instr.func -> string list
end

type liveness = { live_in : Regset.t array; live_out : Regset.t array }

val liveness : Instr.func -> liveness

(** Peak number of simultaneously live registers: a register-pressure
    proxy (what makes real SWIFT-R spill on 16-register x86). *)
val max_pressure : Instr.func -> int

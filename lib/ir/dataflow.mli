(** CFG dataflow analyses over the non-SSA IR: definite assignment (used by
    the verifier to catch pass bugs) and backward liveness / register
    pressure, all over one register-set type, {!Regset}. *)

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

type cfg = {
  labels : string array;
  index : (string, int) Hashtbl.t;
  preds : int list array;
  succs : int list array;
}

val build_cfg : Instr.func -> cfg

(** Errors for registers read on some path before any definition
    (unreachable blocks are ignored). *)
val verify_defs : Instr.func -> string list

type liveness = { live_in : Regset.t array; live_out : Regset.t array }

val liveness : Instr.func -> liveness

(** Peak number of simultaneously live registers: a register-pressure
    proxy (what makes real SWIFT-R spill on 16-register x86). *)
val max_pressure : Instr.func -> int

(** Opt-in per-instruction-class cycle attribution.

    A table keyed by the same class strings {!Machine.class_of} feeds to
    the AVF table ("alu", "cmp", "mov", "load", ...), accumulating retired
    instructions and the simulated cycles their execution advanced the
    core clock by.  Supply one via [config.profile] to turn the hook on;
    with [None] the hook is not compiled into the closures at all
    (zero-cost-when-off).  Both engines attribute the same cycles.  Tables
    are single-machine state — do not share one across domains. *)

type t

val create : unit -> t

(** Fold one retired instruction of [cls]: +1 instruction, +[cycles]
    (clamped at 0) attributed cycles. *)
val add : t -> string -> cycles:int -> unit

(** [(class, instrs, cycles)] rows, sorted by descending cycles (ties by
    class name). *)
val rows : t -> (string * int * int) list

(** Totals over all classes: (instructions, cycles). *)
val total : t -> int * int

val pp : Format.formatter -> t -> unit

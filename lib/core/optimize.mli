(** Classic scalar optimizations (constant folding, block-local copy
    propagation and CSE, dead-code elimination), run before vectorization
    and hardening in every build flavour — the paper plugs ELZAR in after
    all -O3 passes (§IV-A).  Conservative under the non-SSA register
    model. *)

type stats = { folded : int; propagated : int; cse_hits : int; dce_removed : int }

val copy_propagate : Ir.Instr.func -> int
val local_cse : Ir.Instr.func -> int

(** Loop-invariant code motion over builder-recorded loops. *)
val licm : Ir.Instr.func -> int


(** Optimizes every function in place; returns aggregate statistics. *)
val run : Ir.Instr.modul -> stats

(** The ELZAR transformation (paper §III-C, §IV-A): data replication across
    YMM lanes, extract/broadcast wrappers and shuffle-xor-ptest checks on
    synchronization instructions, AVX-comparison branches ([Vbr]) and
    out-of-line majority-voting recovery blocks.  Function signatures are
    unchanged, so unhardened libraries and builtins are called
    transparently.  With [future_avx] the pass emits the gather/scatter and
    FLAGS-comparison forms of §VII instead. *)

exception Unsupported of string

(** Shared with {!Swiftr_pass}: the (first-seen) type of every register. *)
val reg_scalar_types : Ir.Instr.func -> Ir.Types.t option array

(** Hardens one function in place. *)
val xform_func : Harden_config.t -> Ir.Instr.func -> unit

(** Hardens every [hardened] function of the module in place. *)
val run : ?cfg:Harden_config.t -> Ir.Instr.modul -> unit

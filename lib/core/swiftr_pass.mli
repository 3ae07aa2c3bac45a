(** SWIFT-R instruction triplication (Reis et al.), the paper's ILR
    baseline: every computational instruction is emitted three times over
    independent register files; register operands of synchronization
    instructions are majority-voted with branchless compare+select before
    use (Fig. 5b). *)

exception Unsupported of string

(** [repair] controls whether voting writes the majority back into all
    three copies (the classic behaviour) or only feeds the consumer
    (ablation). *)
val xform_func : ?repair:bool -> Ir.Instr.func -> unit

(** Triplicates every [hardened] function of the module in place. *)
val run : ?repair:bool -> Ir.Instr.modul -> unit

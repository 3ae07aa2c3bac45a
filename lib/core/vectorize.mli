(** Conservative four-wide inner-loop auto-vectorizer, standing in for
    LLVM's in the paper's "native" builds; the "no-SIMD" builds of Fig. 1
    skip it.  Vectorizes canonical counted loops with straight-line bodies,
    provably unit-stride or invariant memory accesses, and recognizable
    integer reductions.  Strict IEEE: floating-point reductions and
    loop-carried dependences are rejected.  Like the compilers the paper
    studies, there is no profitability model — legal loops are vectorized
    even when that is slower. *)

(** Attempts every recorded loop of every function (in place); returns how
    many loops were vectorized. *)
val run : Ir.Instr.modul -> int

(** Catalogue of native builtins: the unhardened OS/pthreads/IO layer
    (paper §IV-A) plus the ELZAR runtime markers ([elzar_fatal],
    [elzar_recovered], [elzar_retried], [elzar_reexec]).  Semantics live
    in {!Machine}; this module fixes identities, arities and fixed cycle
    costs. *)

type spec = {
  id : int;
  name : string;
  arity : int;
  has_ret : bool;
  cycles : int;  (** fixed cost charged to the calling core *)
}

val specs : spec array
val find : string -> spec option
val get : int -> spec

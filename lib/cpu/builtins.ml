(** Catalogue of native builtins.

    Calls to functions not defined in the linked IR module resolve here.
    These model the parts the paper deliberately leaves unhardened — OS
    interfaces, pthreads, I/O (§IV-A: "their execution takes less than ~5%
    of the overall time") — plus the ELZAR runtime markers ([elzar_fatal],
    [elzar_recovered], [elzar_retried], [elzar_reexec]).  Semantics live
    in {!Machine}; this module only fixes identities, arities and fixed
    cycle costs. *)

type spec = {
  id : int;
  name : string;
  arity : int;
  has_ret : bool;
  cycles : int;  (** fixed cost charged to the calling core *)
}

let specs =
  [|
    { id = 0; name = "malloc"; arity = 1; has_ret = true; cycles = 120 };
    { id = 1; name = "free"; arity = 1; has_ret = false; cycles = 60 };
    { id = 2; name = "spawn"; arity = 2; has_ret = true; cycles = 1200 };
    { id = 3; name = "join"; arity = 1; has_ret = false; cycles = 300 };
    { id = 4; name = "lock"; arity = 1; has_ret = false; cycles = 30 };
    { id = 5; name = "unlock"; arity = 1; has_ret = false; cycles = 15 };
    { id = 6; name = "output_i64"; arity = 1; has_ret = false; cycles = 20 };
    { id = 7; name = "output_f64"; arity = 1; has_ret = false; cycles = 20 };
    { id = 8; name = "output_bytes"; arity = 2; has_ret = false; cycles = 40 };
    { id = 9; name = "rand64"; arity = 1; has_ret = true; cycles = 15 };
    { id = 10; name = "abort"; arity = 0; has_ret = false; cycles = 0 };
    { id = 11; name = "elzar_fatal"; arity = 0; has_ret = false; cycles = 0 };
    { id = 12; name = "elzar_recovered"; arity = 0; has_ret = false; cycles = 30 };
    { id = 13; name = "thread_id"; arity = 0; has_ret = true; cycles = 10 };
    { id = 14; name = "barrier"; arity = 2; has_ret = false; cycles = 80 };
    { id = 15; name = "elzar_retried"; arity = 0; has_ret = false; cycles = 30 };
    { id = 16; name = "elzar_reexec"; arity = 0; has_ret = false; cycles = 0 };
  |]

let find name = Array.find_opt (fun s -> s.name = name) specs
let get id = specs.(id)

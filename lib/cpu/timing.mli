(** Out-of-order superscalar timing engine, one instance per simulated
    core: 4-wide in-order dispatch into a 192-μop window, per-port issue
    with latencies and reciprocal throughputs from {!Cost}, a per-core
    memory pipe serializing L1 misses, and branch-mispredict flushes.
    Wall-clock cycles from this model underlie every normalized-runtime
    figure of the paper.  Each instruction is timed from a [plan] compiled
    once from its μop lowering, so only the dynamic residue of the model
    runs per dynamic instruction. *)

type t = {
  port_free : int array;
  mutable bus_free : int;
  mutable dispatch_cycle : int;
  mutable dispatch_used : int;
  mutable horizon : int;
  rob : int array;
  mutable rob_pos : int;
}

val width : int
val rob_size : int
val create : unit -> t

(** Independent deep copy (for machine snapshots). *)
val copy : t -> t

val reset : t -> unit

(** Current core clock. *)
val cycle : t -> int

(** Precompiled form of one μop: the static facts of a [Cost.uop]
    (decoded port set, chaining, memory class) that no dynamic instance
    needs to re-derive. *)
type uplan = {
  up_lat : int;
  up_ports : int array;  (** port indices decoded from the mask, ascending *)
  up_rt : int;
  up_chain : bool;
  up_load : bool;
  up_membus : bool;
}

(** Static cost plan of one instruction's μop sequence, compiled once per
    instruction by [Code.compile]. *)
type plan =
  | Pempty
  | Palu1 of uplan  (** exactly one μop, no memory side *)
  | Pseq of uplan array

val plan_of_uops : Cost.uop array -> plan

(** Issues one instruction's μops; [ready] is when its register inputs
    are available, [mem_lat] substitutes the latency of load μops.
    Returns the cycle its result is ready.  The timing entry point of
    both execution engines. *)
val exec : t -> ready:int -> mem_lat:int -> plan -> int

(** Branch misprediction: the front end restarts after the branch
    resolves, plus the flush penalty. *)
val mispredict : t -> resolved:int -> unit

(** Fixed-cost advancement (native builtins). *)
val advance : t -> int -> unit

(** Synchronization edge observed at absolute cycle [c] (join, lock
    hand-over): the core cannot proceed earlier. *)
val sync_to : t -> int -> unit

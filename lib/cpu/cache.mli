(** L1 data cache model: set-associative, LRU, 64-byte lines, with a
    next-line prefetch on miss (the effect of hardware stream prefetchers
    on unit-stride code).  Feeds load latencies and the L1-miss counters of
    the paper's Table II. *)

type t = {
  ways : int;
  sets : int;
  tags : int array;
  stamps : int array;
  mutable tick : int;
  mutable refs : int;
  mutable misses : int;
}

(** Defaults: 32 KB, 8 ways (64 sets).
    @raise Invalid_argument unless the geometry gives a power-of-two
    number of sets. *)
val create : ?size_kb:int -> ?ways:int -> unit -> t

(** Independent deep copy (for machine snapshots). *)
val copy : t -> t

val hit_latency : int
val miss_latency : int

(** Inserts a line without counting an access (prefetch path). *)
val insert : t -> int -> unit

(** Touches the line containing the address; returns the access latency. *)
val access : t -> int64 -> int

val miss_ratio : t -> float
val reset : t -> unit

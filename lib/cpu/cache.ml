(** L1 data cache model: 32 KB, 8-way set-associative, 64-byte lines, LRU.

    Only hit/miss classification is modeled (feeding load latency and the
    L1-miss counters of the paper's Table II); lower levels collapse into a
    single miss penalty. *)

type t = {
  ways : int;
  sets : int;
  tags : int array;  (** sets*ways entries; -1 = invalid *)
  stamps : int array;  (** LRU timestamps *)
  mutable tick : int;
  mutable refs : int;
  mutable misses : int;
}

let line_bits = 6

(* The set count must be a power of two: the set index is the line
   number masked by [sets - 1]. *)
let create ?(size_kb = 32) ?(ways = 8) () =
  let lines = size_kb * 1024 / 64 in
  let sets = if ways > 0 then lines / ways else 0 in
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Cache.create: %d KB over %d ways gives %d sets, not a power of two"
         size_kb ways sets);
  {
    ways;
    sets;
    tags = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    tick = 0;
    refs = 0;
    misses = 0;
  }

(* Independent deep copy, for machine snapshots. *)
let copy (c : t) : t =
  { c with tags = Array.copy c.tags; stamps = Array.copy c.stamps }

let hit_latency = 4
let miss_latency = 44

(* The way of the set at [base] that holds [line], or -1.  A top-level
   function of all it reads, so that a lookup allocates no closure. *)
let rec find_way (tags : int array) ~base ~ways line i =
  if i = ways then -1
  else if tags.(base + i) = line then i
  else find_way tags ~base ~ways line (i + 1)

let insert (c : t) (line : int) =
  let set = line land (c.sets - 1) in
  let base = set * c.ways in
  match find_way c.tags ~base ~ways:c.ways line 0 with
  | i when i >= 0 -> c.stamps.(base + i) <- c.tick
  | _ ->
      let victim = ref 0 in
      for i = 1 to c.ways - 1 do
        if c.stamps.(base + i) < c.stamps.(base + !victim) then victim := i
      done;
      c.tags.(base + !victim) <- line;
      c.stamps.(base + !victim) <- c.tick

(* Touches the line containing [addr]; returns the access latency.  A miss
   also triggers a next-line prefetch, so unit-stride streams (linreg, the
   runtime library's memcpy/bzero) stop missing — the effect hardware
   stream prefetchers have on the paper's testbed. *)
let access (c : t) (addr : int64) : int =
  c.tick <- c.tick + 1;
  c.refs <- c.refs + 1;
  let line = Int64.to_int (Int64.shift_right_logical addr line_bits) in
  let set = line land (c.sets - 1) in
  let base = set * c.ways in
  match find_way c.tags ~base ~ways:c.ways line 0 with
  | i when i >= 0 ->
      c.stamps.(base + i) <- c.tick;
      hit_latency
  | _ ->
      c.misses <- c.misses + 1;
      insert c line;
      insert c (line + 1);
      miss_latency

let miss_ratio (c : t) = if c.refs = 0 then 0.0 else float_of_int c.misses /. float_of_int c.refs

let reset (c : t) =
  Array.fill c.tags 0 (Array.length c.tags) (-1);
  Array.fill c.stamps 0 (Array.length c.stamps) 0;
  c.tick <- 0;
  c.refs <- 0;
  c.misses <- 0

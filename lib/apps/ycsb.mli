(** Host-side YCSB workload generator (Cooper et al.): workload A (50/50
    reads/updates, zipfian) and D (95/5, "latest"), encoded as (op, key)
    request streams preloaded into the application's request array. *)

type workload = A | D

val workload_to_string : workload -> string

type op = Read | Update

val generate : ?seed:int -> workload -> nkeys:int -> nreq:int -> (op * int) array

(** Writes the stream into the app's "reqs" global (16 bytes/request). *)
val install : Cpu.Machine.t -> (op * int) array -> unit

(** Common shape of the three case-study applications (paper §VI):
    a preloaded request stream processed to completion; the figure of merit
    is throughput at the simulated 2 GHz clock. *)

type client = Ycsb of Ycsb.workload | Ab  (** ab: constant static-page load *)

type t = {
  name : string;
  description : string;
  build : unit -> Ir.Instr.modul;
  init : client -> Cpu.Machine.t -> unit;
  nreq : int;
  clients : client list;  (** the client configurations the paper plots *)
}

val execute :
  ?machine_cfg:Cpu.Machine.config ->
  t ->
  build:Elzar.build ->
  client:client ->
  nthreads:int ->
  Cpu.Machine.result

(** Requests per second at the simulated clock. *)
val throughput : t -> Cpu.Machine.result -> float

val client_to_string : client -> string

(** Common shape of a benchmark workload: a linked IR module (kernels
    hardened, driver unhardened), host-side input preparation, and one
    entry point [main(nthreads)]. *)

type size = Tiny | Small | Medium | Large

val size_to_string : size -> string

type t = {
  name : string;
  description : string;
  build : size -> Ir.Instr.modul;
  init : size -> Cpu.Machine.t -> unit;
  fi_ok : bool;  (** part of the fault-injection campaign (Fig. 13) *)
}

val make :
  ?fi_ok:bool ->
  name:string ->
  description:string ->
  build:(size -> Ir.Instr.modul) ->
  ?init:(size -> Cpu.Machine.t -> unit) ->
  unit ->
  t

(** Builds, prepares under the chosen flavour, loads inputs and executes. *)
val execute :
  ?machine_cfg:Cpu.Machine.config ->
  t ->
  build:Elzar.build ->
  nthreads:int ->
  size:size ->
  Cpu.Machine.result

(** Same, from a module [Elzar.prepare build] already returned (prepare
    once, sweep threads); the machine is [Elzar.machine build]'s. *)
val execute_prepared :
  ?machine_cfg:Cpu.Machine.config ->
  t ->
  build:Elzar.build ->
  prepared:Ir.Instr.modul ->
  nthreads:int ->
  size:size ->
  Cpu.Machine.result

(** Fault-injection spec (paper defaults: smallest inputs, 2 threads). *)
val fi_spec :
  t -> build:Elzar.build -> ?nthreads:int -> ?size:size -> unit -> Fault.run_spec

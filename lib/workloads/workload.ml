(** Common shape of a benchmark workload.

    Each workload builds a linked IR module (kernel functions hardened,
    driver and input plumbing unhardened, mirroring the paper's build where
    musl is hardened but OS/pthreads/IO are not), describes how the host
    pokes input data into simulated memory (the analogue of reading the
    input files — free of simulated cycles), and exposes one entry point
    [main(nthreads)]. *)

type size = Tiny | Small | Medium | Large

let size_to_string = function
  | Tiny -> "tiny"
  | Small -> "small"
  | Medium -> "medium"
  | Large -> "large"

let sizes = [ Tiny; Small; Medium; Large ]

type t = {
  name : string;
  description : string;
  build : size -> Ir.Instr.modul;
  init : size -> Cpu.Machine.t -> unit;
  fi_ok : bool;  (** part of the fault-injection campaign (Fig. 13) *)
}

let make ?(fi_ok = true) ~name ~description ~build ?(init = fun _ _ -> ()) () =
  { name; description; build; init; fi_ok }

(* Runs an already prepared module (lets benchmarks prepare once and sweep
   thread counts): [prepared] must come from [Elzar.prepare build]. *)
let execute_prepared ?machine_cfg (w : t) ~(build : Elzar.build) ~(prepared : Ir.Instr.modul)
    ~(nthreads : int) ~(size : size) : Cpu.Machine.result =
  let machine = Elzar.machine ?cfg:machine_cfg build prepared in
  w.init size machine;
  Cpu.Machine.run ~args:[| Int64.of_int nthreads |] machine "main"

(* Builds, prepares (runs the pass pipeline of the chosen flavour), loads
   and executes a workload; the module is verified along the way. *)
let execute ?machine_cfg (w : t) ~(build : Elzar.build) ~(nthreads : int) ~(size : size) :
    Cpu.Machine.result =
  let prepared = Elzar.prepare build (w.build size) in
  execute_prepared ?machine_cfg w ~build ~prepared ~nthreads ~size

(* Fault-injection spec for this workload (paper: smallest inputs, 2
   threads). *)
let fi_spec (w : t) ~(build : Elzar.build) ?(nthreads = 2) ?(size = Tiny) () :
    Fault.run_spec =
  let m = w.build size in
  let prepared = Elzar.prepare build m in
  Fault.make_spec ~flags_cmp:(Elzar.uses_flags_cmp build)
    ~args:[| Int64.of_int nthreads |]
    ~init:(fun machine -> w.init size machine)
    ~reexec_retries:(Elzar.reexec_retries build) prepared "main"

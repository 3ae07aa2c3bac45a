(** Common shape of the three case-study applications (paper §VI).

    Applications process a preloaded request stream to completion; the
    figure of merit is throughput = requests / simulated seconds at the
    2 GHz clock of the paper's Haswell testbed. *)

type client = Ycsb of Ycsb.workload | Ab  (** ab: constant static-page load *)

type t = {
  name : string;
  description : string;
  build : unit -> Ir.Instr.modul;
  init : client -> Cpu.Machine.t -> unit;
  nreq : int;
  clients : client list;  (** the client configurations the paper plots *)
}

let clock_hz = 2.0e9

let execute ?machine_cfg (app : t) ~(build : Elzar.build) ~(client : client) ~(nthreads : int)
    : Cpu.Machine.result =
  let machine = Elzar.machine ?cfg:machine_cfg build (Elzar.prepare build (app.build ())) in
  app.init client machine;
  Cpu.Machine.run ~args:[| Int64.of_int nthreads |] machine "main"

(* Requests per second at the simulated clock. *)
let throughput (app : t) (r : Cpu.Machine.result) : float =
  float_of_int app.nreq /. (float_of_int r.Cpu.Machine.wall_cycles /. clock_hz)

let client_to_string = function
  | Ycsb wl -> "YCSB-" ^ Ycsb.workload_to_string wl
  | Ab -> "ab"

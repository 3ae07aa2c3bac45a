(** Public facade of the ELZAR framework.

    A build flavour turns a plain IR module into the artifact the paper
    benchmarks: the auto-vectorized native build, the vectorization-free
    native build (Fig. 1's baseline), an ELZAR-hardened build under a given
    {!Harden_config}, or the SWIFT-R triplicated baseline.  [run] then
    executes the prepared module on the simulated machine. *)

module Harden_config = Harden_config
module Elzar_pass = Elzar_pass
module Swiftr_pass = Swiftr_pass
module Vectorize = Vectorize
module Optimize = Optimize

type build =
  | Native  (** all optimizations, SIMD vectorization enabled *)
  | Native_novec  (** the "no-SIMD" build of Fig. 1 *)
  | Hardened of Harden_config.t  (** ELZAR *)
  | Swiftr  (** instruction-triplication baseline *)
  | Swiftr_norepair
      (** SWIFT-R with voting that picks the majority but does not write it
          back into the three copies (ablation) *)

(* The named builds: the CLI's [-b] values, under the names its reports
   record. *)
let builds =
  let h c = Hardened c in
  Harden_config.
    [
      ("native", Native);
      ("novec", Native_novec);
      ("elzar", h default);
      ("elzar-nochecks", h no_checks);
      ("elzar-floats", h floats_only);
      ("elzar-future", h future_avx);
      ("elzar-extended", h extended);
      ("elzar-reexec", h reexec);
      ("swiftr", Swiftr);
    ]

(* A build's name in [builds].  No front end names the builds outside it:
   [Swiftr_norepair] is "swiftr-norepair" and any other check ablation
   keeps the family name "elzar". *)
let build_name (b : build) =
  match List.find_opt (fun (_, b') -> b' = b) builds with
  | Some (name, _) -> name
  | None -> ( match b with Swiftr_norepair -> "swiftr-norepair" | _ -> "elzar")

(* Applies the pass pipeline for a build flavour to (a copy of) [m] and
   verifies the result.  Every flavour first runs the scalar optimizer —
   the paper's builds keep all -O3 passes on and plug the hardening in
   right before code generation (§IV-A). *)
let prepare (b : build) (m : Ir.Instr.modul) : Ir.Instr.modul =
  let m' = Ir.Linker.copy m in
  ignore (Optimize.run m');
  (match b with
  | Native -> ignore (Vectorize.run m')
  | Native_novec -> ()
  | Hardened cfg -> Elzar_pass.run ~cfg m'
  | Swiftr -> Swiftr_pass.run m'
  | Swiftr_norepair -> Swiftr_pass.run ~repair:false m');
  Ir.Verifier.verify_exn m';
  m'

let uses_flags_cmp = function
  | Hardened cfg -> cfg.Harden_config.future_avx
  | Native | Native_novec | Swiftr | Swiftr_norepair -> false

(* Re-execution budget the machine must be configured with for this build:
   nonzero only for ELZAR builds with [Reexec] recovery. *)
let reexec_retries = function
  | Hardened { Harden_config.recovery = Harden_config.Reexec k; _ } -> k
  | Hardened _ | Native | Native_novec | Swiftr | Swiftr_norepair -> 0

(* A machine for [prepared], a module [prepare b] returned: [cfg] with
   the build's re-execution budget merged in, and the build's flags-compare
   mode. *)
let machine ?(cfg = Cpu.Machine.default_config) (b : build) (prepared : Ir.Instr.modul) :
    Cpu.Machine.t =
  let cfg =
    { cfg with Cpu.Machine.reexec_retries = max cfg.Cpu.Machine.reexec_retries (reexec_retries b) }
  in
  Cpu.Machine.create ~cfg ~flags_cmp:(uses_flags_cmp b) prepared

(* Prepares and runs in one step. *)
let run ?machine_cfg ?(args = [||]) (b : build) (m : Ir.Instr.modul) (entry : string) :
    Cpu.Machine.result =
  Cpu.Machine.run ~args (machine ?cfg:machine_cfg b (prepare b m)) entry

(* Normalized runtime of a build against the native build, the unit of every
   performance figure in the paper. *)
let normalized_runtime ~(native : Cpu.Machine.result) (r : Cpu.Machine.result) : float =
  float_of_int r.Cpu.Machine.wall_cycles /. float_of_int (max 1 native.Cpu.Machine.wall_cycles)

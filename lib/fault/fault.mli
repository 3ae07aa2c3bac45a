(** Fault-injection framework (paper §IV-B): single bit-flips in the
    destination register of one randomly chosen dynamic instruction inside
    hardened code (one lane for YMM destinations, per the SEU model of
    §III-A), classified against a golden run into the outcomes of Table I.
    The expanded taxonomy additionally injects memory bit-flips,
    effective-address faults and control-flow faults (the §VII
    limitations) via {!Cpu.Machine.fault_kind}.  Whole campaigns are
    driven by {!Campaign}. *)

type outcome =
  | Hang  (** program became unresponsive (instruction budget exhausted) *)
  | Deadlock
      (** all threads blocked on each other — counted separately, folded
          into the crashed bucket for Table I *)
  | Os_detected  (** trap: segfault, division by zero, abort, fail-stop *)
  | Elzar_corrected  (** a recovery routine ran and the output is correct *)
  | Masked  (** fault did not affect the output *)
  | Sdc  (** silent data corruption in the output *)
  | Not_reached
      (** injection site never executed — no fault was injected; campaigns
          discard these and redraw rather than counting them as [Masked] *)

val outcome_to_string : outcome -> string

(** Fault-model axis of a campaign.  [Reg], [Mem], [Addr] and [Cf] select
    one {!Cpu.Machine.fault_kind}; [Double] is the two-flip register SEU of
    §III-C ([same_bit] flips the same bit in two lanes, the adversarial
    two-agreeing-corrupt-replicas pattern); [Mixed] draws a kind per
    experiment (uniformly among the kinds with at least one site in the
    golden run). *)
type model = Reg | Double of { same_bit : bool } | Mem | Addr | Cf | Mixed

val model_to_string : model -> string

(** Every model, [Double] under both [same_bit] values.  Their
    {!model_to_string} names (reg, double, double-any-bit, mem, addr, cf,
    mixed) are the values of the CLI's [--fault-model]. *)
val all_models : model list

(** Everything needed to run one experiment deterministically. *)
type run_spec = {
  modul : Ir.Instr.modul;  (** already prepared (hardened or native) *)
  flags_cmp : bool;
  entry : string;
  args : int64 array;
  init : Cpu.Machine.t -> unit;  (** host-side input preparation *)
  max_instrs : int;
  reexec_retries : int;  (** re-execution recovery budget of the build *)
  engine : Cpu.Machine.engine_kind;  (** execution engine for every run *)
}

(** [engine] defaults to [Cpu.Machine.default_config]'s. *)
val make_spec :
  ?flags_cmp:bool ->
  ?args:int64 array ->
  ?init:(Cpu.Machine.t -> unit) ->
  ?max_instrs:int ->
  ?reexec_retries:int ->
  ?engine:Cpu.Machine.engine_kind ->
  Ir.Instr.modul ->
  string ->
  run_spec

(** One pre-drawn experiment: the machine's armed fault
    ({!Cpu.Machine.inject}), which a run fires when the site stream of its
    kind ({!Cpu.Machine.kind_sites}) reaches [at].  For [Reg_flip]: flip
    [bit] of one lane of the destination of the [at]-th
    injection-eligible instruction, plus an optional second (lane, bit)
    flip for multi-bit SEUs (resolved to a non-aliasing target by
    {!Cpu.Machine.second_flip}).  The other kinds ignore
    [lane]/[second]. *)
type experiment = Cpu.Machine.inject = {
  at : int;
  lane : int;
  bit : int;
  second : (int * int) option;
  kind : Cpu.Machine.fault_kind;
}

(** Fault-free reference run.  Its three site counts (injection-eligible
    instructions, memory accesses, branches), which every run keeps, are
    what campaigns draw their plans against.
    @raise Invalid_argument if the reference run traps. *)
val golden : run_spec -> Cpu.Machine.result

(** {!golden}, additionally capturing machine snapshots along the run
    (oldest-first), for campaign fast-forward via
    {!run_experiment_from}.  Captures are spaced by dynamic instruction
    count and geometrically thinned, so at most a couple dozen are kept
    regardless of run length.  [spans] folds each capture's wall time
    into the ["golden/snapshot"] phase span. *)
val golden_capture :
  ?spans:Obs.Span.t -> run_spec -> Cpu.Machine.result * Cpu.Machine.snapshot array

(** Instruction budget for injection runs, derived from the golden run:
    [min spec.max_instrs (max 1_000_000 (20 * golden retired instrs))].
    Campaigns use this instead of the spec's (much larger) default budget
    so hung runs are cut off quickly. *)
val hang_budget : golden:Cpu.Machine.result -> run_spec -> int

(** Classification against the golden run.  A run whose injection site was
    never reached ([fault_injected = false]) is [Not_reached], not
    [Masked] — counting it as correct would inflate [correct_pct]. *)
val classify : golden:Cpu.Machine.result -> Cpu.Machine.result -> outcome

(** Runs one experiment and returns the raw machine result (outcome via
    {!classify}; simulated cycles via [wall_cycles]).  [max_instrs]
    overrides the spec's budget — campaigns pass {!hang_budget}.  [abort]
    is threaded into the machine config verbatim (the supervision hook of
    {!Cpu.Machine.config}); a run that was never aborted is bit-identical
    with or without it. *)
val run_experiment :
  ?max_instrs:int ->
  ?abort:(unit -> bool) ->
  run_spec ->
  experiment ->
  Cpu.Machine.result

(** {!run_experiment}, fast-forwarded: restores the latest of [snapshots]
    (a {!golden_capture} array) whose site-stream counter for the
    experiment's fault kind is still below [at], and resumes from there
    under the injecting config.  Bit-identical outcome to a from-scratch
    {!run_experiment} — the skipped prefix is deterministic and fault-free
    by construction.  Falls back to a full run when the site precedes the
    first snapshot.  [spans] folds each restore's wall time into the
    ["exec/restore"] phase span (recorders are thread-safe, so campaign
    workers may share one). *)
val run_experiment_from :
  ?max_instrs:int ->
  ?spans:Obs.Span.t ->
  ?abort:(unit -> bool) ->
  snapshots:Cpu.Machine.snapshot array ->
  run_spec ->
  experiment ->
  Cpu.Machine.result

type stats = {
  runs : int;
  hang : int;
  deadlock : int;
  os_detected : int;
  corrected : int;
  masked : int;
  sdc : int;
}

val empty_stats : stats

(** Folds one outcome into the counters.  [Not_reached] leaves the stats
    unchanged: such a run injected nothing and must not dilute the rates. *)
val add_outcome : stats -> outcome -> stats

(** The three Fig. 13 bars ([crashed_pct] includes deadlocks). *)
val crashed_pct : stats -> float

val correct_pct : stats -> float
val sdc_pct : stats -> float
val pp_stats : Format.formatter -> stats -> unit

(** Per-run observation kept by campaigns: outcome plus wall cycles,
    injection-site instruction class and detection latency. *)
type obs = {
  o_outcome : outcome;
  o_cycles : int;
  o_class : string option;
  o_latency : int option;
}

val observe : golden:Cpu.Machine.result -> Cpu.Machine.result -> obs

(** Mean detection latency (dynamic instructions) over the observations
    that detected their fault; [None] if none did. *)
val mean_latency : obs array -> float option

(** AVF-style table: per injection-site instruction class, outcome stats;
    sorted by descending SDC rate. *)
val avf_table : obs array -> (string * stats) list

val pp_avf : Format.formatter -> (string * stats) list -> unit

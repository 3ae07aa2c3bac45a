(** Supervision layer for fault-injection campaigns.

    The campaign engine assumes every experiment returns an observation;
    this module makes that assumption safe at scale.  It wraps
    {!Fault.run_experiment_from} with three defenses, modelled on RepTFD's
    bounded-replay discipline (PAPERS.md) applied to the harness itself:

    - {b host-exception isolation} — any exception escaping a run
      (simulator invariant violation, [Stack_overflow], [Out_of_memory])
      is captured with its backtrace and deterministically re-executed up
      to [retries] times; a persistent failure is quarantined into a
      {!tool_error} instead of killing the worker pool;
    - {b wall-clock deadline} — each run gets a deadline of
      [deadline_factor] x the running median of executed experiment times
      (floored at [deadline_floor]).  The run's own
      {!Cpu.Machine.config.abort} hook, which the machine polls once per
      quantum, checks the deadline and the cancel flag.  Aborted runs are
      retried once, then quarantined;
    - {b chaos injection} — a test-only plan (raise / hang / slow /
      kill-worker on chosen plan slots) whose action runs inside the abort
      hook on its first poll, proving each supervision path end-to-end
      against the real engine.

    Quarantined experiments carry no observation: they are excluded from
    campaign statistics (supervision may shrink the sample, never skew
    it), persisted in the campaign checkpoint so a resume never re-executes
    a known-poison plan, and surfaced in the report.  Every {!Campaign}
    entry point drives this module; tests may also call {!supervised_run}
    directly. *)

(** Why an experiment was quarantined. *)
type error_kind =
  | Host_exception  (** an exception escaped the run on every attempt *)
  | Deadline  (** the run overran its wall-clock deadline twice *)
  | Worker_death  (** an exception killed the worker loop while running the slot *)

val error_kind_to_string : error_kind -> string

(** A quarantined experiment: plan position, failure class, attempts
    consumed, and the exception text/backtrace (empty for deadlines).
    Everything except [te_backtrace] is deterministic under a chaos plan
    and is rendered into the report's results block. *)
type tool_error = {
  te_round : int;
  te_slot : int;
  te_kind : error_kind;
  te_attempts : int;
  te_detail : string;
  te_backtrace : string;
}

type config = {
  retries : int;  (** re-executions of a raising run before quarantine *)
  deadline_factor : float;  (** deadline = factor x running median *)
  deadline_floor : float;  (** never deadline below this many seconds *)
}

(** [{ retries = 2; deadline_factor = 10.0; deadline_floor = 5.0 }] *)
val default : config

(** {2 Chaos plans (test-only)} *)

type chaos_event =
  | Chaos_raise  (** raise {!Chaos_failure} out of the engine *)
  | Chaos_hang  (** stall the run until its deadline passes or cancel is set *)
  | Chaos_slow of float  (** sleep this many seconds, then run normally *)
  | Chaos_kill  (** raise {!Worker_kill}: the worker loop dies *)

type chaos_spec

type chaos_plan = chaos_spec list

(** [chaos ~slot event] fires [event] when plan slot [slot] executes —
    once on its first execution by default, on every execution with
    [~persistent:true]. *)
val chaos : ?persistent:bool -> slot:int -> chaos_event -> chaos_spec

(** Number of times the spec's slot was executed (every consultation
    counts, fired or not) — lets tests assert a quarantined slot was never
    re-executed after a checkpoint resume. *)
val chaos_hits : chaos_spec -> int

(** What {!Chaos_raise} raises: an ordinary host exception, exercising the
    isolation/retry path. *)
exception Chaos_failure

(** What {!Chaos_kill} raises.  {!supervised_run} deliberately re-raises
    it so it escapes the worker loop, exercising the pool's worker-death
    path (requeue or quarantine the slot, restart the loop). *)
exception Worker_kill

(** {2 Supervisor lifecycle} *)

type t

(** [start cfg] builds a supervisor: the running median the deadlines
    derive from and a worker-death counter.  [cancel] is an external
    cancellation flag (Ctrl-C): once set, every in-flight run is aborted
    at its next quantum boundary and subsequent {!supervised_run} calls
    return [V_cancelled] immediately. *)
val start : ?cancel:bool Atomic.t -> config -> t

val cancelled : t -> bool

(** The configuration the supervisor was started with (the campaign pool
    reuses [retries] as the worker-death re-execution budget). *)
val config : t -> config

(** Worker deaths so far: exceptions that escaped a worker loop, which
    then restarted. *)
val worker_deaths : t -> int

val note_death : t -> unit

(** Folds one executed-experiment wall time into the running median the
    deadlines derive from. *)
val record_sample : t -> float -> unit

(** Current per-run deadline in seconds: [factor x median] of the recorded
    samples (cold start: [factor x floor]), floored at [deadline_floor]. *)
val deadline : t -> float

(** {2 One supervised experiment} *)

type verdict =
  | V_ok of Cpu.Machine.result  (** the run completed; result untouched *)
  | V_quarantined of tool_error  (** gave up; exclude the slot and record *)
  | V_cancelled  (** external cancel: slot simply not executed *)

(** [supervised_run s ~round ~slot ~chaos ~max_instrs ~snapshots ~spans
    spec e] executes one experiment on the calling domain with
    retry/quarantine as configured.  Each attempt runs under an abort hook
    that fires once its deadline has passed or cancel is set, and runs the
    slot's chaos action (if any) once, on its first poll.  Results of
    [V_ok] runs are bit-identical to a direct {!Fault.run_experiment}.
    @raise Worker_kill when a {!Chaos_kill} fires (the caller's pool must
    treat it as a worker death). *)
val supervised_run :
  t ->
  round:int ->
  slot:int ->
  chaos:chaos_plan ->
  max_instrs:int ->
  snapshots:Cpu.Machine.snapshot array ->
  spans:Obs.Span.t ->
  Fault.run_spec ->
  Fault.experiment ->
  verdict

val pp_tool_error : Format.formatter -> tool_error -> unit

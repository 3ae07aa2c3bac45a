(** Parallel, deterministic fault-injection campaign engine (§IV-B).

    Pre-draws the full experiment list from a seeded RNG, fans the
    experiments out over a pool of OCaml 5 domains (each worker builds its
    own simulated machines), folds outcomes back in plan order — so for a
    fixed seed the statistics are bit-identical for any worker count —
    and discards-and-redraws experiments whose injection site was never
    reached.  Supports running-counter/ETA progress reporting,
    checkpoint/resume of interrupted campaigns, and supervised execution
    ({!Supervisor}): retry/quarantine of host failures, wall-clock
    deadlines, worker-death recovery, and cooperative cancellation. *)

(** [Domain.recommended_domain_count ()]: the pool width used when [jobs]
    is not given. *)
val default_jobs : unit -> int

(** [draw ~model golden] is a campaign's experiment drawer: the first [n]
    calls are the plan {!model_campaign} draws for [n] experiments, later
    calls its [Not_reached] redraws.  Each call consumes the RNG in a fixed
    order against [golden]'s site stream of each kind it draws
    ({!Cpu.Machine.kind_sites}; [Double] draws register sites), so a plan
    is reproducible from (model, seed, site counts) alone.  [seed]
    defaults to 42 for [Reg], 43 for [Double] and 44 for the others; [Reg]
    and [Double] seed the RNG with [seed] alone, the other models with
    [seed] salted by the model's name.  A [Double] draw's second lane sits
    at a non-zero offset from the first; {!Cpu.Machine.second_flip}
    guarantees the pair cannot alias (and cancel) after the wrap to the
    destination's actual lane count.
    @raise Invalid_argument if the model's site stream is empty. *)
val draw : ?seed:int -> model:Fault.model -> Cpu.Machine.result -> unit -> Fault.experiment

type progress = {
  completed : int;  (** experiments finished, including redraws *)
  total : int;  (** experiments currently planned, including redraws *)
  restored : int;
      (** of [completed], how many were replayed from a checkpoint rather
          than executed — they finish instantly, so [eta] is computed from
          the executed-only rate *)
  elapsed : float;
      (** seconds since the exec phase started (after the golden run and
          the plan) *)
  eta : float;
      (** estimated seconds to completion.  [nan] while no experiment has
          actually executed yet (e.g. the checkpoint-replay prefix of a
          resumed campaign): there is no execution rate to extrapolate
          from, and callers should render the ETA as unknown. *)
  running : Fault.stats;  (** per-outcome running counters *)
  not_reached : int;  (** discarded so far *)
  quarantined : int;  (** experiments the supervisor gave up on *)
}

type report = {
  stats : Fault.stats;
  outcomes : (Fault.experiment * Fault.obs) array;
      (** counted experiments in plan order (excludes discarded ones);
          the observations feed {!Fault.avf_table} and
          {!Fault.mean_latency} *)
  wall_seconds : float;
      (** the whole campaign: golden run, plan and execution *)
  cycles_simulated : int;  (** simulated cycles over all injection runs *)
  experiments_run : int;  (** injection runs executed, including redraws *)
  restored : int;  (** experiments replayed from the checkpoint *)
  not_reached : int;  (** runs discarded because the site was not reached *)
  quarantined : Supervisor.tool_error list;
      (** experiments the supervisor quarantined (host exception on every
          retry, repeated deadline overrun, repeated worker death), in
          plan-slot order.  Excluded from [stats]/[outcomes]: supervision
          may shrink the sample, never skew it.  Persisted in the
          checkpoint, so a resumed campaign never re-executes them. *)
  worker_deaths : int;
      (** exceptions that escaped a worker loop; the worker requeued (or
          quarantined) its experiment and restarted the loop *)
  interrupted : bool;
      (** the [cancel] flag stopped the campaign before every planned
          experiment completed; the checkpoint file (if any) was kept for
          a resume *)
  jobs : int;
  spans : Obs.Span.row list;
      (** phase spans: where the campaign's wall time went.  Top-level
          phases ("golden", "plan", "exec") tile the campaign; nested
          regions ("golden/snapshot", "exec/restore", "exec/checkpoint")
          break down captures, fast-forward restores and checkpoint I/O.
          Wall times (and [worker_deaths]/[interrupted]) are
          non-deterministic; everything else in the report above is
          bit-identical for any worker count, for the experiments that
          completed. *)
}

(** [model_campaign ~model spec] — a campaign of [n] (default 300)
    injections under a fault model: register SEUs ([Reg], the paper's
    Fig. 13 campaign), double-bit SEUs ([Double], §III-C), memory bit-flips
    ([Mem]), effective-address faults ([Addr]), control-flow faults ([Cf]),
    or a uniform mix ([Mixed]).  The plan is {!draw}'s first [n] draws
    against the golden run, which also captures a snapshot chain
    ({!Fault.golden_capture}); every injection run starts from the latest
    snapshot preceding its site, so it never replays the fault-free
    prefix, and every observation is bit-identical to running its
    experiment from scratch.  Not-reached experiments are redrawn from the
    same RNG, between rounds, in plan-slot order.  Outcomes fold back in
    plan order, so the report is bit-identical for any worker count.

    - [seed]: see {!draw}.
    - [jobs]: worker count (default {!default_jobs}).  Worker 0 runs on
      the calling domain and the others on spawned domains, so [jobs = N]
      uses exactly N domains; [1] runs serially on the caller.
    - [progress]: called after every completed experiment, serialized
      under the engine lock.  Exception-safe: a raising callback warns
      once on stderr and the campaign carries on.
    - [checkpoint]: file used to persist completed experiments every few
      runs; if it already holds results for this exact campaign (plan +
      golden run), they are restored instead of re-executed, and the file
      is removed once the campaign completes (kept when [interrupted]).
    - [supervise]: the {!Supervisor} configuration every experiment runs
      under (default {!Supervisor.default}) — host exceptions are retried
      then quarantined, runaway runs are aborted at their wall-clock
      deadline, and an exception that escapes a worker loop requeues the
      experiment and restarts the loop in the same domain.
    - [chaos]: test-only harness-failure injection plan.
    - [cancel]: cooperative cancellation flag.  Once set (e.g. from a
      signal handler), in-flight experiments are aborted at their next
      quantum boundary, no new ones start, and the report comes back
      with [interrupted = true].

    @raise Invalid_argument if the model's site stream is empty for this
    build (see {!draw}). *)
val model_campaign :
  ?seed:int ->
  ?n:int ->
  ?jobs:int ->
  ?progress:(progress -> unit) ->
  ?checkpoint:string ->
  ?supervise:Supervisor.config ->
  ?chaos:Supervisor.chaos_plan ->
  ?cancel:bool Atomic.t ->
  model:Fault.model ->
  Fault.run_spec ->
  report

(** One-line wall-time / simulated-cycles / jobs summary for bench output. *)
val pp_totals : Format.formatter -> report -> unit

(** The simulated multicore machine: functional execution of compiled IR
    (bit-exact lane semantics) driving one {!Timing}/{!Cache}/{!Branch_pred}
    per core.  Threads map 1:1 onto cores; the scheduler always advances
    the thread whose core clock is furthest behind, so lock contention and
    join edges appear in wall-clock cycles.  Hosts the native builtins
    (unhardened OS/pthreads/IO, §IV-A) and the fault-injection hooks
    (§IV-B), covering a four-kind transient-fault taxonomy — register
    SEUs, memory bit-flips, effective-address faults and control-flow
    faults (the §VII limitations, modelled explicitly) — plus
    re-execution recovery: with [reexec_retries > 0] each outermost
    hardened call is checkpointed (arguments, stack pointer, a memory
    undo log) so the [elzar_reexec] runtime marker can roll the thread
    back and retry instead of fail-stopping. *)

type trap_reason =
  | Segfault of int64
  | Div_by_zero
  | Aborted
  | Elzar_fatal  (** recovery found no majority: detected but uncorrectable *)
  | Bad_callee of int64
  | Deadlock
  | Unreachable_executed
  | Hang  (** instruction budget exhausted *)

exception Trap of trap_reason

val string_of_trap : trap_reason -> string

type frame = {
  cf : Code.cfunc;
  regs : Bytes.t;  (** 8 bytes per lane: slot [i] at byte [8 * i] *)
  ready : int array;  (** per-slot result-ready cycle, for the timing model *)
  mutable pc : int;
  ret_off : int;
  saved_sp : int64;
}

type status = Running | Waiting of int | Waiting_barrier of int64 | Done

(** Re-execution checkpoint of a thread's outermost hardened call:
    arguments, stack pointer, caller frames, program-output length and a
    memory undo log, enough to restart the call from scratch. *)
type ckpt = {
  ck_cf : Code.cfunc;
  ck_args : int64 array;
  ck_ret_off : int;
  ck_sp : int64;
  ck_caller : frame list;
  ck_out_len : int;
  mutable ck_frame : frame;
  mutable ck_log : (int64 * int * int64) list;  (** (addr, width, old value) *)
  mutable ck_log_len : int;
  mutable ck_valid : bool;
  mutable ck_tries : int;
}

type thread = {
  tid : int;
  mutable frames : frame list;
  timing : Timing.t;
  cache : Cache.t;
  bpred : Branch_pred.t;
  ctr : Counters.t;
  mutable status : status;
  mutable sp : int64;
  start_cycle : int;
  mutable final_cycle : int;
  mutable ck : ckpt option;
}

(** The transient-fault taxonomy.  [Reg_flip] is the paper's §IV-B model;
    the other three model exactly the faults §VII lists as out of scope
    for ELZAR's protection domain. *)
type fault_kind =
  | Reg_flip  (** flip bit(s) in the destination register (default) *)
  | Mem_flip
      (** flip one bit of a byte touched by the [at]-th hardened-code
          memory access, right after that access *)
  | Addr_flip
      (** flip one bit of the effective address of the [at]-th
          hardened-code load/store *)
  | Branch_flip
      (** divert the [at]-th hardened-code conditional branch to the
          wrong successor *)

val fault_kind_to_string : fault_kind -> string

(** The site stream a fault kind's [at] counts, as a pick out of a
    (register, memory, branch) triple in {!snapshot_sites} order:
    [Reg_flip] takes the register sites, [Mem_flip] and [Addr_flip] the
    memory sites, [Branch_flip] the branch sites.  The one place this
    mapping is written. *)
val kind_sites : fault_kind -> 'a * 'a * 'a -> 'a

(** One pre-drawn fault.  For [Reg_flip]: bit flip(s) in the destination
    register of the [at]-th injection-eligible dynamic instruction — one
    lane always, optionally a second (lane, bit) for multi-bit SEUs.  The
    other kinds draw [at] against their own deterministic site streams
    ({!kind_sites}: [mem_sites] / [branch_sites] of any run) and ignore
    [lane] and [second]. *)
type inject = {
  at : int;
  lane : int;
  bit : int;
  second : (int * int) option;
  kind : fault_kind;
}

(** [second_flip ~dlanes ~lane ~bit ~lane2 ~bit2] is the (lane, bit) the
    second flip of a multi-bit SEU actually targets once the destination's
    lane count is known.  Guaranteed never to cancel the first flip
    [(lane mod dlanes, bit land 63)]: on a multi-lane destination the
    second lane is remapped to a distinct lane after the wrap; on a scalar
    destination (no second replica) it falls back to a distinct bit of the
    same word. *)
val second_flip :
  dlanes:int -> lane:int -> bit:int -> lane2:int -> bit2:int -> int * int

(** Execution engine selection.  Either engine translates each function,
    on its first entry, into one closure per instruction that keeps the
    counters and the three fault-site counts of every run, and carries
    the trace and profiling hooks only when the config asks for them; the
    engines differ only in the op body inside it.  [Compiled] (the
    default) specializes the body on its operands and the config's
    re-execution undo log.  [Reference]
    interprets the op through the boxed {!Value} evaluators, kept as the
    executable specification of lane semantics; both engines are required
    to produce bit-identical results. *)
type engine_kind = Reference | Compiled

(** Lower-case name, as accepted by the CLI [--engine] flag. *)
val engine_to_string : engine_kind -> string

(** Inverse of {!engine_to_string}; the error names the valid engines. *)
val engine_of_string : string -> (engine_kind, string) result

(** Raised out of {!resume}/{!run} when the [abort] hook reports
    cancellation at a quantum boundary.  Not a {!trap_reason}: an aborted
    run was cut short by the host (wall-clock deadline, Ctrl-C), so it has
    no outcome and must never be classified — supervisors catch it and
    decide whether to retry or quarantine the experiment. *)
exception Abort

type config = {
  max_instrs : int;  (** exceeded -> Hang *)
  inject : inject option;
      (** the armed fault, fired when its {!kind_sites} stream reaches
          [at]; every run counts all three streams whether armed or not *)
  reexec_retries : int;
      (** re-execution recovery budget: >0 checkpoints each outermost
          hardened call so [elzar_reexec] can roll back and retry that
          many times before fail-stopping *)
  trace : Buffer.t option;
      (** per-instruction execution trace (the Intel SDE debugtrace
          analogue of §IV-B), capped at ~1 MB: a cut trace ends with one
          ["# trace cut at 1 MB: N lines dropped"] line *)
  engine : engine_kind;
  profile : Profile.t option;
      (** opt-in per-instruction-class cycle attribution, keyed by the
          same class strings the AVF table uses.  [Some tbl] compiles a
          cycle-delta hook into every closure; [None] (the default)
          compiles nothing — the closures are identical to an unprofiled
          build, so the off state costs zero.  Both engines attribute the
          same cycles. *)
  abort : (unit -> bool) option;
      (** cancellation hook, polled once per scheduling quantum (the
          boundary [on_quantum] fires on); the first [true] raises
          {!Abort} out of the run; any exception the hook raises escapes
          the run the same way.  Cheap by construction: callers pass a
          closure reading a cancel flag and the clock, and the simulated
          results of a run that was never aborted are bit-identical to one
          executed without the hook. *)
}

val default_config : config

type t = {
  code : Code.t;
  mem : Memory.t;
  mutable threads : thread list;
  mutable by_tid : thread array;  (** tid-indexed view of [threads] *)
  kcode : (thread -> frame -> int) array array;
      (** per-instruction closures, by [cf_id] then pc; a function's row
          is empty until a thread first enters it, then holds a stub per
          instruction that compiles it on its first execution and
          replaces itself with the result *)
  mutable nthreads : int;
  output : Buffer.t;
  alloc_sizes : (int64, int) Hashtbl.t;
  cfg : config;
  mutable total_instrs : int;
  mutable inj_count : int;
  mutable mem_count : int;
  mutable br_count : int;
  mutable injected : bool;
  mutable recovered : int;
  mutable retried : int;
  mutable reexecs : int;
  mutable addr_mask : int64;
  mutable mem_flip_armed : bool;
  mutable cf_divert : bool;
  mutable inject_instr : int;
  mutable detect_instr : int;
  mutable inject_class : string;
  mutable trace_dropped : int;  (** trace lines not written since the cap was hit *)
}

type result = {
  wall_cycles : int;
  counters : Counters.t list;  (** one per thread, spawn order *)
  totals : Counters.t;
  output_digest : string;
  output_bytes : string;
  trap : trap_reason option;
  recovered_faults : int;  (** recovery-routine activations *)
  retried_faults : int;  (** recovery re-vote retries ([elzar_retried]) *)
  reexecutions : int;  (** re-execution rollbacks performed *)
  inject_sites : int;  (** injection-eligible instructions executed *)
  mem_sites : int;  (** hardened-code memory accesses (Mem/Addr stream) *)
  branch_sites : int;  (** hardened-code conditional branches (Cf stream) *)
  fault_injected : bool;
  inject_class : string option;
      (** instruction class at the injection site, for the AVF table *)
  detect_latency : int option;
      (** dynamic instructions between injection and the first recovery
          activation or trap; [None] if the fault was never detected *)
}

(** First value appearing at least twice among [n] lanes (the runtime
    recovery vote of gather/scatter; on a 2-2 split the lower pair wins).
    @raise Trap [Elzar_fatal] when all lanes are distinct. *)
val majority4 : n:int -> (int -> int64) -> int64

(** Compiles (a verified) module into a fresh machine with its own memory.
    [flags_cmp] selects the proposed FLAGS-setting comparison lowering for
    vector branches (future-AVX mode).
    @raise Invalid_argument if a call to a builtin passes the wrong number
    of arguments or binds the result of a builtin that returns none. *)
val create : ?cfg:config -> ?flags_cmp:bool -> Ir.Instr.modul -> t

(** Address of a named global, for host-side input preparation. *)
val global_addr : t -> string -> int64

(** Runs [entry] with scalar arguments until all threads finish (or a trap
    or the instruction budget ends the run); never raises.  [on_quantum]
    fires after every scheduling quantum (the snapshot-capture hook). *)
val run : ?args:int64 array -> ?on_quantum:(t -> unit) -> t -> string -> result

(** Drives an already-populated machine (e.g. one rebuilt by {!restore})
    to completion; same contract as {!run}. *)
val resume : ?on_quantum:(t -> unit) -> t -> result

(** Self-contained copy of machine state at a quantum boundary of a
    fault-free run.  Its memory is a {!Memory.image} that shares every
    page with the source machine copy-on-write: taking a snapshot copies
    the page table, and the source's next write to a page copies that
    page, so the snapshot never changes. *)
type snapshot

(** @raise Invalid_argument if a fault was already injected (snapshots
    must come from the fault-free prefix). *)
val snapshot : t -> snapshot

(** Fault-site counters consumed up to the snapshot:
    (register sites, memory sites, branch sites). *)
val snapshot_sites : snapshot -> int * int * int

(** Dynamic instructions executed up to the snapshot. *)
val snapshot_instrs : snapshot -> int

(** Rebuilds a runnable machine from a snapshot under [cfg] (typically a
    config arming an injection); continue it with {!resume}.  All three
    site counters keep their snapshot values, so plans drawn against the
    full golden run stay valid and the result carries the same site
    counts as the run from scratch.  The machine's memory starts as a
    copy of the snapshot's page table with no page owned: it copies a
    page only when it first writes it, so a restore costs the table plus
    the pages the run writes, and any number of machines (on any domains)
    may be restored from one snapshot. *)
val restore : ?cfg:config -> snapshot -> t

(** [create] + [run]. *)
val run_module :
  ?cfg:config -> ?flags_cmp:bool -> ?args:int64 array -> Ir.Instr.modul -> string -> result

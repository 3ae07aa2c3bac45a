(** The simulated multicore machine.

    Executes compiled code functionally (bit-exact lane semantics) while
    driving one {!Timing} engine, {!Cache} and {!Branch_pred} per core.
    Threads map 1:1 onto cores, as in the paper's testbed; the scheduler
    always advances the thread whose core clock is furthest behind, which
    makes lock contention and join edges show up in wall-clock cycles.
    Also hosts the native builtins (OS/pthreads/IO — unhardened, §IV-A)
    and the single-bit fault-injection hook (§IV-B).

    Two engines run the code (see [engine_kind]).  They differ only in
    the per-op body: one quantum loop, one per-instruction wrapper
    ([compile_item]: trace, instruction ceiling, counters, fault-site
    streams, profiling) and one copy of the call, return, builtin and
    fault-hook code serve both, and both keep a frame's registers in one
    unboxed [Bytes.t], 8 bytes per lane.  The reference body ([interp])
    evaluates each op descriptor through the boxed {!Value} evaluators;
    the compiled body ([compile_body]) has its own inline evaluator and
    operand reader in this module, so its per-instruction path calls no
    closure per lane and allocates nothing.  Neither engine handles a
    trap, an access to unmapped memory or a zero divisor: each propagates
    to [resume], which turns it into the run's outcome. *)

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

let string_of_trap = function
  | Segfault a -> Printf.sprintf "segfault at 0x%Lx" a
  | Div_by_zero -> "division by zero"
  | Aborted -> "abort() called"
  | Elzar_fatal -> "elzar: uncorrectable fault (no majority)"
  | Bad_callee a -> Printf.sprintf "indirect call to 0x%Lx" a
  | Deadlock -> "deadlock"
  | Unreachable_executed -> "unreachable executed"
  | Hang -> "instruction budget exhausted"

(* A frame's register file is unboxed: 8 bytes per lane, slot [i] at
   byte [8 * i], read and written through [.%{}] below.  An [int64 array]
   would box every written lane on the major heap and pay the write
   barrier for it. *)
type frame = {
  cf : Code.cfunc;
  regs : Bytes.t;
  ready : int array;
  mutable pc : int;
  ret_off : int;  (** slot in the caller frame for the return value; -1 *)
  saved_sp : int64;
}

type status = Running | Waiting of int | Waiting_barrier of int64 | Done

(* [status] has non-constant constructors, so [=] on it is a polymorphic
   compare; the scheduler tests it through these instead. *)
let is_running = function Running -> true | Waiting _ | Waiting_barrier _ | Done -> false
let is_done = function Done -> true | Running | Waiting _ | Waiting_barrier _ -> false

(* Re-execution checkpoint: everything needed to restart the outermost
   hardened call of a thread from scratch (RepTFD-style replay recovery).
   The undo log records (address, width, old value) for every simulated
   store the thread performs while the checkpoint is live; rollback
   replays it newest-first.  Builtins with externally visible effects
   (locks, spawns, allocation) invalidate the checkpoint instead. *)
type ckpt = {
  ck_cf : Code.cfunc;
  ck_args : int64 array;  (** scalar arguments as passed at the call *)
  ck_ret_off : int;
  ck_sp : int64;
  ck_caller : frame list;  (** the frames below the checkpointed one *)
  ck_out_len : int;  (** program-output length at checkpoint time *)
  mutable ck_frame : frame;  (** the live checkpointed frame (physical identity) *)
  mutable ck_log : (int64 * int * int64) list;
  mutable ck_log_len : int;
  mutable ck_valid : bool;
  mutable ck_tries : int;  (** rollbacks consumed *)
}

(* Undo-log length bound; a hardened call writing more than this simply
   loses re-execution coverage (the checkpoint is invalidated). *)
let ck_log_cap = 200_000

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

(* The transient-fault taxonomy (§VII discusses exactly the non-register
   faults the paper's campaign does not model): register SEUs (the paper's
   §IV-B model), bit-flips in simulated memory, effective-address faults on
   loads/stores, and control-flow faults diverting a conditional branch. *)
type fault_kind =
  | Reg_flip  (** flip bit(s) in the destination register (default) *)
  | Mem_flip
      (** flip one bit of a byte touched by the [at]-th memory access,
          right after that access (visible to the at+1-th access of it) *)
  | Addr_flip  (** flip one bit of the [at]-th load/store's effective address *)
  | Branch_flip  (** divert the [at]-th conditional branch to the wrong successor *)

let fault_kind_to_string = function
  | Reg_flip -> "reg"
  | Mem_flip -> "mem"
  | Addr_flip -> "addr"
  | Branch_flip -> "cf"

(* The one mapping from a fault kind to the site stream its [at] counts,
   as a pick out of a (register, memory, branch) triple: register SEUs
   count injection-eligible instructions, memory and address faults the
   hardened-code loads/stores, control-flow faults the hardened-code
   conditional branches. *)
let kind_sites (kind : fault_kind) ((reg, mem, br) : 'a * 'a * 'a) : 'a =
  match kind with Reg_flip -> reg | Mem_flip | Addr_flip -> mem | Branch_flip -> br

type inject = {
  at : int;
  lane : int;
  bit : int;
  second : (int * int) option;  (** optional second (lane, bit) flip in the
                                    same destination — multi-bit SEU *)
  kind : fault_kind;
}

(* Resolves the second flip of a multi-bit SEU against the destination's
   actual lane count.  The raw (lane2, bit2) pair is drawn before the
   injection site (and hence its [dlanes]) is known; after the [mod dlanes]
   wrap it could land on the first flip's lane and silently cancel it,
   turning the experiment into a fault-free run.  Guarantees the returned
   flip never cancels the first: on a multi-lane destination the second
   lane is remapped to a distinct lane; on a scalar destination (a single
   lane, i.e. no second replica to corrupt) it falls back to a distinct
   bit of the same word. *)
let second_flip ~(dlanes : int) ~(lane : int) ~(bit : int) ~(lane2 : int) ~(bit2 : int) :
    int * int =
  let dlanes = max dlanes 1 in
  let l1 = lane mod dlanes in
  let l2 = lane2 mod dlanes in
  let b1 = bit land 63 and b2 = bit2 land 63 in
  if dlanes = 1 then (0, if b2 = b1 then (b1 + 1) land 63 else b2)
  else if l2 = l1 then ((l1 + 1 + (lane2 mod (dlanes - 1))) mod dlanes, b2)
  else (l2, b2)

(* Two-tier execution engine.  Under either engine each function is
   translated, on its first entry, into one closure per [rinstr] that
   does the instruction's bookkeeping: instruction ceiling, counters and
   the three fault-site counts, which every run keeps, plus the trace and
   profiling hooks, compiled in only when the config asks for them.  The
   engines differ only in the op body inside that closure: [Compiled]
   specializes it on operand offsets, lane strides and the undo-log hook
   ([compile_body]); [Reference] re-dispatches the op through the boxed
   {!Value} evaluators on every execution ([interp]), kept as the
   executable spec of lane semantics.  Both share one copy of the call,
   return and builtin bookkeeping, the fault hooks and the [Timing.plan]
   timing model, and are required to produce bit-identical results
   (cycles, counters, output, traps), which the engine-equivalence tests
   assert. *)
type engine_kind = Reference | Compiled

let engine_to_string = function Reference -> "reference" | Compiled -> "compiled"

let engine_of_string = function
  | "reference" -> Ok Reference
  | "compiled" -> Ok Compiled
  | s -> Error (Printf.sprintf "unknown engine %S (expected reference or compiled)" s)

(* Raised out of [resume] when the abort hook reports cancellation at a
   quantum boundary.  Deliberately NOT a [trap_reason]: an aborted run is
   not an experiment outcome (the simulation was cut short by the host),
   so it must never be classified — supervisors catch it and decide
   whether to retry or quarantine. *)
exception Abort

type config = {
  max_instrs : int;
  inject : inject option;
  reexec_retries : int;
      (** re-execution recovery budget: >0 checkpoints each outermost
          hardened call (registers, stack pointer, a memory undo log) so
          the [elzar_reexec] runtime marker can roll the thread back and
          retry the whole call that many times before fail-stopping *)
  trace : Buffer.t option;
      (** per-instruction execution trace (requires [debug] compilation);
          capped at ~1 MB, a cut trace ending with one line that counts
          the dropped lines — the Intel SDE debugtrace analogue of §IV-B *)
  engine : engine_kind;
  profile : Profile.t option;
      (** per-instruction-class cycle attribution; [None] compiles no
          hook at all *)
  abort : (unit -> bool) option;
      (** cancellation hook, polled once per scheduling quantum (the same
          boundary [on_quantum] fires on): the first [true] raises {!Abort}
          out of the run.  Kept a closure so callers can check a deadline
          or a cancel flag without the machine knowing about either;
          [None] compiles to a single match per quantum *)
}

let default_config =
  {
    max_instrs = 400_000_000;
    inject = None;
    reexec_retries = 0;
    trace = None;
    engine = Compiled;
    profile = None;
    abort = None;
  }

type t = {
  code : Code.t;
  mem : Memory.t;
  mutable threads : thread list;  (** reverse spawn order *)
  mutable by_tid : thread array;
      (** tid-indexed view of [threads] (tids are dense spawn indices);
          O(1) lookup on the hot join path.  Only the first [nthreads]
          entries are meaningful. *)
  kcode : (thread -> frame -> int) array array;
      (** per-instruction closures, indexed by [cf_id] then [pc]; a
          function's row stays empty until a thread first enters it *)
  mutable nthreads : int;
  output : Buffer.t;
  alloc_sizes : (int64, int) Hashtbl.t;
  cfg : config;
  mutable total_instrs : int;
  mutable inj_count : int;  (** injection-eligible instructions executed *)
  mutable mem_count : int;  (** hardened-code memory accesses executed *)
  mutable br_count : int;  (** hardened-code conditional branches executed *)
  mutable injected : bool;
  mutable recovered : int;  (** recovery-routine activations *)
  mutable retried : int;  (** recovery re-vote retries *)
  mutable reexecs : int;  (** re-execution rollbacks performed *)
  mutable addr_mask : int64;  (** armed address-fault XOR mask; 0 = disarmed *)
  mutable mem_flip_armed : bool;
  mutable cf_divert : bool;
  mutable inject_instr : int;  (** [total_instrs] at injection time; -1 *)
  mutable detect_instr : int;  (** [total_instrs] at first recovery/trap; -1 *)
  mutable inject_class : string;  (** instruction class at the injection site *)
  mutable trace_dropped : int;  (** trace lines not written since the cap was hit *)
}

type result = {
  wall_cycles : int;
  counters : Counters.t list;  (** one per thread, spawn order *)
  totals : Counters.t;
  output_digest : string;
  output_bytes : string;
  trap : trap_reason option;
  recovered_faults : int;
  retried_faults : int;
  reexecutions : int;
  inject_sites : int;
  mem_sites : int;
  branch_sites : int;
  fault_injected : bool;
  inject_class : string option;
  detect_latency : int option;
      (** dynamic instructions between injection and the first recovery
          activation or trap; [None] if never detected *)
}

(* A machine with no threads over [code] and [mem]: what [create] and
   [restore] start from. *)
let make ~cfg (code : Code.t) (mem : Memory.t) : t =
  {
    code;
    mem;
    threads = [];
    by_tid = [||];
    kcode = Array.make (Array.length code.Code.cfuncs) [||];
    nthreads = 0;
    output = Buffer.create 256;
    alloc_sizes = Hashtbl.create 64;
    cfg;
    total_instrs = 0;
    inj_count = 0;
    mem_count = 0;
    br_count = 0;
    injected = false;
    recovered = 0;
    retried = 0;
    reexecs = 0;
    addr_mask = 0L;
    mem_flip_armed = false;
    cf_divert = false;
    inject_instr = -1;
    detect_instr = -1;
    inject_class = "";
    trace_dropped = 0;
  }

let create ?(cfg = default_config) ?(flags_cmp = false) (m : Ir.Instr.modul) : t =
  let mem = Memory.create () in
  make ~cfg (Code.compile ~debug:(cfg.trace <> None) ~flags_cmp m mem) mem

(* Address of a named global, for host-side input preparation (the moral
   equivalent of the benchmark reading its input file — unhardened I/O that
   costs no simulated cycles). *)
let global_addr (m : t) name =
  match Hashtbl.find_opt m.code.Code.globals name with
  | Some a -> a
  | None -> invalid_arg ("Machine.global_addr: unknown global " ^ name)

(* ---- register file ---- *)

let[@inline] ( .%{} ) (regs : Bytes.t) (slot : int) : int64 =
  Bytes.get_int64_ne regs (slot lsl 3)

let[@inline] ( .%{}<- ) (regs : Bytes.t) (slot : int) (v : int64) : unit =
  Bytes.set_int64_ne regs (slot lsl 3) v

(* ---- operand access (reference interpreter and shared helpers) ---- *)

let get_lane (regs : Bytes.t) (o : Code.rop) (j : int) : int64 =
  match o with
  | Code.Oslot (off, lanes) -> regs.%{off + if lanes = 1 then 0 else j mod lanes}
  | Code.Oconst x -> x

let get_scalar (regs : Bytes.t) (o : Code.rop) : int64 =
  match o with Code.Oslot (off, _) -> regs.%{off} | Code.Oconst x -> x

(* ---- threads ---- *)

let new_frame (cf : Code.cfunc) ~ret_off ~sp : frame =
  {
    cf;
    regs = Bytes.make (8 * max cf.Code.nslots 1) '\000';
    ready = Array.make (max cf.Code.nslots 1) 0;
    pc = 0;
    ret_off;
    saved_sp = sp;
  }

(* Copies scalar [args] into the parameter slots of [fr] (a thread's
   first frame or a re-execution restart), each over all its lanes. *)
let fill_params (fr : frame) (args : int64 array) =
  let poffs = fr.cf.Code.param_offs in
  Array.iteri
    (fun i v ->
      if i < Array.length poffs then begin
        let off, lanes = poffs.(i) in
        for j = 0 to lanes - 1 do
          fr.regs.%{off + j} <- v
        done
      end)
    args

(* A fresh checkpoint of the call of [cf] whose live frame is [fr]. *)
let new_ckpt (cf : Code.cfunc) (args : int64 array) ~ret_off ~sp ~caller ~out_len
    (fr : frame) : ckpt =
  {
    ck_cf = cf;
    ck_args = args;
    ck_ret_off = ret_off;
    ck_sp = sp;
    ck_caller = caller;
    ck_out_len = out_len;
    ck_frame = fr;
    ck_log = [];
    ck_log_len = 0;
    ck_valid = true;
    ck_tries = 0;
  }

(* Bytes of simulated stack per thread. *)
let stack_size = 1 lsl 17

let spawn_thread (m : t) (cf : Code.cfunc) (args : int64 array) ~(start_cycle : int) : thread =
  let stack_base = Memory.alloc_stack m.mem stack_size in
  let sp = Int64.add stack_base (Int64.of_int stack_size) in
  let fr = new_frame cf ~ret_off:(-1) ~sp in
  fill_params fr args;
  let timing = Timing.create () in
  Timing.sync_to timing start_cycle;
  let th =
    {
      tid = m.nthreads;
      frames = [ fr ];
      timing;
      cache = Cache.create ();
      bpred = Branch_pred.create ();
      ctr = Counters.create ();
      status = Running;
      sp;
      start_cycle;
      final_cycle = 0;
      ck = None;
    }
  in
  if m.cfg.reexec_retries > 0 && cf.Code.cf_hardened then
    th.ck <-
      Some
        (new_ckpt cf (Array.copy args) ~ret_off:(-1) ~sp ~caller:[]
           ~out_len:(Buffer.length m.output) fr);
  m.threads <- th :: m.threads;
  if m.nthreads >= Array.length m.by_tid then begin
    let grown = Array.make (max 4 (2 * Array.length m.by_tid)) th in
    Array.blit m.by_tid 0 grown 0 (Array.length m.by_tid);
    m.by_tid <- grown
  end;
  m.by_tid.(m.nthreads) <- th;
  m.nthreads <- m.nthreads + 1;
  th

let wake_joiners (m : t) (finished : thread) =
  List.iter
    (fun th ->
      match th.status with
      | Waiting tid when tid = finished.tid ->
          th.status <- Running;
          Timing.sync_to th.timing finished.final_cycle
      | _ -> ())
    m.threads

let finish_thread (m : t) (th : thread) =
  th.status <- Done;
  th.final_cycle <- Timing.cycle th.timing;
  (* busy span, for per-core IPC (Table III) *)
  th.ctr.Counters.cycles <- th.final_cycle - th.start_cycle;
  wake_joiners m th

let find_thread (m : t) tid =
  if tid >= 0 && tid < m.nthreads then Some m.by_tid.(tid) else None

(* The function a simulated function pointer names; anything else (a data
   pointer, a corrupted pointer) traps. *)
let cfunc_of_ptr (m : t) (f : int64) : Code.cfunc =
  let fid = Int64.to_int (Int64.sub f Code.fnptr_base) in
  if f < Code.fnptr_base || fid >= Array.length m.code.Code.cfuncs then
    raise (Trap (Bad_callee f));
  m.code.Code.cfuncs.(fid)

(* ---- fault bookkeeping ---- *)

let mark_injected (m : t) (cls : string) =
  if not m.injected then begin
    m.injected <- true;
    m.inject_instr <- m.total_instrs;
    m.inject_class <- cls
  end

(* First point where the machine *reacted* to the injected fault — a
   recovery-routine activation, a retry, a rollback, or a trap. *)
let note_detect (m : t) =
  if m.injected && m.detect_instr < 0 then m.detect_instr <- m.total_instrs

let note_recovered (m : t) =
  m.recovered <- m.recovered + 1;
  note_detect m

(* ---- re-execution checkpoints ---- *)

(* Ends a checkpoint's coverage.  [reexec_rollback] never reads the undo
   log of an invalid checkpoint, so it is dropped here rather than kept
   (up to [ck_log_cap] entries) until the checkpointed call returns. *)
let ck_drop (ck : ckpt) =
  ck.ck_valid <- false;
  ck.ck_log <- [];
  ck.ck_log_len <- 0

let ck_invalidate (th : thread) = match th.ck with Some ck -> ck_drop ck | None -> ()

(* Program output is a single shared buffer: rollback truncates it to the
   checkpointed length, which is only sound if no *other* thread appended
   since.  Output from any thread therefore invalidates everyone else's
   checkpoint. *)
let ck_invalidate_others (m : t) (th : thread) =
  List.iter (fun o -> if o.tid <> th.tid then ck_invalidate o) m.threads

let ck_log_write (m : t) (th : thread) ~(width : int) (addr : int64) =
  match th.ck with
  | Some ck when ck.ck_valid ->
      if ck.ck_log_len >= ck_log_cap then ck_drop ck
      else begin
        ck.ck_log <- (addr, width, Memory.read m.mem ~width addr) :: ck.ck_log;
        ck.ck_log_len <- ck.ck_log_len + 1
      end
  | _ -> ()

(* Fixed rollback cost: restoring registers and replaying the undo log is
   the moral equivalent of a signal-handler round trip. *)
let reexec_cycles = 400

(* Rolls [th] back to its checkpoint: undoes logged stores newest-first
   (so the oldest value of a twice-written cell wins), truncates this
   thread's program output, and reinstalls a fresh frame with the original
   arguments.  The one-shot injection already fired (its site counter was
   consumed), so the re-execution is fault-free.  Returns [false] when no
   valid checkpoint or no retry budget remains. *)
let reexec_rollback (m : t) (th : thread) : bool =
  match th.ck with
  | Some ck when ck.ck_valid && ck.ck_tries < m.cfg.reexec_retries ->
      ck.ck_tries <- ck.ck_tries + 1;
      m.reexecs <- m.reexecs + 1;
      note_detect m;
      List.iter (fun (addr, w, v) -> Memory.write m.mem ~width:w addr v) ck.ck_log;
      ck.ck_log <- [];
      ck.ck_log_len <- 0;
      if Buffer.length m.output > ck.ck_out_len then Buffer.truncate m.output ck.ck_out_len;
      th.sp <- ck.ck_sp;
      let nf = new_frame ck.ck_cf ~ret_off:ck.ck_ret_off ~sp:ck.ck_sp in
      fill_params nf ck.ck_args;
      ck.ck_frame <- nf;
      th.frames <- nf :: ck.ck_caller;
      Timing.advance th.timing reexec_cycles;
      true
  | _ -> false

(* ---- builtins ---- *)

type baction = Bdone | Bretry | Bblock of int | Bbarrier of int64 | Breexec

let exec_builtin (m : t) (th : thread) (fr : frame) (id : int) (args : int64 array)
    (dst : int) (dlanes : int) : baction =
  let spec = Builtins.get id in
  let retv = ref 0L in
  let action = ref Bdone in
  (* Checkpoint discipline: builtins with externally visible effects end
     re-execution coverage.  Output only invalidates *other* threads'
     checkpoints (own output is rolled back by truncation); rand64's state
     write is undo-logged like a normal store. *)
  (match spec.Builtins.name with
  | "thread_id" | "elzar_fatal" | "elzar_recovered" | "elzar_retried" | "elzar_reexec" -> ()
  | "output_i64" | "output_f64" | "output_bytes" -> ck_invalidate_others m th
  | "rand64" -> ()
  | _ -> ck_invalidate th);
  (match spec.Builtins.name with
  | "malloc" ->
      let size = Int64.to_int args.(0) in
      let p = Memory.malloc m.mem size in
      if p <> 0L then Hashtbl.replace m.alloc_sizes p size;
      retv := p
  | "free" -> (
      match Hashtbl.find_opt m.alloc_sizes args.(0) with
      | Some size ->
          Hashtbl.remove m.alloc_sizes args.(0);
          Memory.free m.mem args.(0) size
      | None -> raise (Trap (Segfault args.(0))))
  | "spawn" ->
      let child =
        spawn_thread m (cfunc_of_ptr m args.(0)) [| args.(1) |]
          ~start_cycle:(Timing.cycle th.timing)
      in
      retv := Int64.of_int child.tid
  | "join" -> (
      let tid = Int64.to_int args.(0) in
      match find_thread m tid with
      | Some target when is_done target.status -> Timing.sync_to th.timing target.final_cycle
      | Some _ -> action := Bblock tid
      | None -> raise (Trap (Bad_callee args.(0))))
  | "lock" ->
      let v = Memory.read m.mem ~width:8 args.(0) in
      if v = 0L then Memory.write m.mem ~width:8 args.(0) 1L
      else begin
        (* spin: burn cycles and retry on the next scheduling round *)
        Timing.advance th.timing 60;
        action := Bretry
      end
  | "unlock" -> Memory.write m.mem ~width:8 args.(0) 0L
  | "barrier" ->
      (* pthread_barrier_wait: the cell holds the arrival count; the last
         arriver resets it and releases everyone at its clock *)
      let addr = args.(0) and n = args.(1) in
      let count = Int64.add (Memory.read m.mem ~width:8 addr) 1L in
      if count >= n then begin
        Memory.write m.mem ~width:8 addr 0L;
        let now = Timing.cycle th.timing in
        List.iter
          (fun other ->
            match other.status with
            | Waiting_barrier a when a = addr ->
                other.status <- Running;
                Timing.sync_to other.timing now
            | _ -> ())
          m.threads
      end
      else begin
        Memory.write m.mem ~width:8 addr count;
        action := Bbarrier addr
      end
  | "output_i64" | "output_f64" ->
      Buffer.add_int64_le m.output args.(0)
  | "output_bytes" ->
      Buffer.add_string m.output (Memory.read_bytes m.mem args.(0) (Int64.to_int args.(1)))
  | "rand64" ->
      (* xorshift64* over a state cell in simulated memory *)
      let s = Memory.read m.mem ~width:8 args.(0) in
      let s = if s = 0L then 0x9E3779B97F4A7C15L else s in
      let s = Int64.logxor s (Int64.shift_left s 13) in
      let s = Int64.logxor s (Int64.shift_right_logical s 7) in
      let s = Int64.logxor s (Int64.shift_left s 17) in
      ck_log_write m th ~width:8 args.(0);
      Memory.write m.mem ~width:8 args.(0) s;
      retv := Int64.mul s 0x2545F4914F6CDD1DL
  | "abort" -> raise (Trap Aborted)
  | "elzar_fatal" -> raise (Trap Elzar_fatal)
  | "elzar_recovered" -> note_recovered m
  | "elzar_retried" ->
      m.retried <- m.retried + 1;
      note_detect m
  | "elzar_reexec" -> action := Breexec
  | "thread_id" -> retv := Int64.of_int th.tid
  | other -> failwith ("Machine.exec_builtin: unhandled builtin " ^ other));
  if !action = Bdone then begin
    Timing.advance th.timing spec.Builtins.cycles;
    if dst >= 0 then
      for j = 0 to dlanes - 1 do
        fr.regs.%{dst + j} <- !retv;
        fr.ready.(dst + j) <- Timing.cycle th.timing
      done
  end;
  !action

(* ---- interpreter ---- *)

let majority4 ~(n : int) (get : int -> int64) : int64 =
  (* Value appearing at least twice among n lanes; raises if none.  The
     n<=4 chain is branch-ordered to early-exit on the overwhelmingly
     common all-agree case while preserving the reference scan order: lane
     0 is compared against every other lane before lane 1 is considered,
     so ties like (a,b,b,a) still resolve to lane 0's value. *)
  if n <= 0 then raise (Trap Elzar_fatal)
  else if n = 1 then get 0
  else begin
    let v0 = get 0 and v1 = get 1 in
    if v0 = v1 then v0
    else if n = 2 then raise (Trap Elzar_fatal)
    else begin
      let v2 = get 2 in
      if v0 = v2 then v0
      else if n = 3 then (if v1 = v2 then v1 else raise (Trap Elzar_fatal))
      else begin
        let v3 = get 3 in
        if v0 = v3 then v0
        else if v1 = v2 || v1 = v3 then v1
        else if v2 = v3 then v2
        else if n = 4 then raise (Trap Elzar_fatal)
        else begin
          (* n > 4 never occurs with AVX-width replication; keep the
             reference scan as a fallback *)
          let rec pick i =
            if i >= n then raise (Trap Elzar_fatal)
            else begin
              let v = get i in
              let count = ref 0 in
              for j = 0 to n - 1 do
                if get j = v then incr count
              done;
              if !count >= 2 then v else pick (i + 1)
            end
          in
          pick 0
        end
      end
    end
  end

(* Instruction class of an injection site, for the AVF-style per-class
   vulnerability table. *)
let class_of (op : Code.rinstr) : string =
  match op with
  | Code.Rbinop _ | Code.Rfbinop _ -> "alu"
  | Code.Ricmp _ | Code.Rfcmp _ -> "cmp"
  | Code.Rselect _ -> "select"
  | Code.Rcast _ -> "cast"
  | Code.Rmov _ -> "mov"
  | Code.Rload _ | Code.Rvload _ | Code.Rgather _ -> "load"
  | Code.Rstore _ | Code.Rvstore _ | Code.Rscatter _ -> "store"
  | Code.Ralloca _ -> "alloca"
  | Code.Rcall _ | Code.Rcall_ind _ -> "call"
  | Code.Ratomic _ | Code.Rcmpxchg _ -> "atomic"
  | Code.Rextract _ | Code.Rinsert _ | Code.Rbroadcast _ | Code.Rshuffle _
  | Code.Rptestz _ ->
      "vec"
  | Code.Tret _ | Code.Tbr _ | Code.Tcondbr _ | Code.Tvbr _ | Code.Tvbr_u _
  | Code.Tunreachable ->
      "branch"

(* ---- execution helpers shared by both engines ---- *)

(* Return protocol of one executed instruction (either engine's body and
   every per-instruction closure):
   -  [r >= 0]: next pc in the same frame; the quantum loop keeps the pc
      in a local and writes [fr.pc] back only when the quantum budget
      expires mid-frame.
   -  [k_switch]: the instruction changed the frame stack (call / return /
      re-execution rollback) and already stored any resume pc; the quantum
      loop re-fetches the innermost frame.
   -  [k_yield]: the thread left the Running state (block, lock retry,
      barrier, thread finished); the instruction stored the resume pc. *)
let k_switch = -1
let k_yield = -2

(* One cache access of a memory instruction: its latency, counted in the
   thread's L1 counters, plus the armed memory-bit-flip check.  Armed
   memory fault: flip one bit of a byte this access touched, right after
   the access — the at+1-th access of the location sees the corruption.
   Deliberately NOT undo-logged: memory corruption persists across
   re-execution rollback (ELZAR leaves memory to ECC, §III-A), so [Reexec]
   cannot mask it away. *)
let[@inline] k_touch (m : t) (th : thread) (cls : string) (width : int) (addr : int64) : int =
  let lat = Cache.access th.cache addr in
  let ctr = th.ctr in
  ctr.Counters.l1_refs <- ctr.Counters.l1_refs + 1;
  if lat > Cache.hit_latency then ctr.Counters.l1_misses <- ctr.Counters.l1_misses + 1;
  if m.mem_flip_armed then begin
    m.mem_flip_armed <- false;
    match m.cfg.inject with
    | Some inj -> (
        let a = Int64.add addr (Int64.of_int (inj.bit lsr 3 mod max width 1)) in
        try
          let b = Memory.read m.mem ~width:1 a in
          Memory.write m.mem ~width:1 a
            (Int64.logxor b (Int64.of_int (1 lsl (inj.bit land 7))));
          mark_injected m cls
        with Memory.Fault _ -> ())
    | None -> ()
  end;
  lat

(* Armed address fault: XOR one bit into the effective address of this
   (the [at]-th) load/store. *)
let[@inline] k_fix_addr (m : t) (cls : string) (a : int64) : int64 =
  if m.addr_mask = 0L then a
  else begin
    let a' = Int64.logxor a m.addr_mask in
    m.addr_mask <- 0L;
    mark_injected m cls;
    a'
  end

(* Armed control-flow fault: true once, at the conditional branch the
   fault diverts, whose front end then retires the wrong successor. *)
let[@inline] k_diverted (m : t) : bool =
  m.cf_divert
  && begin
       m.cf_divert <- false;
       mark_injected m "branch";
       true
     end

(* Arms the fault of the memory or branch site stream at its armed site,
   before that instruction's body runs, so the fault applies to this very
   access or branch. *)
let arm_site (m : t) =
  match m.cfg.inject with
  | Some { kind = Mem_flip; _ } -> m.mem_flip_armed <- true
  | Some { kind = Addr_flip; bit; _ } -> m.addr_mask <- Int64.shift_left 1L (bit land 63)
  | Some { kind = Branch_flip; _ } -> m.cf_divert <- true
  | Some { kind = Reg_flip; _ } | None -> ()

let rop_lanes = function Code.Oslot (_, l) -> l | Code.Oconst _ -> 1

(* Readiness of an instruction's register inputs, specialized on the
   source count. *)
let ready_fn (srcs : int array) : frame -> int =
  match Array.length srcs with
  | 0 -> fun _ -> 0
  | 1 ->
      let s0 = srcs.(0) in
      fun fr -> fr.ready.(s0)
  | 2 ->
      let s0 = srcs.(0) and s1 = srcs.(1) in
      fun fr ->
        let a = fr.ready.(s0) and b = fr.ready.(s1) in
        if a > b then a else b
  | ns ->
      fun fr ->
        let r = ref 0 in
        let ra = fr.ready in
        for i = 0 to ns - 1 do
          if ra.(srcs.(i)) > !r then r := ra.(srcs.(i))
        done;
        !r

(* One line of the execution trace, for the instruction at [pc] of [cf]
   (whose [texts] must cover [pc]).  The buffer is capped at ~1 MB; lines
   past the cap are counted, and [end_trace] reports them. *)
let trace_line (m : t) (buf : Buffer.t) (th : thread) (cf : Code.cfunc) (pc : int) =
  if Buffer.length buf < 1_000_000 then
    Buffer.add_string buf
      (Printf.sprintf "T%d %c@%s+%d: %s\n" th.tid
         (if cf.Code.cf_hardened then 'H' else '.')
         cf.Code.cf_name pc cf.Code.texts.(pc))
  else m.trace_dropped <- m.trace_dropped + 1

(* Ends a trace the cap cut with one line that says how many lines it
   dropped. *)
let end_trace (m : t) =
  match m.cfg.trace with
  | Some buf when m.trace_dropped > 0 ->
      Buffer.add_string buf
        (Printf.sprintf "# trace cut at 1 MB: %d lines dropped\n" m.trace_dropped);
      m.trace_dropped <- 0
  | Some _ | None -> ()

(* Call entry: times the call instruction, builds [cf]'s frame with
   [args] in its parameter slots, stores [resume] as the caller's pc,
   arms a re-execution checkpoint at the outermost hardened call, and
   pushes the frame.  The checkpoint is armed before the push, so
   [ck_caller]/[ck_sp] capture the caller's state. *)
let call_enter (m : t) (th : thread) (fr : frame) (plan : Timing.plan) ~(ready : int)
    (cf : Code.cfunc) (args : int64 array) ~(ret_off : int) ~(resume : int) : int =
  let completion = Timing.exec th.timing ~ready ~mem_lat:Cache.hit_latency plan in
  let nf = new_frame cf ~ret_off ~sp:th.sp in
  let poffs = cf.Code.param_offs in
  for i = 0 to Array.length args - 1 do
    let off, lanes = poffs.(i) in
    for j = 0 to lanes - 1 do
      nf.regs.%{off + j} <- args.(i)
    done;
    nf.ready.(off) <- completion
  done;
  fr.pc <- resume;
  if m.cfg.reexec_retries > 0 && cf.Code.cf_hardened && th.ck = None then
    th.ck <-
      Some
        (new_ckpt cf args ~ret_off ~sp:th.sp ~caller:th.frames
           ~out_len:(Buffer.length m.output) nf);
  th.frames <- nf :: th.frames;
  k_switch

(* Return from [fr], the innermost frame: times the return, commits
   (drops) the checkpoint if [fr] is the checkpointed call, pops [fr] and
   hands its result, the operand [ret], to the caller's [ret_off]
   slots.  [k_yield] when the thread's outermost frame returned. *)
let call_return (m : t) (th : thread) (fr : frame) (plan : Timing.plan) ~(ready : int)
    (ret : Code.rop option) : int =
  let completion = Timing.exec th.timing ~ready ~mem_lat:Cache.hit_latency plan in
  (match th.ck with Some ck when ck.ck_frame == fr -> th.ck <- None | _ -> ());
  th.sp <- fr.saved_sp;
  th.frames <- List.tl th.frames;
  match th.frames with
  | [] ->
      finish_thread m th;
      k_yield
  | caller :: _ ->
      (match ret with
      | Some o when fr.ret_off >= 0 ->
          let roff = fr.ret_off in
          for j = 0 to fr.cf.Code.ret_lanes - 1 do
            caller.regs.%{roff + j} <- get_lane fr.regs o j
          done;
          caller.ready.(roff) <- completion
      | _ -> ());
      k_switch

(* Runs builtin [id] for the call instruction at [pc] of [fr] and maps
   its action onto the return protocol.  A builtin's access to unmapped
   memory (a flipped lock address, a stack that would reach the heap)
   raises [Memory.Fault], which [resume] turns into a segfault like a
   load's. *)
let call_builtin (m : t) (th : thread) (fr : frame) ~(pc : int) (id : int)
    (args : int64 array) ~(dst : int) ~(dlanes : int) : int =
  match exec_builtin m th fr id args dst dlanes with
  | Bdone -> pc + 1
  | Bretry ->
      fr.pc <- pc;
      k_yield
  | Bblock tid ->
      th.status <- Waiting tid;
      fr.pc <- pc + 1;
      k_yield
  | Bbarrier addr ->
      th.status <- Waiting_barrier addr;
      fr.pc <- pc + 1;
      k_yield
  | Breexec ->
      (* no-majority vote fell through every re-vote retry: roll the
         thread back to its checkpoint, or fail-stop *)
      if reexec_rollback m th then k_switch else raise (Trap Elzar_fatal)

(* Register SEU at the armed site: flips the armed bit, and its optional
   second bit, in the destination [dst] (of [dlanes] lanes) of [fr]. *)
let flip_dest (m : t) (fr : frame) ~(dst : int) ~(dlanes : int) (cls : string) =
  match m.cfg.inject with
  | None -> ()
  | Some inj ->
      let dlanes = max dlanes 1 in
      let flip lane bit =
        let off = dst + (lane mod dlanes) in
        fr.regs.%{off} <- Int64.logxor fr.regs.%{off} (Int64.shift_left 1L (bit land 63))
      in
      flip inj.lane inj.bit;
      (match inj.second with
      | Some (l, b) ->
          let l, b = second_flip ~dlanes ~lane:inj.lane ~bit:inj.bit ~lane2:l ~bit2:b in
          flip l b
      | None -> ());
      mark_injected m cls

(* ---- reference interpreter ---- *)

(* The reference engine's body for the instruction [it] at [pc] of [fr],
   whose inputs are ready at cycle [ready]: the op's semantics through the
   boxed {!Value} evaluators and its timing epilogue.  Returns the next pc,
   [k_switch] or [k_yield]; the per-instruction bookkeeping around it is
   [compile_item]'s, shared with the compiled engine. *)
let interp (m : t) (th : thread) (fr : frame) (pc : int) (it : Code.citem) (ready : int) : int =
  let regs = fr.regs in
  let cls = class_of it.Code.op in
  let mem_lat = ref Cache.hit_latency in
  let next = ref (pc + 1) in
  let branch_info = ref None in
  (* (taken, always_mispredict) *)
  (match it.Code.op with
  | Code.Rbinop (d, n, op, a, b) ->
      for j = 0 to n - 1 do
        regs.%{d + j} <- Value.binop op (get_lane regs a j) (get_lane regs b j)
      done
  | Code.Rfbinop (d, n, op, a, b) ->
      for j = 0 to n - 1 do
        regs.%{d + j} <- Value.fbinop op (get_lane regs a j) (get_lane regs b j)
      done
  | Code.Ricmp (d, n, cc, tmask, a, b) ->
      for j = 0 to n - 1 do
        regs.%{d + j} <-
          (if Value.icmp cc (get_lane regs a j) (get_lane regs b j) then tmask else 0L)
      done
  | Code.Rfcmp (d, n, cc, tmask, a, b) ->
      for j = 0 to n - 1 do
        regs.%{d + j} <-
          (if Value.fcmp cc (get_lane regs a j) (get_lane regs b j) then tmask else 0L)
      done
  | Code.Rselect (d, n, c, a, b) ->
      for j = 0 to n - 1 do
        regs.%{d + j} <- (if get_lane regs c j <> 0L then get_lane regs a j else get_lane regs b j)
      done
  | Code.Rcast (d, n, k, a) ->
      for j = 0 to n - 1 do
        regs.%{d + j} <- Value.cast k (get_lane regs a j)
      done
  | Code.Rmov (d, n, a) ->
      for j = 0 to n - 1 do
        regs.%{d + j} <- get_lane regs a j
      done
  | Code.Rload (d, w, a) ->
      let addr = k_fix_addr m cls (get_scalar regs a) in
      regs.%{d} <- Memory.read m.mem ~width:w addr;
      mem_lat := k_touch m th cls w addr
  | Code.Rvload (d, n, w, a) ->
      let addr = k_fix_addr m cls (get_scalar regs a) in
      for j = 0 to n - 1 do
        regs.%{d + j} <- Memory.read m.mem ~width:w (Int64.add addr (Int64.of_int (j * w)))
      done;
      mem_lat := k_touch m th cls w addr
  | Code.Rstore (w, v, a) ->
      let addr = k_fix_addr m cls (get_scalar regs a) in
      ck_log_write m th ~width:w addr;
      Memory.write m.mem ~width:w addr (get_scalar regs v);
      mem_lat := k_touch m th cls w addr
  | Code.Rvstore (n, w, v, a) ->
      let addr = k_fix_addr m cls (get_scalar regs a) in
      for j = 0 to n - 1 do
        let aj = Int64.add addr (Int64.of_int (j * w)) in
        ck_log_write m th ~width:w aj;
        Memory.write m.mem ~width:w aj (get_lane regs v j)
      done;
      mem_lat := k_touch m th cls w addr
  | Code.Ralloca (d, size) ->
      th.sp <- Int64.sub th.sp (Int64.of_int (Memory.align16 size));
      regs.%{d} <- th.sp
  | Code.Rcall (callee, argops, dst, dlanes) -> (
      let args = Array.map (get_scalar regs) argops in
      match callee with
      | Code.Direct fid ->
          next :=
            call_enter m th fr it.Code.plan ~ready m.code.Code.cfuncs.(fid) args ~ret_off:dst
              ~resume:(pc + 1)
      | Code.Builtin id -> next := call_builtin m th fr ~pc id args ~dst ~dlanes)
  | Code.Rcall_ind (fp, argops, dst, _) ->
      let cf = cfunc_of_ptr m (get_scalar regs fp) in
      let args = Array.map (get_scalar regs) argops in
      next := call_enter m th fr it.Code.plan ~ready cf args ~ret_off:dst ~resume:(pc + 1)
  | Code.Ratomic (op, d, a, x, w) ->
      let addr = k_fix_addr m cls (get_scalar regs a) in
      let old = Memory.read m.mem ~width:w addr in
      let v = get_scalar regs x in
      let nv =
        match op with
        | Ir.Instr.Rmw_add -> Int64.add old v
        | Ir.Instr.Rmw_sub -> Int64.sub old v
        | Ir.Instr.Rmw_xchg -> v
        | Ir.Instr.Rmw_and -> Int64.logand old v
        | Ir.Instr.Rmw_or -> Int64.logor old v
      in
      ck_log_write m th ~width:w addr;
      Memory.write m.mem ~width:w addr (Value.mask_of_width (w * 8) |> Int64.logand nv);
      regs.%{d} <- old;
      mem_lat := k_touch m th cls w addr
  | Code.Rcmpxchg (d, a, e, dv, w) ->
      let addr = k_fix_addr m cls (get_scalar regs a) in
      let old = Memory.read m.mem ~width:w addr in
      if old = get_scalar regs e then begin
        ck_log_write m th ~width:w addr;
        Memory.write m.mem ~width:w addr (get_scalar regs dv)
      end;
      regs.%{d} <- old;
      mem_lat := k_touch m th cls w addr
  | Code.Rextract (d, v, l) -> regs.%{d} <- get_lane regs v l
  | Code.Rinsert (d, n, v, l, s) ->
      for j = 0 to n - 1 do
        regs.%{d + j} <- (if j = l then get_scalar regs s else get_lane regs v j)
      done
  | Code.Rbroadcast (d, n, s) ->
      let x = get_scalar regs s in
      for j = 0 to n - 1 do
        regs.%{d + j} <- x
      done
  | Code.Rshuffle (d, n, v, perm) ->
      let tmp = Array.init n (fun j -> get_lane regs v j) in
      for j = 0 to n - 1 do
        regs.%{d + j} <- tmp.(perm.(j))
      done
  | Code.Rptestz (d, v) ->
      let all_zero = ref true in
      (match v with
      | Code.Oslot (off, lanes) ->
          for j = 0 to lanes - 1 do
            if regs.%{off + j} <> 0L then all_zero := false
          done
      | Code.Oconst x -> if x <> 0L then all_zero := false);
      regs.%{d} <- (if !all_zero then 1L else 0L)
  | Code.Rgather (d, n, w, a) ->
      (* FPGA-checked gather: majority-vote the replicated address, load
         once, replicate (closes the extract window of vulnerability) *)
      let alanes = rop_lanes a in
      let disagree = ref false in
      let a0 = get_lane regs a 0 in
      for j = 1 to alanes - 1 do
        if get_lane regs a j <> a0 then disagree := true
      done;
      let addr = k_fix_addr m cls (majority4 ~n:alanes (fun j -> get_lane regs a j)) in
      if !disagree then note_recovered m;
      let v = Memory.read m.mem ~width:w addr in
      for j = 0 to n - 1 do
        regs.%{d + j} <- v
      done;
      mem_lat := k_touch m th cls w addr
  | Code.Rscatter (w, v, a) ->
      let alanes = rop_lanes a in
      let vlanes = rop_lanes v in
      let disagree = ref false in
      let a0 = get_lane regs a 0 and v0 = get_lane regs v 0 in
      for j = 1 to alanes - 1 do
        if get_lane regs a j <> a0 then disagree := true
      done;
      for j = 1 to vlanes - 1 do
        if get_lane regs v j <> v0 then disagree := true
      done;
      let addr = k_fix_addr m cls (majority4 ~n:alanes (fun j -> get_lane regs a j)) in
      let value = majority4 ~n:vlanes (fun j -> get_lane regs v j) in
      if !disagree then note_recovered m;
      ck_log_write m th ~width:w addr;
      Memory.write m.mem ~width:w addr value;
      mem_lat := k_touch m th cls w addr
  | Code.Tret o -> next := call_return m th fr it.Code.plan ~ready o
  | Code.Tbr target -> next := target
  | Code.Tcondbr (c, t, e) ->
      let taken = get_scalar regs c <> 0L in
      let taken = if k_diverted m then not taken else taken in
      next := (if taken then t else e);
      branch_info := Some (taken, false)
  | Code.Tvbr (mask, t, e, r) ->
      let lanes = rop_lanes mask in
      let all_true = ref true and all_false = ref true in
      for j = 0 to lanes - 1 do
        if get_lane regs mask j = 0L then all_true := false else all_false := false
      done;
      if !all_true then begin
        next := t;
        branch_info := Some (true, false)
      end
      else if !all_false then begin
        next := e;
        branch_info := Some (false, false)
      end
      else begin
        next := r;
        branch_info := Some (true, true)
      end;
      (* control-flow fault: the front end retires the wrong successor —
         a unanimous mask goes the wrong way, a mixed mask jumps straight
         past the recovery edge (the §VII unprotected-control-flow case) *)
      if k_diverted m then next := (if !all_true then e else t)
  | Code.Tvbr_u (mask, t, e) ->
      (* unchecked AVX branch: hardware flags reflect lane 0 on a clean run;
         a mixed mask silently follows lane 0 (the Fig. 12 no-branch-checks
         configuration gives up mixed-outcome detection) *)
      let taken = get_lane regs mask 0 <> 0L in
      let taken = if k_diverted m then not taken else taken in
      next := (if taken then t else e);
      branch_info := Some (taken, false)
  | Code.Tunreachable -> raise (Trap Unreachable_executed));
  (* timing for plain instructions (calls and returns time themselves) *)
  (match it.Code.op with
  | Code.Rcall _ | Code.Rcall_ind _ | Code.Tret _ -> ()
  | _ ->
      let completion = Timing.exec th.timing ~ready ~mem_lat:!mem_lat it.Code.plan in
      if it.Code.dst >= 0 then fr.ready.(it.Code.dst) <- completion;
      (match !branch_info with
      | Some (taken, force_miss) ->
          let miss = Branch_pred.record th.bpred ~pc ~taken in
          if miss || force_miss then begin
            th.ctr.Counters.branch_misses <- th.ctr.Counters.branch_misses + 1;
            Timing.mispredict th.timing ~resolved:completion
          end
      | None -> ()));
  !next

(* ---- compiled (threaded-code) engine ---- *)

(* Lane-normalised operand: [compile_body] resolves every operand of an
   instruction against the lane count [n] of its consumer once, so the
   per-lane read [rd] below is one match with no [mod] on the common
   paths. *)
type lop =
  | Lslot of int * int
      (** frame offset, stride: 1 walks the lanes of an operand at least
          [n] wide, 0 repeats a scalar's single lane *)
  | Lwrap of int * int
      (** frame offset, lanes: lane [j mod lanes] of an operand narrower
          than its consumer (rare) *)
  | Lconst of int64

let lop ~(n : int) (o : Code.rop) : lop =
  match o with
  | Code.Oconst x -> Lconst x
  | Code.Oslot (off, 1) -> Lslot (off, 0)
  | Code.Oslot (off, l) when l >= n -> Lslot (off, 1)
  | Code.Oslot (off, l) -> Lwrap (off, l)

(* The compiled engine's one operand reader.  Without flambda an
   [@inline] reader stays unboxed only when its result is let-bound
   before use ([let x = rd regs a j in ...]); passed straight as an
   argument to another inlined function it is boxed. *)
let[@inline] rd (regs : Bytes.t) (o : lop) (j : int) : int64 =
  match o with
  | Lslot (off, stride) -> regs.%{off + (j * stride)}
  | Lwrap (off, lanes) -> regs.%{off + (j mod lanes)}
  | Lconst x -> x

(* ---- the compiled engine's lane semantics ----
   Its own implementation of the {!Value} evaluators over the same op
   descriptors, a [match] inlined into each closure's lane loop: no
   closure call, no boxed argument or result.  It lives in this module
   because the dev profile compiles with -opaque, which stops inlining
   across modules.  The engine-equivalence tests and the single-op
   differential property hold it to [Value]'s results bit for bit. *)

let[@inline] sx sh x = Int64.shift_right (Int64.shift_left x sh) sh

let[@inline] fdec single x =
  if single then Int32.float_of_bits (Int64.to_int32 x) else Int64.float_of_bits x

let[@inline] fenc single f =
  if single then Int64.logand (Int64.of_int32 (Int32.bits_of_float f)) 0xFFFF_FFFFL
  else Int64.bits_of_float f

(* unsigned order of two bit patterns: flip both sign bits *)
let[@inline] ult a b = Int64.sub a Int64.min_int < Int64.sub b Int64.min_int

let[@inline] udiv n d =
  if d < 0L then if ult n d then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    let r = Int64.sub n (Int64.mul q d) in
    if ult r d then q else Int64.succ q

let[@inline] ibinop (d : Value.binop) (a : int64) (b : int64) : int64 =
  let mask = d.Value.bmask and sh = d.Value.bsh in
  match d.Value.bop with
  | Ir.Instr.Add -> Int64.logand (Int64.add a b) mask
  | Ir.Instr.Sub -> Int64.logand (Int64.sub a b) mask
  | Ir.Instr.Mul -> Int64.logand (Int64.mul a b) mask
  | Ir.Instr.Sdiv ->
      let b = sx sh b in
      if b = 0L then raise (Trap Div_by_zero);
      Int64.logand (Int64.div (sx sh a) b) mask
  | Ir.Instr.Udiv ->
      if b = 0L then raise (Trap Div_by_zero);
      Int64.logand (udiv a b) mask
  | Ir.Instr.Srem ->
      let b = sx sh b in
      if b = 0L then raise (Trap Div_by_zero);
      Int64.logand (Int64.rem (sx sh a) b) mask
  | Ir.Instr.Urem ->
      if b = 0L then raise (Trap Div_by_zero);
      Int64.logand (Int64.sub a (Int64.mul (udiv a b) b)) mask
  | Ir.Instr.And -> Int64.logand a b
  | Ir.Instr.Or -> Int64.logor a b
  | Ir.Instr.Xor -> Int64.logxor a b
  | Ir.Instr.Shl -> Int64.logand (Int64.shift_left a (Int64.to_int b land 63)) mask
  | Ir.Instr.Lshr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Ir.Instr.Ashr -> Int64.logand (Int64.shift_right (sx sh a) (Int64.to_int b land 63)) mask

let[@inline] fbinop (d : Value.fbinop) (a : int64) (b : int64) : int64 =
  let single = d.Value.fsingle in
  let x = fdec single a in
  let y = fdec single b in
  match d.Value.fop with
  | Ir.Instr.Fadd -> fenc single (x +. y)
  | Ir.Instr.Fsub -> fenc single (x -. y)
  | Ir.Instr.Fmul -> fenc single (x *. y)
  | Ir.Instr.Fdiv -> fenc single (x /. y)

let[@inline] icmp (d : Value.icmp) (a : int64) (b : int64) : bool =
  let sh = d.Value.csh in
  match d.Value.icc with
  | Ir.Instr.Ieq -> a = b
  | Ir.Instr.Ine -> a <> b
  | Ir.Instr.Islt -> sx sh a < sx sh b
  | Ir.Instr.Isle -> sx sh a <= sx sh b
  | Ir.Instr.Isgt -> sx sh a > sx sh b
  | Ir.Instr.Isge -> sx sh a >= sx sh b
  | Ir.Instr.Iult -> ult a b
  | Ir.Instr.Iule -> not (ult b a)
  | Ir.Instr.Iugt -> ult b a
  | Ir.Instr.Iuge -> not (ult a b)

let[@inline] fcmp (d : Value.fcmp) (a : int64) (b : int64) : bool =
  let single = d.Value.csingle in
  let x = fdec single a in
  let y = fdec single b in
  match d.Value.fcc with
  | Ir.Instr.Foeq -> x = y
  | Ir.Instr.Fone -> x <> y && x = x && y = y
  | Ir.Instr.Folt -> x < y
  | Ir.Instr.Fole -> x <= y
  | Ir.Instr.Fogt -> x > y
  | Ir.Instr.Foge -> x >= y

let[@inline] cast (d : Value.cast) (x : int64) : int64 =
  match d.Value.ck with
  | Ir.Instr.Trunc | Ir.Instr.Bitcast -> Int64.logand x d.Value.to_mask
  | Ir.Instr.Zext -> x
  | Ir.Instr.Sext -> Int64.logand (sx d.Value.from_sh x) d.Value.to_mask
  | Ir.Instr.Fptosi ->
      let f = fdec d.Value.from_single x in
      if f <> f then 0L
      else if f >= 0x1p63 || f < -0x1p63 then Int64.logand Int64.min_int d.Value.to_mask
      else Int64.logand (Int64.of_float f) d.Value.to_mask
  | Ir.Instr.Sitofp -> fenc d.Value.to_single (Int64.to_float (sx d.Value.from_sh x))
  | Ir.Instr.Fpext -> fenc false (fdec true x)
  | Ir.Instr.Fptrunc -> fenc true (fdec false x)

(* Scalar call arguments, gathered into a fresh array per call. *)
let args_fn (argops : Code.rop array) : Bytes.t -> int64 array =
  let ops = Array.map (lop ~n:1) argops in
  let n = Array.length ops in
  fun regs ->
    let args = Array.make n 0L in
    for i = 0 to n - 1 do
      let x = rd regs ops.(i) 0 in
      args.(i) <- x
    done;
    args

(* Compiles the operational body of one instruction — semantics, memory
   effects, timing epilogue — into a closure specialized on its operands
   and lane counts: operands are lane-normalised once, and the undo-log
   hook is compiled in or dropped entirely instead of being re-examined on
   every dynamic instruction.  Every operand is read through [rd] and
   every lane computed by the inline evaluators above.  Calls, returns,
   builtins, the fault hooks (each a test of its armed machine field) and
   the timing model are the helpers [interp] uses too; the per-op
   semantics are this engine's own, and the equivalence tests hold both
   engines to bit-identical results. *)
let compile_body (m : t) (pc : int) (it : Code.citem) :
    thread -> frame -> int -> int =
  let reexec_on = m.cfg.reexec_retries > 0 in
  let plan = it.Code.plan in
  let dst = it.Code.dst in
  let cls = class_of it.Code.op in
  let next = pc + 1 in
  (* timing epilogue of the plain ops (same order as [interp]) *)
  let finish_plain th (fr : frame) ready mem_lat =
    let completion = Timing.exec th.timing ~ready ~mem_lat plan in
    if dst >= 0 then fr.ready.(dst) <- completion
  in
  let finish_branch th ready ~taken ~force_miss =
    let completion = Timing.exec th.timing ~ready ~mem_lat:Cache.hit_latency plan in
    let miss = Branch_pred.record th.bpred ~pc ~taken in
    if miss || force_miss then begin
      th.ctr.Counters.branch_misses <- th.ctr.Counters.branch_misses + 1;
      Timing.mispredict th.timing ~resolved:completion
    end
  in
  (* the effective address of a load/store, with the armed address fault *)
  let addr_of (a : lop) regs = k_fix_addr m cls (rd regs a 0) in
  match it.Code.op with
  | Code.Rbinop (d, n, op, a, b) ->
      let a = lop ~n a and b = lop ~n b in
      fun th fr ready ->
        let regs = fr.regs in
        for j = 0 to n - 1 do
          let x = rd regs a j in
          let y = rd regs b j in
          regs.%{d + j} <- ibinop op x y
        done;
        finish_plain th fr ready Cache.hit_latency;
        next
  | Code.Rfbinop (d, n, op, a, b) ->
      let a = lop ~n a and b = lop ~n b in
      fun th fr ready ->
        let regs = fr.regs in
        for j = 0 to n - 1 do
          let x = rd regs a j in
          let y = rd regs b j in
          regs.%{d + j} <- fbinop op x y
        done;
        finish_plain th fr ready Cache.hit_latency;
        next
  | Code.Ricmp (d, n, cc, tmask, a, b) ->
      let a = lop ~n a and b = lop ~n b in
      fun th fr ready ->
        let regs = fr.regs in
        for j = 0 to n - 1 do
          let x = rd regs a j in
          let y = rd regs b j in
          regs.%{d + j} <- (if icmp cc x y then tmask else 0L)
        done;
        finish_plain th fr ready Cache.hit_latency;
        next
  | Code.Rfcmp (d, n, cc, tmask, a, b) ->
      let a = lop ~n a and b = lop ~n b in
      fun th fr ready ->
        let regs = fr.regs in
        for j = 0 to n - 1 do
          let x = rd regs a j in
          let y = rd regs b j in
          regs.%{d + j} <- (if fcmp cc x y then tmask else 0L)
        done;
        finish_plain th fr ready Cache.hit_latency;
        next
  | Code.Rselect (d, n, c, a, b) ->
      let c = lop ~n c and a = lop ~n a and b = lop ~n b in
      fun th fr ready ->
        let regs = fr.regs in
        for j = 0 to n - 1 do
          let x = if rd regs c j <> 0L then rd regs a j else rd regs b j in
          regs.%{d + j} <- x
        done;
        finish_plain th fr ready Cache.hit_latency;
        next
  | Code.Rcast (d, n, k, a) ->
      let a = lop ~n a in
      fun th fr ready ->
        let regs = fr.regs in
        for j = 0 to n - 1 do
          let x = rd regs a j in
          regs.%{d + j} <- cast k x
        done;
        finish_plain th fr ready Cache.hit_latency;
        next
  | Code.Rmov (d, n, a) ->
      let a = lop ~n a in
      fun th fr ready ->
        let regs = fr.regs in
        for j = 0 to n - 1 do
          let x = rd regs a j in
          regs.%{d + j} <- x
        done;
        finish_plain th fr ready Cache.hit_latency;
        next
  | Code.Rload (d, w, a) ->
      let a = lop ~n:1 a in
      fun th fr ready ->
        let regs = fr.regs in
        let addr = addr_of a regs in
        regs.%{d} <- Memory.read m.mem ~width:w addr;
        finish_plain th fr ready (k_touch m th cls w addr);
        next
  | Code.Rvload (d, n, w, a) ->
      let a = lop ~n:1 a in
      fun th fr ready ->
        let regs = fr.regs in
        let addr = addr_of a regs in
        for j = 0 to n - 1 do
          regs.%{d + j} <- Memory.read m.mem ~width:w (Int64.add addr (Int64.of_int (j * w)))
        done;
        finish_plain th fr ready (k_touch m th cls w addr);
        next
  | Code.Rstore (w, v, a) ->
      let a = lop ~n:1 a and v = lop ~n:1 v in
      fun th fr ready ->
        let regs = fr.regs in
        let addr = addr_of a regs in
        if reexec_on then ck_log_write m th ~width:w addr;
        let x = rd regs v 0 in
        Memory.write m.mem ~width:w addr x;
        finish_plain th fr ready (k_touch m th cls w addr);
        next
  | Code.Rvstore (n, w, v, a) ->
      let a = lop ~n:1 a and v = lop ~n v in
      fun th fr ready ->
        let regs = fr.regs in
        let addr = addr_of a regs in
        for j = 0 to n - 1 do
          let aj = Int64.add addr (Int64.of_int (j * w)) in
          if reexec_on then ck_log_write m th ~width:w aj;
          let x = rd regs v j in
          Memory.write m.mem ~width:w aj x
        done;
        finish_plain th fr ready (k_touch m th cls w addr);
        next
  | Code.Ralloca (d, size) ->
      let sz = Int64.of_int (Memory.align16 size) in
      fun th fr ready ->
        th.sp <- Int64.sub th.sp sz;
        fr.regs.%{d} <- th.sp;
        finish_plain th fr ready Cache.hit_latency;
        next
  | Code.Rcall (Code.Direct fid, argops, cdst, _) ->
      let gargs = args_fn argops in
      let cfc = m.code.Code.cfuncs.(fid) in
      fun th fr ready ->
        call_enter m th fr plan ~ready cfc (gargs fr.regs) ~ret_off:cdst ~resume:next
  | Code.Rcall (Code.Builtin id, argops, cdst, cdl) ->
      let gargs = args_fn argops in
      fun th fr _ready -> call_builtin m th fr ~pc id (gargs fr.regs) ~dst:cdst ~dlanes:cdl
  | Code.Rcall_ind (fp, argops, cdst, _) ->
      let fp = lop ~n:1 fp and gargs = args_fn argops in
      fun th fr ready ->
        let cfc = cfunc_of_ptr m (rd fr.regs fp 0) in
        call_enter m th fr plan ~ready cfc (gargs fr.regs) ~ret_off:cdst ~resume:next
  | Code.Ratomic (op, d, a, x, w) ->
      let a = lop ~n:1 a and x = lop ~n:1 x in
      let wmask = Value.mask_of_width (w * 8) in
      fun th fr ready ->
        let regs = fr.regs in
        let addr = addr_of a regs in
        let old = Memory.read m.mem ~width:w addr in
        let v = rd regs x 0 in
        let nv =
          match op with
          | Ir.Instr.Rmw_add -> Int64.add old v
          | Ir.Instr.Rmw_sub -> Int64.sub old v
          | Ir.Instr.Rmw_xchg -> v
          | Ir.Instr.Rmw_and -> Int64.logand old v
          | Ir.Instr.Rmw_or -> Int64.logor old v
        in
        if reexec_on then ck_log_write m th ~width:w addr;
        Memory.write m.mem ~width:w addr (Int64.logand nv wmask);
        regs.%{d} <- old;
        finish_plain th fr ready (k_touch m th cls w addr);
        next
  | Code.Rcmpxchg (d, a, e, dv, w) ->
      let a = lop ~n:1 a and e = lop ~n:1 e and dv = lop ~n:1 dv in
      fun th fr ready ->
        let regs = fr.regs in
        let addr = addr_of a regs in
        let old = Memory.read m.mem ~width:w addr in
        let expected = rd regs e 0 in
        if old = expected then begin
          if reexec_on then ck_log_write m th ~width:w addr;
          let x = rd regs dv 0 in
          Memory.write m.mem ~width:w addr x
        end;
        regs.%{d} <- old;
        finish_plain th fr ready (k_touch m th cls w addr);
        next
  | Code.Rextract (d, v, l) ->
      let v = lop ~n:(l + 1) v in
      fun th fr ready ->
        let regs = fr.regs in
        let x = rd regs v l in
        regs.%{d} <- x;
        finish_plain th fr ready Cache.hit_latency;
        next
  | Code.Rinsert (d, n, v, l, s) ->
      let v = lop ~n v and s = lop ~n:1 s in
      fun th fr ready ->
        let regs = fr.regs in
        for j = 0 to n - 1 do
          let x = if j = l then rd regs s 0 else rd regs v j in
          regs.%{d + j} <- x
        done;
        finish_plain th fr ready Cache.hit_latency;
        next
  | Code.Rbroadcast (d, n, s) ->
      let s = lop ~n:1 s in
      fun th fr ready ->
        let regs = fr.regs in
        let x = rd regs s 0 in
        for j = 0 to n - 1 do
          regs.%{d + j} <- x
        done;
        finish_plain th fr ready Cache.hit_latency;
        next
  | Code.Rshuffle (d, n, v, perm) ->
      let v = lop ~n v in
      (* scratch reused across executions: machines run single-domain,
         and no closure is re-entered mid-instruction *)
      let tmp = Bytes.create (8 * n) in
      fun th fr ready ->
        let regs = fr.regs in
        for j = 0 to n - 1 do
          let x = rd regs v j in
          tmp.%{j} <- x
        done;
        for j = 0 to n - 1 do
          regs.%{d + j} <- tmp.%{perm.(j)}
        done;
        finish_plain th fr ready Cache.hit_latency;
        next
  | Code.Rptestz (d, v) ->
      let lanes = rop_lanes v in
      let v = lop ~n:lanes v in
      fun th fr ready ->
        let regs = fr.regs in
        let all_zero = ref true in
        for j = 0 to lanes - 1 do
          if rd regs v j <> 0L then all_zero := false
        done;
        regs.%{d} <- (if !all_zero then 1L else 0L);
        finish_plain th fr ready Cache.hit_latency;
        next
  | Code.Rgather (d, n, w, a) ->
      let alanes = rop_lanes a in
      let a = lop ~n:alanes a in
      fun th fr ready ->
        let regs = fr.regs in
        let a0 = rd regs a 0 in
        let disagree = ref false in
        for j = 1 to alanes - 1 do
          if rd regs a j <> a0 then disagree := true
        done;
        let addr = if !disagree then majority4 ~n:alanes (fun j -> rd regs a j) else a0 in
        let addr = k_fix_addr m cls addr in
        if !disagree then note_recovered m;
        let v = Memory.read m.mem ~width:w addr in
        for j = 0 to n - 1 do
          regs.%{d + j} <- v
        done;
        finish_plain th fr ready (k_touch m th cls w addr);
        next
  | Code.Rscatter (w, v, a) ->
      let alanes = rop_lanes a and vlanes = rop_lanes v in
      let a = lop ~n:alanes a and v = lop ~n:vlanes v in
      fun th fr ready ->
        let regs = fr.regs in
        let a0 = rd regs a 0 in
        let v0 = rd regs v 0 in
        let disagree = ref false in
        for j = 1 to alanes - 1 do
          if rd regs a j <> a0 then disagree := true
        done;
        for j = 1 to vlanes - 1 do
          if rd regs v j <> v0 then disagree := true
        done;
        let addr = if !disagree then majority4 ~n:alanes (fun j -> rd regs a j) else a0 in
        let addr = k_fix_addr m cls addr in
        let value = if !disagree then majority4 ~n:vlanes (fun j -> rd regs v j) else v0 in
        if !disagree then note_recovered m;
        if reexec_on then ck_log_write m th ~width:w addr;
        Memory.write m.mem ~width:w addr value;
        finish_plain th fr ready (k_touch m th cls w addr);
        next
  | Code.Tret o -> fun th fr ready -> call_return m th fr plan ~ready o
  | Code.Tbr target ->
      fun th fr ready ->
        finish_plain th fr ready Cache.hit_latency;
        target
  | Code.Tcondbr (c, t, e) ->
      let c = lop ~n:1 c in
      fun th fr ready ->
        let taken = rd fr.regs c 0 <> 0L in
        let taken = if k_diverted m then not taken else taken in
        finish_branch th ready ~taken ~force_miss:false;
        if taken then t else e
  | Code.Tvbr (mask, t, e, r) ->
      let lanes = rop_lanes mask in
      let mask = lop ~n:lanes mask in
      fun th fr ready ->
        let regs = fr.regs in
        let all_true = ref true and all_false = ref true in
        for j = 0 to lanes - 1 do
          if rd regs mask j = 0L then all_true := false else all_false := false
        done;
        let at = !all_true and af = !all_false in
        (* a diverted vector branch: a unanimous mask goes the wrong way,
           a mixed one skips the recovery edge *)
        let npc =
          if k_diverted m then if at then e else t else if at then t else if af then e else r
        in
        finish_branch th ready ~taken:(not af) ~force_miss:((not at) && not af);
        npc
  | Code.Tvbr_u (mask, t, e) ->
      let mask = lop ~n:1 mask in
      fun th fr ready ->
        let taken = rd fr.regs mask 0 <> 0L in
        let taken = if k_diverted m then not taken else taken in
        finish_branch th ready ~taken ~force_miss:false;
        if taken then t else e
  | Code.Tunreachable -> fun _ _ _ -> raise (Trap Unreachable_executed)

(* Compiles one instruction into its per-instruction closure: the
   engine's body for it ([compile_body], or [interp] under [Reference])
   wrapped in the per-instruction bookkeeping both engines share (trace,
   instruction ceiling, counters, fault-site streams, optional
   profiling). *)
let compile_item (m : t) (cf : Code.cfunc) (pc : int) (it : Code.citem) :
    thread -> frame -> int =
  let cfg = m.cfg in
  let nuops = it.Code.nuops in
  let dst = it.Code.dst in
  let fl = it.Code.flags in
  let cls = class_of it.Code.op in
  let is_avx = fl land Code.fl_avx <> 0 in
  let is_load = fl land Code.fl_load <> 0 in
  let is_store = fl land Code.fl_store <> 0 in
  let is_branch = fl land Code.fl_branch <> 0 in
  let hardened = cf.Code.cf_hardened in
  let is_inject_site = fl land Code.fl_inject <> 0 in
  let is_mem_site = hardened && (is_load || is_store) in
  let is_br_site =
    hardened
    && match it.Code.op with Code.Tcondbr _ | Code.Tvbr _ | Code.Tvbr_u _ -> true | _ -> false
  in
  let is_site = is_inject_site || is_mem_site || is_br_site in
  let ready_of = ready_fn it.Code.srcs in
  let body =
    match cfg.engine with
    | Compiled -> compile_body m pc it
    | Reference -> fun th fr ready -> interp m th fr pc it ready
  in
  (* the armed site number of each stream, 0 in the streams [cfg] does
     not arm (site numbers count from 1) *)
  let reg_at, mem_at, br_at =
    match cfg.inject with
    | Some inj -> kind_sites inj.kind ((inj.at, 0, 0), (0, inj.at, 0), (0, 0, inj.at))
    | None -> (0, 0, 0)
  in
  let dlanes = it.Code.dlanes in
  let trace_hook : (thread -> unit) option =
    match cfg.trace with
    | Some buf when Array.length cf.Code.texts > pc -> Some (fun th -> trace_line m buf th cf pc)
    | _ -> None
  in
  let max_instrs = cfg.max_instrs in
  let exec th fr =
    (match trace_hook with None -> () | Some h -> h th);
    m.total_instrs <- m.total_instrs + 1;
    if m.total_instrs > max_instrs then raise (Trap Hang);
    let ctr = th.ctr in
    ctr.Counters.instrs <- ctr.Counters.instrs + 1;
    ctr.Counters.uops <- ctr.Counters.uops + nuops;
    if is_avx then ctr.Counters.avx_instrs <- ctr.Counters.avx_instrs + 1;
    if is_load then ctr.Counters.loads <- ctr.Counters.loads + 1;
    if is_store then ctr.Counters.stores <- ctr.Counters.stores + 1;
    if is_branch then ctr.Counters.branches <- ctr.Counters.branches + 1;
    if not is_site then body th fr (ready_of fr)
    else begin
      (* the fault-site streams, counted before the body: an armed memory
         or branch fault is armed here, so it applies to this very access
         or branch; an armed register SEU flips the destination after the
         body, which is otherwise a tail call *)
      if is_mem_site then begin
        m.mem_count <- m.mem_count + 1;
        if m.mem_count = mem_at then arm_site m
      end
      else if is_br_site then begin
        m.br_count <- m.br_count + 1;
        if m.br_count = br_at then arm_site m
      end;
      if is_inject_site then m.inj_count <- m.inj_count + 1;
      if is_inject_site && m.inj_count = reg_at then begin
        let r = body th fr (ready_of fr) in
        flip_dest m fr ~dst ~dlanes cls;
        r
      end
      else body th fr (ready_of fr)
    end
  in
  (* per-class cycle attribution, like the trace hook compiled in only
     when enabled: with [profile = None] the closure is [exec] itself *)
  match cfg.profile with
  | None -> exec
  | Some prof ->
      fun th fr ->
        let c0 = Timing.cycle th.timing in
        let r = exec th fr in
        Profile.add prof cls ~cycles:(Timing.cycle th.timing - c0);
        r

(* Installs one function's row on its first entry: [kcode.(cf_id).(pc)]
   runs that instruction.  The row starts as one stub per instruction,
   which compiles it on its first execution, stores the closure in its
   slot and runs it.  Compiling per instruction rather than per function
   or module keeps a restored campaign experiment from translating code it
   never reaches (recovery blocks, the part of a function its tail has
   already left). *)
let compile_func (m : t) (cf : Code.cfunc) =
  let code = cf.Code.code in
  let row = Array.make (Array.length code) (fun _ _ -> k_yield) in
  let stub pc th fr =
    let k = compile_item m cf pc code.(pc) in
    row.(pc) <- k;
    k th fr
  in
  for pc = 0 to Array.length code - 1 do
    row.(pc) <- stub pc
  done;
  m.kcode.(cf.Code.cf_id) <- row

(* ---- scheduler ---- *)

let quantum = 256

(* One scheduling quantum of [th], under either engine.  The program
   counter lives in a local between closures; [fr.pc] is written back only
   when the quantum budget expires mid-frame (frame switches maintain it
   inline, per the closure return protocol), and each frame switch
   compiles the entered function if it has not run yet.  Every closure
   retires one instruction, so a quantum ends after [quantum]
   instructions or when the thread leaves the Running state, which fixes
   the snapshot/abort boundaries. *)
let run_quantum (m : t) (th : thread) =
  let budget = ref quantum in
  let running = ref true in
  while !running && !budget > 0 do
    let fr = List.hd th.frames in
    let cfid = fr.cf.Code.cf_id in
    if Array.length m.kcode.(cfid) = 0 then compile_func m fr.cf;
    let code = m.kcode.(cfid) in
    let pc = ref fr.pc in
    let switched = ref false in
    while (not !switched) && !budget > 0 do
      decr budget;
      let r = code.(!pc) th fr in
      if r >= 0 then pc := r
      else begin
        switched := true;
        if r = k_yield then running := false
      end
    done;
    if not !switched then fr.pc <- !pc
  done

let pick_next (m : t) : thread option =
  let best = ref None in
  List.iter
    (fun th ->
      if is_running th.status then
        match !best with
        | Some b when Timing.cycle b.timing <= Timing.cycle th.timing -> ()
        | _ -> best := Some th)
    m.threads;
  !best

let sync_counters (m : t) =
  List.iter
    (fun th ->
      if not (is_done th.status) then
        th.ctr.Counters.cycles <- Timing.cycle th.timing - th.start_cycle)
    m.threads

let make_result (m : t) (trap : trap_reason option) : result =
  sync_counters m;
  end_trace m;
  let threads = List.rev m.threads in
  let counters = List.map (fun th -> th.ctr) threads in
  let totals = List.fold_left Counters.add (Counters.create ()) counters in
  let wall =
    List.fold_left
      (fun acc th -> max acc (if is_done th.status then th.final_cycle else Timing.cycle th.timing))
      0 m.threads
  in
  let out = Buffer.contents m.output in
  {
    wall_cycles = wall;
    counters;
    totals;
    output_digest = Digest.string out;
    output_bytes = out;
    trap;
    recovered_faults = m.recovered;
    retried_faults = m.retried;
    reexecutions = m.reexecs;
    inject_sites = m.inj_count;
    mem_sites = m.mem_count;
    branch_sites = m.br_count;
    fault_injected = m.injected;
    inject_class = (if m.injected then Some m.inject_class else None);
    detect_latency =
      (if m.injected && m.detect_instr >= 0 then Some (m.detect_instr - m.inject_instr)
       else None);
  }

(* Drives the scheduler until every thread is done (or the machine traps),
   under the configured engine.  [on_quantum] fires after every scheduling
   quantum — the hook the fault campaign uses to capture snapshots at
   deterministic (quantum-boundary) points.  The engines' one trap
   boundary: a [Trap], or a [Memory.Fault] or [Value.Division_by_zero]
   raised by either engine, ends the run with that outcome here. *)
let resume ?on_quantum (m : t) : result =
  (* the abort hook is polled at every quantum boundary; {!Abort} (like
     any host exception the hook raises) escapes [loop] past the trap
     handlers below, so it can never be mistaken for an experiment outcome *)
  let rec loop () =
    match pick_next m with
    | Some th ->
        run_quantum m th;
        (match on_quantum with Some f -> f m | None -> ());
        (match m.cfg.abort with Some f when f () -> raise Abort | _ -> ());
        loop ()
    | None ->
        if List.for_all (fun th -> is_done th.status) m.threads then ()
        else begin
          (* waiting threads whose target has finished were woken eagerly;
             anything left is a deadlock *)
          List.iter
            (fun th ->
              match th.status with
              | Waiting tid -> (
                  match find_thread m tid with
                  | Some t when is_done t.status ->
                      th.status <- Running;
                      Timing.sync_to th.timing t.final_cycle
                  | _ -> ())
              | Waiting_barrier _ | Running | Done -> ())
            m.threads;
          if List.exists (fun th -> is_running th.status) m.threads then loop ()
          else raise (Trap Deadlock)
        end
  in
  (* a trap is a detection event for latency purposes *)
  let trapped r =
    note_detect m;
    make_result m (Some r)
  in
  match loop () with
  | () -> make_result m None
  | exception Trap r -> trapped r
  | exception Memory.Fault a -> trapped (Segfault a)
  | exception Value.Division_by_zero -> trapped Div_by_zero

(* Runs [entry] with scalar [args] to completion of all threads. *)
let run ?(args = [||]) ?on_quantum (m : t) (entry : string) : result =
  let cf = Code.lookup m.code entry in
  ignore (spawn_thread m cf args ~start_cycle:0);
  resume ?on_quantum m

(* ---- machine snapshots (campaign fast-forward) ---- *)

(* A snapshot is a deep, self-contained copy of the architectural and
   micro-architectural state at a quantum boundary of a fault-free run.
   Memory is a [Memory.image]: it shares its pages copy-on-write with the
   source machine, so a snapshot costs a page table, not a 64 MB copy.
   Its threads are [copy_thread] copies that never run: [restore] copies
   them again.  Checkpoint arguments and undo-log spines are immutable
   and shared. *)
type snapshot = {
  sn_code : Code.t;  (** immutable, shared with the source machine *)
  sn_mem : Memory.image;
  sn_threads : thread list;  (** in [m.threads] order *)
  sn_nthreads : int;
  sn_output : string;
  sn_allocs : (int64 * int) list;
  sn_total_instrs : int;
  sn_inj_count : int;
  sn_mem_count : int;
  sn_br_count : int;
  sn_recovered : int;
  sn_retried : int;
  sn_reexecs : int;
}

(* Fault-site counters consumed up to this snapshot, in the order
   (register sites, memory sites, branch sites) — what the campaign uses
   to pick the greatest snapshot strictly below an injection site. *)
let snapshot_sites (sn : snapshot) = (sn.sn_inj_count, sn.sn_mem_count, sn.sn_br_count)
let snapshot_instrs (sn : snapshot) = sn.sn_total_instrs

(* An independent copy of [th]: its frames' registers and ready times,
   and its timing, cache, predictor and counters.  A live checkpoint's
   [ck_frame] is physically one of [th.frames] and [ck_caller] is the
   list below it, so both are re-pointed into the copied frames by
   position. *)
let copy_thread (th : thread) : thread =
  let frames =
    List.map
      (fun (fr : frame) -> { fr with regs = Bytes.copy fr.regs; ready = Array.copy fr.ready })
      th.frames
  in
  let ck =
    Option.map
      (fun ck ->
        let rec repoint olds news =
          match (olds, news) with
          | o :: olds, n :: news ->
              if o == ck.ck_frame then { ck with ck_frame = n; ck_caller = news }
              else repoint olds news
          | _ -> invalid_arg "Machine.copy_thread: detached checkpoint frame"
        in
        repoint th.frames frames)
      th.ck
  in
  {
    th with
    frames;
    timing = Timing.copy th.timing;
    cache = Cache.copy th.cache;
    bpred = Branch_pred.copy th.bpred;
    ctr = Counters.copy th.ctr;
    ck;
  }

let snapshot (m : t) : snapshot =
  if m.injected then invalid_arg "Machine.snapshot: fault already injected";
  {
    sn_code = m.code;
    sn_mem = Memory.capture m.mem;
    sn_threads = List.map copy_thread m.threads;
    sn_nthreads = m.nthreads;
    sn_output = Buffer.contents m.output;
    sn_allocs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.alloc_sizes [];
    sn_total_instrs = m.total_instrs;
    sn_inj_count = m.inj_count;
    sn_mem_count = m.mem_count;
    sn_br_count = m.br_count;
    sn_recovered = m.recovered;
    sn_retried = m.retried;
    sn_reexecs = m.reexecs;
  }

(* Rebuilds a runnable machine from [sn] under [cfg] (typically a config
   that arms an injection).  The restored machine continues with [resume].
   Every run counts all three site streams, so the counters keep their
   snapshot values and a plan drawn against the full golden run stays
   valid: site number k still fires at the same dynamic instruction. *)
let restore ?(cfg = default_config) (sn : snapshot) : t =
  let m = make ~cfg sn.sn_code (Memory.of_image sn.sn_mem) in
  Buffer.add_string m.output sn.sn_output;
  List.iter (fun (k, v) -> Hashtbl.replace m.alloc_sizes k v) sn.sn_allocs;
  m.nthreads <- sn.sn_nthreads;
  m.total_instrs <- sn.sn_total_instrs;
  m.inj_count <- sn.sn_inj_count;
  m.mem_count <- sn.sn_mem_count;
  m.br_count <- sn.sn_br_count;
  m.recovered <- sn.sn_recovered;
  m.retried <- sn.sn_retried;
  m.reexecs <- sn.sn_reexecs;
  m.threads <- List.map copy_thread sn.sn_threads;
  (match m.threads with
  | [] -> ()
  | any :: _ ->
      let by_tid = Array.make (max m.nthreads 1) any in
      List.iter (fun th -> by_tid.(th.tid) <- th) m.threads;
      m.by_tid <- by_tid);
  m

(* Convenience: build, run, and return the result in one call. *)
let run_module ?(cfg = default_config) ?(flags_cmp = false) ?(args = [||])
    (modul : Ir.Instr.modul) (entry : string) : result =
  let m = create ~cfg ~flags_cmp modul in
  run ~args m entry

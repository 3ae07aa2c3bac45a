(** Supervised experiment execution (see supervisor.mli).

    The design follows RepTFD's replay discipline: a suspect run is
    isolated, deterministically re-executed a bounded number of times, and
    only then given up on — except the suspect here is the *harness*
    itself (a host exception out of the simulator, a wall-clock runaway, a
    dead worker), not the simulated program.  Every verdict that
    is not [V_ok] leaves the campaign's statistics untouched: supervision
    may shrink the sample, never skew it. *)

(* ---- quarantine records ---- *)

type error_kind = Host_exception | Deadline | Worker_death

let error_kind_to_string = function
  | Host_exception -> "exception"
  | Deadline -> "timeout"
  | Worker_death -> "worker-death"

type tool_error = {
  te_round : int;
  te_slot : int;
  te_kind : error_kind;
  te_attempts : int;
  te_detail : string;
  te_backtrace : string;
}

(* ---- configuration ---- *)

type config = {
  retries : int;
  deadline_factor : float;
  deadline_floor : float;
}

let default = { retries = 2; deadline_factor = 10.0; deadline_floor = 5.0 }

(* ---- chaos plans (test-only) ---- *)

type chaos_event = Chaos_raise | Chaos_hang | Chaos_slow of float | Chaos_kill

type chaos_spec = {
  ch_slot : int;
  ch_event : chaos_event;
  ch_persistent : bool;
  ch_hits : int Atomic.t;
}

type chaos_plan = chaos_spec list

let chaos ?(persistent = false) ~slot event =
  { ch_slot = slot; ch_event = event; ch_persistent = persistent; ch_hits = Atomic.make 0 }

let chaos_hits (c : chaos_spec) = Atomic.get c.ch_hits

exception Chaos_failure

exception Worker_kill

(* ---- running median of executed experiment times ---- *)

(* A bounded ring of the most recent samples; the median is computed on
   demand over a copy, so recording stays O(1) on the worker's path. *)
let clock_window = 512

type clock = { k_lock : Mutex.t; k_ring : float array; mutable k_n : int }

let clock_make () =
  { k_lock = Mutex.create (); k_ring = Array.make clock_window 0.0; k_n = 0 }

let clock_record (k : clock) (v : float) =
  Mutex.protect k.k_lock (fun () ->
      k.k_ring.(k.k_n mod clock_window) <- v;
      k.k_n <- k.k_n + 1)

let clock_median (k : clock) : float option =
  Mutex.protect k.k_lock (fun () ->
      let n = min k.k_n clock_window in
      if n = 0 then None
      else begin
        let a = Array.sub k.k_ring 0 n in
        Array.sort compare a;
        Some a.(n / 2)
      end)

(* ---- the supervisor ---- *)

(* No domain of its own: each worker checks its run's deadline and the
   cancel flag in the machine's abort hook, which the machine polls once
   per quantum anyway. *)
type t = { cfg : config; clock : clock; cancel : bool Atomic.t; deaths : int Atomic.t }

let start ?cancel (cfg : config) : t =
  (* quarantine records carry the raising exception's backtrace; without
     this they would all be empty *)
  Printexc.record_backtrace true;
  {
    cfg;
    clock = clock_make ();
    cancel = (match cancel with Some c -> c | None -> Atomic.make false);
    deaths = Atomic.make 0;
  }

let cancelled (s : t) = Atomic.get s.cancel

let config (s : t) = s.cfg

let worker_deaths (s : t) = Atomic.get s.deaths

let note_death (s : t) = Atomic.incr s.deaths

let record_sample (s : t) (v : float) = clock_record s.clock v

(* Deadline for the next run: factor x running median once one exists.
   Cold start (no executed experiment yet) falls back to factor x floor —
   generous under the production defaults (50 s), and still tight in
   tests, which shrink both knobs. *)
let deadline (s : t) : float =
  match clock_median s.clock with
  | Some m -> Float.max s.cfg.deadline_floor (s.cfg.deadline_factor *. m)
  | None -> Float.max s.cfg.deadline_floor (s.cfg.deadline_factor *. s.cfg.deadline_floor)

(* The chaos action for one attempt at [slot], or [None].  The hit
   counter advances on every *consultation* (i.e. every execution of the
   slot), so tests can assert a quarantined-then-resumed slot was never
   re-executed; one-shot specs only act on their first hit.  [expired]
   is the attempt's own abort condition. *)
let chaos_action (plan : chaos_plan) ~(slot : int) ~(expired : unit -> bool) :
    (unit -> unit) option =
  match List.find_opt (fun c -> c.ch_slot = slot) plan with
  | None -> None
  | Some c ->
      let hit = Atomic.fetch_and_add c.ch_hits 1 in
      if hit > 0 && not c.ch_persistent then None
      else
        Some
          (match c.ch_event with
          | Chaos_raise -> fun () -> raise Chaos_failure
          | Chaos_kill -> fun () -> raise Worker_kill
          | Chaos_slow d -> fun () -> Unix.sleepf d
          | Chaos_hang ->
              (* stall until the deadline passes or cancel is set; the
                 abort check that follows then fires at this same quantum
                 boundary *)
              fun () ->
                while not (expired ()) do
                  Unix.sleepf 0.001
                done)

(* ---- one supervised experiment ---- *)

type verdict =
  | V_ok of Cpu.Machine.result
  | V_quarantined of tool_error
  | V_cancelled

let supervised_run (s : t) ~(round : int) ~(slot : int) ~(chaos : chaos_plan)
    ~(max_instrs : int) ~(snapshots : Cpu.Machine.snapshot array) ~(spans : Obs.Span.t)
    (spec : Fault.run_spec) (e : Fault.experiment) : verdict =
  (* [attempts] = executions started; [timeouts]/[failures] = budget used
     per failure class.  An aborted run is retried once (a second deadline
     overrun is no longer plausible scheduling noise); a raising run is
     retried [cfg.retries] times (RepTFD-style bounded replay: a
     deterministic failure will reproduce, an environmental one —
     Out_of_memory, a chaos injection — may clear). *)
  let rec attempt ~(attempts : int) ~(timeouts : int) ~(failures : int) : verdict =
    if Atomic.get s.cancel then V_cancelled
    else begin
      let t0 = Unix.gettimeofday () in
      let until = t0 +. deadline s in
      let expired () = Atomic.get s.cancel || Unix.gettimeofday () > until in
      (* the chaos action runs on the first poll only: the first quantum
         boundary, after [on_quantum] and before the abort check *)
      let pending = ref (chaos_action chaos ~slot ~expired) in
      let abort () =
        (match !pending with
        | Some f ->
            pending := None;
            f ()
        | None -> ());
        expired ()
      in
      match Fault.run_experiment_from ~max_instrs ~spans ~abort ~snapshots spec e with
      | r ->
          clock_record s.clock (Unix.gettimeofday () -. t0);
          V_ok r
      | exception Cpu.Machine.Abort ->
          if Atomic.get s.cancel then V_cancelled
          else if timeouts >= 1 then
            V_quarantined
              {
                te_round = round;
                te_slot = slot;
                te_kind = Deadline;
                te_attempts = attempts + 1;
                (* static text: quarantine records land in the
                   deterministic results block, so no measured values *)
                te_detail = "wall-clock deadline exceeded twice";
                te_backtrace = "";
              }
          else attempt ~attempts:(attempts + 1) ~timeouts:(timeouts + 1) ~failures
      | exception Worker_kill ->
          (* deliberate worker death (chaos): let it escape the worker
             loop, whose death handler requeues the slot *)
          raise Worker_kill
      | exception exn ->
          let bt = Printexc.get_backtrace () in
          if failures >= s.cfg.retries then
            V_quarantined
              {
                te_round = round;
                te_slot = slot;
                te_kind = Host_exception;
                te_attempts = attempts + 1;
                te_detail = Printexc.to_string exn;
                te_backtrace = bt;
              }
          else attempt ~attempts:(attempts + 1) ~timeouts ~failures:(failures + 1)
    end
  in
  attempt ~attempts:0 ~timeouts:0 ~failures:0

let pp_tool_error fmt (te : tool_error) =
  Format.fprintf fmt "slot %d (round %d): %s after %d attempt%s%s" te.te_slot te.te_round
    (error_kind_to_string te.te_kind)
    te.te_attempts
    (if te.te_attempts = 1 then "" else "s")
    (if te.te_detail = "" then "" else ": " ^ te.te_detail)

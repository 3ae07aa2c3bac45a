(** Out-of-order superscalar timing engine (one instance per simulated core).

    The model is a lightweight Tomasulo approximation: instructions dispatch
    in order, four μops per cycle, into a 192-entry window; each μop issues
    at the earliest cycle at which its inputs are ready and one of its
    allowed execution ports is free, and completes after its latency.  Load
    latencies arrive from the cache model; branch mispredictions flush
    dispatch.  Wall-clock cycles and the resulting ILP are what the paper's
    Tables II/III and all normalized-runtime figures are built from.

    The static half of the model — each instruction's μop count, the
    decoded port set of every μop, whether it chains on the previous μop
    and whether it touches memory — is compiled once per instruction into
    a [plan] by [Code.compile]; [exec] then evaluates only the dynamic
    residue (dispatch window, port contention, L1 hit/miss latency, the
    miss pipe).  Both execution engines time every instruction this way. *)

type t = {
  port_free : int array;
  mutable bus_free : int;  (** next cycle the L1-miss memory pipe is free *)
  mutable dispatch_cycle : int;
  mutable dispatch_used : int;
  mutable horizon : int;  (** latest completion seen *)
  rob : int array;  (** completion times of the last [rob_size] μops *)
  mutable rob_pos : int;
}

let width = 4
let rob_size = 192

let create () =
  {
    port_free = Array.make Cost.nports 0;
    bus_free = 0;
    dispatch_cycle = 0;
    dispatch_used = 0;
    horizon = 0;
    rob = Array.make rob_size 0;
    rob_pos = 0;
  }

(* Independent deep copy, for machine snapshots: the campaign fast-forward
   resumes a core's clock mid-run, so the whole pipe state must travel. *)
let copy (t : t) : t =
  { t with port_free = Array.copy t.port_free; rob = Array.copy t.rob }

let reset (t : t) =
  Array.fill t.port_free 0 Cost.nports 0;
  t.bus_free <- 0;
  t.dispatch_cycle <- 0;
  t.dispatch_used <- 0;
  t.horizon <- 0;
  Array.fill t.rob 0 rob_size 0;
  t.rob_pos <- 0

(* Current core clock: dispatch cannot be behind, completions cannot be
   ahead of it forever. *)
let cycle (t : t) = max t.dispatch_cycle t.horizon

(* Inlined into [exec]: as a call it spilled the caller's live registers
   around every μop. *)
let[@inline] dispatch_one (t : t) =
  if t.dispatch_used >= width then begin
    t.dispatch_cycle <- t.dispatch_cycle + 1;
    t.dispatch_used <- 0
  end;
  (* window limit: cannot dispatch past an unretired μop 192 entries back *)
  let oldest = t.rob.(t.rob_pos) in
  if oldest > t.dispatch_cycle then begin
    t.dispatch_cycle <- oldest;
    t.dispatch_used <- 0
  end;
  t.dispatch_used <- t.dispatch_used + 1;
  t.dispatch_cycle

(* Precompiled form of one [Cost.uop]. *)
type uplan = {
  up_lat : int;
  up_ports : int array;  (** port indices decoded from the mask, ascending *)
  up_rt : int;
  up_chain : bool;
  up_load : bool;  (** latency comes from the cache model *)
  up_membus : bool;  (** load or store: serializes on the L1-miss pipe *)
}

type plan =
  | Pempty
  | Palu1 of uplan  (** exactly one μop, no memory side — the common case *)
  | Pseq of uplan array

let ports_of_mask (mask : int) : int array =
  let l = ref [] in
  for p = Cost.nports - 1 downto 0 do
    if mask land (1 lsl p) <> 0 then l := p :: !l
  done;
  Array.of_list !l

let uplan_of (u : Cost.uop) : uplan =
  {
    up_lat = u.Cost.lat;
    up_ports = ports_of_mask u.Cost.ports;
    up_rt = u.Cost.rt;
    up_chain = u.Cost.chain;
    up_load = u.Cost.mem = Cost.Mload;
    up_membus =
      (match u.Cost.mem with
      | Cost.Mload | Cost.Mstore -> true
      | Cost.Mnone -> false);
  }

let plan_of_uops (uops : Cost.uop array) : plan =
  match Array.length uops with
  | 0 -> Pempty
  | 1 when uops.(0).Cost.mem = Cost.Mnone -> Palu1 (uplan_of uops.(0))
  | _ -> Pseq (Array.map uplan_of uops)

(* Port pick over a decoded ascending port list: issues the μop (updates
   the chosen port's free time by [rt]) and returns its issue cycle.  The
   strict [<] over ascending ports resolves ties to the lowest-numbered
   free port. *)
let[@inline] pick_port (t : t) (ports : int array) (rt : int) (earliest : int) :
    int =
  if Array.length ports = 1 then begin
    let p0 = Array.unsafe_get ports 0 in
    let tp = t.port_free.(p0) in
    let at = if tp > earliest then tp else earliest in
    t.port_free.(p0) <- at + rt;
    at
  end
  else begin
    let p0 = Array.unsafe_get ports 0 in
    let t0 = t.port_free.(p0) in
    let best = ref p0
    and best_time = ref (if t0 > earliest then t0 else earliest) in
    for i = 1 to Array.length ports - 1 do
      let p = Array.unsafe_get ports i in
      let tp = t.port_free.(p) in
      let at = if tp > earliest then tp else earliest in
      if at < !best_time then begin
        best_time := at;
        best := p
      end
    done;
    t.port_free.(!best) <- !best_time + rt;
    !best_time
  end

let[@inline] finish_uop (t : t) (completion : int) =
  t.rob.(t.rob_pos) <- completion;
  t.rob_pos <- (t.rob_pos + 1) mod rob_size;
  if completion > t.horizon then t.horizon <- completion

(* Issues the μops of one instruction whose inputs are ready at [ready];
   returns the cycle at which its result is available.  [mem_lat]
   substitutes the latency of load μops; an L1 miss ([mem_lat] above the
   hit latency) also serializes every memory μop on the per-core pipe. *)
let exec (t : t) ~(ready : int) ~(mem_lat : int) (p : plan) : int =
  match p with
  | Pempty -> ready
  | Palu1 u ->
      (* single non-memory μop: dep is [ready] whether or not it chains,
         and [mem_lat] cannot apply *)
      let dispatched = dispatch_one t in
      let earliest = if ready > dispatched then ready else dispatched in
      let issue = pick_port t u.up_ports u.up_rt earliest in
      let completion = issue + u.up_lat in
      finish_uop t completion;
      completion
  | Pseq us ->
      let n = Array.length us in
      let last = ref ready and result = ref ready in
      let missed = mem_lat > Cache.hit_latency in
      for k = 0 to n - 1 do
        let u = Array.unsafe_get us k in
        let dispatched = dispatch_one t in
        let dep = if u.up_chain then !last else ready in
        let earliest = if dep > dispatched then dep else dispatched in
        let issue = ref (pick_port t u.up_ports u.up_rt earliest) in
        if u.up_membus && missed then begin
          if t.bus_free > !issue then issue := t.bus_free;
          t.bus_free <- !issue + Cost.membus_rt
        end;
        let lat = if u.up_load then mem_lat else u.up_lat in
        let completion = !issue + lat in
        finish_uop t completion;
        last := completion;
        if completion > !result then result := completion
      done;
      !result

(* Branch misprediction: the front end refills after the branch resolves. *)
let mispredict (t : t) ~(resolved : int) =
  let restart = resolved + Cost.mispredict_penalty in
  if restart > t.dispatch_cycle then begin
    t.dispatch_cycle <- restart;
    t.dispatch_used <- 0
  end

(* Fixed-cost advancement for native builtins (OS work the paper leaves
   unhardened and we do not model at μop granularity). *)
let advance (t : t) n =
  t.dispatch_cycle <- cycle t + n;
  t.dispatch_used <- 0;
  if t.dispatch_cycle > t.horizon then t.horizon <- t.dispatch_cycle

(* Synchronization edge: this core observed an event at absolute cycle [c]
   (thread join, lock hand-over); it cannot proceed earlier. *)
let sync_to (t : t) c =
  if c > t.dispatch_cycle then begin
    t.dispatch_cycle <- c;
    t.dispatch_used <- 0
  end;
  if c > t.horizon then t.horizon <- c

(** Ablations of the design choices called out in DESIGN.md §5. *)

let store_heavy = [ "hist"; "smatch"; "wc"; "dedup" ]

(* (a) store checks: value+address (paper) vs address only *)
let ablate_store_checks () =
  Common.heading "Ablation: store checks value+address vs address-only (16 threads)";
  let addr_only =
    Elzar.Hardened { Elzar.Harden_config.default with store_check_value = false }
  in
  Printf.printf "%-10s %12s %12s\n" "bench" "value+addr" "addr-only";
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      Printf.printf "%-10s %12.2f %12.2f\n" name
        (Common.norm ~nthreads:16 w Common.elzar)
        (Common.norm ~nthreads:16 w addr_only))
    store_heavy

(* (b) recovery strategy: basic low-lane comparison vs extended 3-lane
   vote.  Single-bit faults cannot tell them apart (both mask every
   single-lane fault); the differentiating pattern is the multi-bit SEU of
   §III-C — two lanes corrupted identically look like a majority to the
   basic strategy (silent corruption) while the extended one detects the
   2-2 tie and fail-stops. *)
let ablate_recovery () =
  Common.heading
    (Printf.sprintf
       "Ablation: recovery strategy under DOUBLE-bit injection (same bit, two lanes, %s \
        inputs)"
       (Workloads.Workload.size_to_string Common.fi_size));
  let extended =
    Elzar.Hardened { Elzar.Harden_config.default with recovery = Elzar.Harden_config.Extended }
  in
  Printf.printf "%-10s %30s %30s\n" "bench" "basic (SDC% / crashed%)" "extended (SDC% / crashed%)";
  let totals = Common.fi_totals () in
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let camp b =
        (Common.campaign totals ~n:(!Common.fi_injections / 2)
           ~model:(Fault.Double { same_bit = true }) w b)
          .Campaign.stats
      in
      let basic = camp (Elzar.Hardened Elzar.Harden_config.default) in
      let ext = camp extended in
      Printf.printf "%-10s %16.1f / %9.1f %18.1f / %9.1f\n" name (Fault.sdc_pct basic)
        (Fault.crashed_pct basic) (Fault.sdc_pct ext) (Fault.crashed_pct ext))
    [ "hist"; "linreg"; "wc" ];
  Common.fi_print_totals totals

(* (c) SWIFT-R voting: repair-all-copies vs use-majority-only *)
let ablate_swiftr_repair () =
  Common.heading "Ablation: SWIFT-R voting repairs copies vs majority-only (16 threads)";
  Printf.printf "%-10s %12s %12s\n" "bench" "repair" "no-repair";
  List.iter
    (fun (w : Workloads.Workload.t) ->
      Printf.printf "%-10s %12.2f %12.2f\n" w.Workloads.Workload.name
        (Common.norm ~nthreads:16 w Elzar.Swiftr)
        (Common.norm ~nthreads:16 w Elzar.Swiftr_norepair))
    Common.all_workloads

(* (d) register pressure: what an infinite-register simulator hides.  Real
   SWIFT-R triples live values and spills on x86's 16 GPRs; ELZAR's data
   replication keeps pressure near native (the paper's core bet). *)
let ablate_register_pressure () =
  Common.heading "Ablation: peak register pressure of the hot kernel (live registers)";
  let swiftr = Elzar.build_name Elzar.Swiftr in
  Printf.printf "%-10s %8s %8s %8s %8s\n" "bench"
    (Elzar.build_name Elzar.Native_novec)
    (Elzar.build_name Common.elzar) swiftr "x86-spill?";
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let pressure b =
        let m = Elzar.prepare b (w.Workloads.Workload.build Workloads.Workload.Tiny) in
        match Ir.Instr.find_func m "work" with
        | Some f -> Ir.Dataflow.max_pressure f
        | None -> 0
      in
      let n = pressure Elzar.Native_novec in
      let e = pressure (Elzar.Hardened Elzar.Harden_config.default) in
      let s = pressure Elzar.Swiftr in
      if n > 0 then
        Printf.printf "%-10s %8d %8d %8d %8s\n" w.Workloads.Workload.name n e s
          (if s > 16 && n <= 16 then swiftr else "-"))
    Common.all_workloads

let run () =
  ablate_store_checks ();
  ablate_recovery ();
  ablate_swiftr_repair ();
  ablate_register_pressure ()

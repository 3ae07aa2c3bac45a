(** Figure 13 extension: the expanded transient-fault taxonomy and the
    re-execution recovery pipeline.

    Three tables:
    - outcome grid of novec vs ELZAR vs SWIFT-R under each fault
      model (register SEUs, memory bit-flips, effective-address faults,
      control-flow faults) on the Phoenix kernels — registers are the only
      class ELZAR protects, so mem/addr land where §VII predicts;
    - Extended vs Reexec recovery under the adversarial double-bit
      same-bit campaign (the no-majority pattern §III-C worries about),
      where re-execution converts fail-stops into corrections;
    - a sample per-instruction-class AVF table (ELZAR, mixed model). *)

let grid_workloads = [ "hist"; "linreg"; "wc" ]
let grid_models = [ Fault.Reg; Fault.Mem; Fault.Addr; Fault.Cf ]

let cell (s : Fault.stats) =
  Printf.sprintf "%5.1f %5.1f %5.1f" (Fault.crashed_pct s) (Fault.correct_pct s)
    (Fault.sdc_pct s)

let run () =
  let n_grid = max 25 (!Common.fi_injections / 5) in
  let n_double = max 40 (!Common.fi_injections / 3) in
  let totals = Common.fi_totals () in
  let size = Workloads.Workload.size_to_string Common.fi_size in
  Common.heading
    (Printf.sprintf
       "Figure 13x: fault-model grid (%d injections per cell, %s inputs, \
        crashed/correct/SDC %%)"
       n_grid size);
  Printf.printf "%-8s %-5s | %17s | %17s | %17s\n" "bench" "model"
    (Elzar.build_name Elzar.Native_novec)
    (Elzar.build_name Common.elzar) (Elzar.build_name Elzar.Swiftr);
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      List.iter
        (fun model ->
          let campaign = Common.campaign totals ~n:n_grid ~model w in
          let rn = campaign Elzar.Native_novec in
          let re = campaign (Elzar.Hardened Elzar.Harden_config.default) in
          let rs = campaign Elzar.Swiftr in
          Printf.printf "%-8s %-5s | %s | %s | %s\n" name (Fault.model_to_string model)
            (cell rn.Campaign.stats) (cell re.Campaign.stats) (cell rs.Campaign.stats))
        grid_models)
    grid_workloads;

  Common.heading
    (Printf.sprintf
       "Figure 13x: Extended vs Reexec recovery (double-bit same-bit, %d injections, %s \
        inputs)"
       n_double size);
  Printf.printf "%-8s | %26s | %26s\n" "bench" "extended" "reexec(2)";
  Printf.printf "%-8s | %8s %8s %8s | %8s %8s %8s %9s\n" "" "crashed%" "corr%" "SDC%"
    "crashed%" "corr%" "SDC%" "latency";
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let campaign =
        Common.campaign totals ~n:n_double ~model:(Fault.Double { same_bit = true }) w
      in
      let re = campaign (Elzar.Hardened Elzar.Harden_config.extended) in
      let rr = campaign (Elzar.Hardened Elzar.Harden_config.reexec) in
      let se = re.Campaign.stats and sr = rr.Campaign.stats in
      let lat =
        match Fault.mean_latency (Array.map snd rr.Campaign.outcomes) with
        | Some l -> Printf.sprintf "%8.0f" l
        | None -> "       -"
      in
      Printf.printf "%-8s | %8.1f %8.1f %8.1f | %8.1f %8.1f %8.1f %s\n" name
        (Fault.crashed_pct se)
        (100.0 *. float_of_int se.Fault.corrected /. float_of_int (max 1 se.Fault.runs))
        (Fault.sdc_pct se) (Fault.crashed_pct sr)
        (100.0 *. float_of_int sr.Fault.corrected /. float_of_int (max 1 sr.Fault.runs))
        (Fault.sdc_pct sr) lat)
    grid_workloads;

  Common.heading
    (Printf.sprintf "Figure 13x: AVF by instruction class (elzar, hist, mixed model, %s inputs)"
       size);
  let r =
    Common.campaign totals ~n:(max 100 !Common.fi_injections) ~model:Fault.Mixed
      (Workloads.Registry.find "hist")
      (Elzar.Hardened Elzar.Harden_config.default)
  in
  Format.printf "%a" Fault.pp_avf (Fault.avf_table (Array.map snd r.Campaign.outcomes));
  Common.fi_print_totals totals

(* Scenario: measuring fault coverage (paper §V-C).

   Runs a small fault-injection campaign against one benchmark in its
   native and ELZAR builds and prints the Table I outcome breakdown, plus
   the window-of-vulnerability story: with the future-AVX gather/scatter
   mode the load-address extraction window closes and SDCs drop further.

   Run with: dune exec examples/fault_injection_campaign.exe [workload] [n] *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "wc" in
  let n = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 120 in
  let w = Workloads.Registry.find name in
  let campaign tag build =
    let spec = Workloads.Workload.fi_spec w ~build () in
    (* register SEUs, the paper's fault model; experiments fan out over
       all recommended domains, and for a fixed seed the stats are
       bit-identical no matter how many workers run them *)
    let r = Campaign.model_campaign ~n ~model:Fault.Reg spec in
    let stats = r.Campaign.stats in
    Printf.printf
      "%-14s crashed %5.1f%%  correct %5.1f%% (corrected %4.1f%%)  SDC %5.1f%%  [%.1fs, %d \
       workers]\n"
      tag (Fault.crashed_pct stats) (Fault.correct_pct stats)
      (100.0 *. float_of_int stats.Fault.corrected /. float_of_int (max 1 stats.Fault.runs))
      (Fault.sdc_pct stats) r.Campaign.wall_seconds r.Campaign.jobs
  in
  Printf.printf "fault injection on '%s' (%d single-bit flips per build)\n\n" name n;
  campaign "native" Elzar.Native_novec;
  campaign "elzar" (Elzar.Hardened Elzar.Harden_config.default);
  campaign "elzar-future" (Elzar.Hardened Elzar.Harden_config.future_avx)

(** Command-line interface to the ELZAR framework.

    - [elzar list] — available workloads and case-study apps
    - [elzar run WORKLOAD] — execute under a build flavour, print counters
    - [elzar inject WORKLOAD] — run a fault-injection campaign
    - [elzar show WORKLOAD FUNC] — print a function's IR before/after a pass
    - [elzar app NAME] — run a case study and report throughput *)

open Cmdliner

(* [conv] restricted to values satisfying [ok]; anything else is a usage
   error (Cmdliner's exit 124), reported before anything runs. *)
let restrict ~(what : string) (ok : 'a -> bool) (conv : 'a Arg.conv) : 'a Arg.conv =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let at_least conv lo =
  restrict ~what:(Printf.sprintf "at least %d" lo) (fun v -> v >= lo) conv

(* One of [all], picked by [name]; an unknown name is a usage error that
   lists the valid ones. *)
let named_conv ~(what : string) (name : 'a -> string) (all : 'a list) : 'a Arg.conv =
  let parse s =
    match List.find_opt (fun v -> name v = s) all with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown %s %S (expected one of: %s)" what s
                (String.concat ", " (List.map name all))))
  in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (name v))

let workload_arg =
  let workload_conv =
    named_conv ~what:"workload"
      (fun w -> w.Workloads.Workload.name)
      Workloads.Registry.(all @ extended @ micro)
  in
  Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")

let size_conv =
  let parse = function
    | "tiny" -> Ok Workloads.Workload.Tiny
    | "small" -> Ok Workloads.Workload.Small
    | "medium" -> Ok Workloads.Workload.Medium
    | "large" -> Ok Workloads.Workload.Large
    | s -> Error (`Msg ("unknown size " ^ s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Workloads.Workload.size_to_string s))

(* Build flavours by CLI name.  The six hardened flavours share one
   [Elzar.build_name], so [run], [inject] and [app] print, and their
   reports record, the name chosen here. *)
let builds =
  let h c = Elzar.Hardened c in
  Elzar.Harden_config.
    [
      ("native", Elzar.Native);
      ("novec", Elzar.Native_novec);
      ("elzar", h default);
      ("elzar-nochecks", h no_checks);
      ("elzar-floats", h floats_only);
      ("elzar-future", h future_avx);
      ("elzar-extended", h extended);
      ("elzar-reexec", h reexec);
      ("swiftr", Elzar.Swiftr);
    ]

(* A (name, build) pair from [builds]; [elzar] by default. *)
let build_arg =
  Arg.(value & opt (named_conv ~what:"build" fst builds) ("elzar", List.assoc "elzar" builds)
       & info [ "b"; "build" ]
           ~doc:("Build flavour: " ^ String.concat ", " (List.map fst builds) ^ "."))

let size_arg =
  Arg.(value & opt size_conv Workloads.Workload.Small & info [ "s"; "size" ] ~doc:"Input size.")

let engine_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Cpu.Machine.engine_of_string s) in
  Arg.conv (parse, fun fmt e -> Format.pp_print_string fmt (Cpu.Machine.engine_to_string e))

let engine_arg =
  Arg.(value & opt engine_conv Cpu.Machine.default_config.Cpu.Machine.engine
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Execution engine: compiled (the default: one pre-specialized closure \
                 per instruction, each function compiled on its first entry) or \
                 reference (the interpreter, kept as the executable specification). \
                 Both engines are bit-identical; only wall time differs.")

let threads_arg =
  Arg.(value & opt (at_least int 1) 2
       & info [ "t"; "threads" ] ~doc:"Worker threads (at least 1).")

(* ---- list ---- *)

let list_cmd =
  let run () =
    Printf.printf "workloads:\n";
    List.iter
      (fun w ->
        Printf.printf "  %-22s %s\n" w.Workloads.Workload.name
          w.Workloads.Workload.description)
      (Workloads.Registry.all @ Workloads.Registry.micro);
    Printf.printf "apps:\n";
    List.iter
      (fun a -> Printf.printf "  %-22s %s\n" a.Apps.App.name a.Apps.App.description)
      Apps.Registry_apps.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and apps") Term.(const run $ const ())

(* ---- run ---- *)

let run_cmd =
  let run w (bname, build) nthreads size profile engine json =
    let prof = if profile then Some (Cpu.Profile.create ()) else None in
    let machine_cfg =
      { Cpu.Machine.default_config with Cpu.Machine.profile = prof; engine }
    in
    let r = Workloads.Workload.execute ~machine_cfg w ~build ~nthreads ~size in
    (match r.Cpu.Machine.trap with
    | Some t -> Printf.printf "trap: %s\n" (Cpu.Machine.string_of_trap t)
    | None -> ());
    let c = r.Cpu.Machine.totals in
    Printf.printf "build        %s\n" bname;
    Printf.printf "wall cycles  %d\n" r.Cpu.Machine.wall_cycles;
    Printf.printf "instructions %d (avx %d)\n" c.Cpu.Counters.instrs c.Cpu.Counters.avx_instrs;
    Printf.printf "loads/stores %d / %d (L1 miss %.2f%%)\n" c.Cpu.Counters.loads
      c.Cpu.Counters.stores (Cpu.Counters.l1_miss_pct c);
    Printf.printf "branches     %d (miss %.2f%%)\n" c.Cpu.Counters.branches
      (Cpu.Counters.branch_miss_pct c);
    Printf.printf "output       %s\n" (Digest.to_hex r.Cpu.Machine.output_digest);
    (match prof with Some p -> Format.printf "%a" Cpu.Profile.pp p | None -> ());
    match json with
    | Some path ->
        let params =
          [
            ("workload", Obs.Json.Str w.Workloads.Workload.name);
            ("build", Obs.Json.Str bname);
            ("threads", Obs.Json.Int nthreads);
            ("size", Obs.Json.Str (Workloads.Workload.size_to_string size));
            ("engine", Obs.Json.Str (Cpu.Machine.engine_to_string engine));
          ]
        in
        Report.write path (Report.run_result ~params ?profile:prof r);
        Printf.printf "wrote %s\n" path
    | None -> ()
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Attribute simulated cycles per instruction class (compiled engine \
                   only) and print the table.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the run report (counters, output digest, optional profile) to \
                   $(docv) as versioned JSON.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload on the simulated machine")
    Term.(const run $ workload_arg $ build_arg $ threads_arg $ size_arg $ profile
          $ engine_arg $ json)

(* ---- inject ---- *)

let positive_float =
  restrict ~what:"a finite number above 0"
    (fun v -> Float.is_finite v && v > 0.0)
    Arg.float

let nonneg_float =
  restrict ~what:"a finite number of at least 0"
    (fun v -> Float.is_finite v && v >= 0.0)
    Arg.float

(* One --chaos entry: EVENT@SLOT with an optional trailing '!' for
   "persistent" (act on every execution of the slot, not just the first).
   EVENT is raise | hang | kill | slow:SECONDS. *)
let chaos_spec_of_string (s : string) : (Supervisor.chaos_spec, [ `Msg of string ]) result
    =
  let body, persistent =
    let l = String.length s in
    if l > 0 && s.[l - 1] = '!' then (String.sub s 0 (l - 1), true) else (s, false)
  in
  match String.index_opt body '@' with
  | None -> Error (`Msg (Printf.sprintf "chaos entry %S: expected EVENT@SLOT" s))
  | Some i -> (
      let ev = String.sub body 0 i in
      let slot_s = String.sub body (i + 1) (String.length body - i - 1) in
      match int_of_string_opt slot_s with
      | None -> Error (`Msg (Printf.sprintf "chaos entry %S: bad slot %S" s slot_s))
      | Some slot -> (
          let event =
            match ev with
            | "raise" -> Ok Supervisor.Chaos_raise
            | "hang" -> Ok Supervisor.Chaos_hang
            | "kill" -> Ok Supervisor.Chaos_kill
            | _ when String.length ev > 5 && String.sub ev 0 5 = "slow:" -> (
                match float_of_string_opt (String.sub ev 5 (String.length ev - 5)) with
                | Some d -> Ok (Supervisor.Chaos_slow d)
                | None -> Error (`Msg (Printf.sprintf "chaos entry %S: bad duration" s)))
            | _ ->
                Error
                  (`Msg
                     (Printf.sprintf
                        "chaos entry %S: unknown event %S (raise|hang|kill|slow:SECS)" s
                        ev))
          in
          Result.map (fun e -> Supervisor.chaos ~persistent ~slot e) event))

let chaos_conv : Supervisor.chaos_plan Arg.conv =
  let parse s =
    if s = "" then Ok []
    else
      List.fold_left
        (fun acc entry ->
          match (acc, chaos_spec_of_string entry) with
          | Ok l, Ok c -> Ok (l @ [ c ])
          | (Error _ as e), _ | _, (Error _ as e) -> e)
        (Ok []) (String.split_on_char ',' s)
  in
  Arg.conv (parse, fun fmt (l : Supervisor.chaos_plan) ->
      Format.fprintf fmt "<%d chaos specs>" (List.length l))

let inject_cmd =
  let run w (bname, build) n seed jobs double same_bit model avf checkpoint quiet engine
      json retries deadline_factor deadline_floor max_tool_errors chaos =
    let spec = { (Workloads.Workload.fi_spec w ~build ()) with Fault.engine } in
    (* Ctrl-C / SIGTERM: cooperative cancellation.  The flag stops the
       campaign at the next experiment boundary; the engine flushes and
       closes the checkpoint on the way out, so the partial campaign can
       be resumed.  The conventional 128+signal exit code is produced
       after the partial report is printed. *)
    let cancel = Atomic.make false in
    let sig_seen = ref Sys.sigint in
    let on_sig s =
      Atomic.set cancel true;
      sig_seen := s
    in
    (try
       Sys.set_signal Sys.sigint (Sys.Signal_handle on_sig);
       Sys.set_signal Sys.sigterm (Sys.Signal_handle on_sig)
     with Invalid_argument _ | Sys_error _ -> ());
    let progress =
      if quiet then None
      else
        Some
          (fun (p : Campaign.progress) ->
            if p.Campaign.completed mod 10 = 0 || p.Campaign.completed >= p.Campaign.total
            then
              Printf.eprintf "\r%d/%d injections (%.0fs elapsed, eta %s%s%s)   %!"
                p.Campaign.completed p.Campaign.total p.Campaign.elapsed
                (* no executed run yet (pure checkpoint replay so far):
                   there is no rate, so no ETA to print *)
                (if Float.is_nan p.Campaign.eta then "--:--"
                 else Printf.sprintf "%.0fs" p.Campaign.eta)
                (if p.Campaign.restored > 0 then
                   Printf.sprintf ", %d from checkpoint" p.Campaign.restored
                 else "")
                (if p.Campaign.quarantined > 0 then
                   Printf.sprintf ", %d quarantined" p.Campaign.quarantined
                 else "");
            if p.Campaign.completed >= p.Campaign.total then prerr_newline ())
    in
    let supervise =
      { Supervisor.retries; deadline_factor; deadline_floor; max_tool_errors }
    in
    let report =
      if double then
        Campaign.double ~seed ~n ~same_bit ?jobs ?progress ?checkpoint ~supervise ~chaos
          ~cancel spec
      else
        match model with
        | Fault.Reg ->
            Campaign.single ~seed ~n ?jobs ?progress ?checkpoint ~supervise ~chaos ~cancel
              spec
        | m ->
            Campaign.model_campaign ~seed ~n ?jobs ?progress ?checkpoint ~supervise ~chaos
              ~cancel ~model:m spec
    in
    Format.printf "%a@." Fault.pp_stats report.Campaign.stats;
    let obs = Array.map snd report.Campaign.outcomes in
    (match Fault.mean_latency obs with
    | Some l -> Format.printf "mean detection latency: %.0f instrs@." l
    | None -> ());
    if avf then Format.printf "%a" Fault.pp_avf (Fault.avf_table obs);
    Format.printf "%a@." Campaign.pp_totals report;
    let nq = List.length report.Campaign.quarantined in
    if nq > 0 then begin
      Printf.eprintf "%d experiment(s) quarantined (excluded from the stats above):\n" nq;
      List.iter
        (fun te ->
          Format.eprintf "  %a@." Supervisor.pp_tool_error te;
          if te.Supervisor.te_backtrace <> "" then
            Format.eprintf "%s@." te.Supervisor.te_backtrace)
        report.Campaign.quarantined
    end;
    if report.Campaign.worker_deaths > 0 then
      Printf.eprintf "%d worker death(s); the worker loop restarted each time\n"
        report.Campaign.worker_deaths;
    if report.Campaign.interrupted then
      Printf.eprintf "campaign interrupted; partial results above%s\n"
        (match checkpoint with
        | Some f -> Printf.sprintf " — rerun with --checkpoint %s to resume" f
        | None -> " (no --checkpoint given, a rerun restarts from scratch)");
    (match json with
    | Some path ->
        let params =
          [
            ("workload", Obs.Json.Str w.Workloads.Workload.name);
            ("build", Obs.Json.Str bname);
            ("n", Obs.Json.Int n);
            ("seed", Obs.Json.Int seed);
            ("double", Obs.Json.Bool double);
            ("fault_model", Obs.Json.Str (Fault.model_to_string model));
            ("engine", Obs.Json.Str (Cpu.Machine.engine_to_string engine));
          ]
        in
        Report.write path (Report.campaign ~params report);
        Printf.printf "wrote %s\n" path
    | None -> ());
    if report.Campaign.interrupted then
      exit (128 + if !sig_seen = Sys.sigterm then 15 else 2);
    if nq > max_tool_errors then begin
      Printf.eprintf "too many tool errors: %d quarantined > --max-tool-errors %d\n" nq
        max_tool_errors;
      exit 3
    end
  in
  let n =
    Arg.(value & opt (at_least int 1) 100
         & info [ "n" ] ~doc:"Number of injections (at least 1).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let jobs =
    Arg.(value & opt (some (at_least int 1)) None
         & info [ "j"; "jobs" ]
             ~doc:"Worker domains, at least 1 (default: one per recommended domain). \
                   Results are bit-identical for any value.")
  in
  let double =
    Arg.(value & flag & info [ "double" ] ~doc:"Double-bit campaign (two flips, §III-C).")
  in
  let model =
    let model_conv =
      named_conv ~what:"fault model" Fault.model_to_string Fault.all_models
    in
    Arg.(value & opt model_conv Fault.Reg
         & info [ "fault-model" ] ~docv:"MODEL"
             ~doc:"Fault model: reg (register SEUs, the paper's §IV-B campaign), mem \
                   (memory bit-flips), addr (effective-address faults), cf (control-flow \
                   faults), or mixed. Ignored with --double.")
  in
  let avf =
    Arg.(value & flag
         & info [ "avf" ]
             ~doc:"Print the per-instruction-class vulnerability (AVF) table.")
  in
  let same_bit =
    Arg.(value & opt bool true
         & info [ "same-bit" ]
             ~doc:"With --double, flip the same bit in both lanes (adversarial \
                   agreeing-replicas pattern).")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Persist completed experiments to $(docv); an interrupted campaign with \
                   the same parameters resumes from it instead of restarting.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the progress meter.") in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the campaign report (outcome histogram, AVF table, latency \
                   histogram, phase spans) to $(docv) as versioned JSON. The result \
                   sections are bit-identical for any --jobs value.")
  in
  let retries =
    Arg.(value & opt (at_least int 0) Supervisor.default.Supervisor.retries
         & info [ "retries" ]
             ~doc:"Re-executions (at least 0) of an experiment whose run raised a host \
                   exception before it is quarantined.")
  in
  let deadline_factor =
    Arg.(value & opt positive_float Supervisor.default.Supervisor.deadline_factor
         & info [ "deadline-factor" ]
             ~doc:"Per-experiment wall-clock deadline, as a multiple (finite, above 0) \
                   of the running median experiment time; a run that overruns its \
                   deadline twice is quarantined.")
  in
  let deadline_floor =
    Arg.(value & opt nonneg_float Supervisor.default.Supervisor.deadline_floor
         & info [ "deadline-floor" ]
             ~doc:"Never deadline an experiment below this many seconds (finite, at \
                   least 0).")
  in
  let max_tool_errors =
    Arg.(value & opt (at_least int 0) Supervisor.default.Supervisor.max_tool_errors
         & info [ "max-tool-errors" ]
             ~doc:"Exit nonzero (3) when more than this many (at least 0) experiments \
                   were quarantined. The campaign still completes and reports either \
                   way.")
  in
  let chaos =
    Arg.(value & opt chaos_conv []
         & info [ "chaos" ] ~docv:"PLAN"
             ~doc:"Test-only harness-failure injection: comma-separated EVENT@SLOT \
                   entries (raise@3, hang@5, slow:0.2@7, kill@9; trailing '!' makes an \
                   entry fire on every execution of its slot).")
  in
  Cmd.v
    (Cmd.info "inject" ~doc:"Run a fault-injection campaign")
    Term.(const run $ workload_arg $ build_arg $ n $ seed $ jobs $ double $ same_bit $ model
          $ avf $ checkpoint $ quiet $ engine_arg $ json $ retries $ deadline_factor
          $ deadline_floor $ max_tool_errors $ chaos)

(* ---- show ---- *)

let show_cmd =
  let run w fname (_, build) size =
    let m = Elzar.prepare build (w.Workloads.Workload.build size) in
    match Ir.Instr.find_func m fname with
    | Some f -> print_string (Ir.Printer.func_to_string f)
    | None ->
        Printf.eprintf "no function @%s in %s\n" fname w.Workloads.Workload.name;
        exit 1
  in
  let fname = Arg.(value & pos 1 string "work" & info [] ~docv:"FUNCTION") in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a function's IR after the selected pass pipeline")
    Term.(const run $ workload_arg $ fname $ build_arg $ size_arg)

(* ---- trace ---- *)

let trace_cmd =
  let run w (_, build) nthreads size limit =
    let m = Elzar.prepare build (w.Workloads.Workload.build size) in
    let buf = Buffer.create 4096 in
    let cfg = { Cpu.Machine.default_config with trace = Some buf } in
    let machine = Elzar.machine ~cfg build m in
    w.Workloads.Workload.init size machine;
    ignore (Cpu.Machine.run ~args:[| Int64.of_int nthreads |] machine "main");
    let lines = String.split_on_char '\n' (Buffer.contents buf) in
    List.iteri (fun i l -> if i < limit then print_endline l) lines
  in
  let limit = Arg.(value & opt int 100 & info [ "n" ] ~doc:"Lines of trace to print.") in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print an instruction-level execution trace (SDE debugtrace analogue)")
    Term.(const run $ workload_arg $ build_arg $ threads_arg $ size_arg $ limit)

(* ---- app ---- *)

let app_cmd =
  let run app (bname, build) nthreads (_, client) =
    let r = Apps.App.execute app ~build ~client ~nthreads in
    (match r.Cpu.Machine.trap with
    | Some t -> Printf.printf "trap: %s\n" (Cpu.Machine.string_of_trap t)
    | None -> ());
    Printf.printf "%s %s %s %dT: %.0f req/s (%d cycles)\n" app.Apps.App.name
      (Apps.App.client_to_string client) bname nthreads
      (Apps.App.throughput app r) r.Cpu.Machine.wall_cycles
  in
  let app_arg =
    let app_conv = named_conv ~what:"app" (fun a -> a.Apps.App.name) Apps.Registry_apps.all in
    Arg.(required & pos 0 (some app_conv) None & info [] ~docv:"APP")
  in
  let client =
    let clients = Apps.App.[ ("A", Ycsb Apps.Ycsb.A); ("D", Ycsb Apps.Ycsb.D); ("ab", Ab) ] in
    Arg.(value & opt (named_conv ~what:"client" fst clients) (List.hd clients)
         & info [ "c"; "client" ] ~doc:"Client: A, D or ab.")
  in
  Cmd.v
    (Cmd.info "app" ~doc:"Run a case-study application")
    Term.(const run $ app_arg $ build_arg $ threads_arg $ client)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "elzar" ~version:"1.0.0"
             ~doc:"Triple modular redundancy using (simulated) Intel AVX")
          [ list_cmd; run_cmd; inject_cmd; show_cmd; trace_cmd; app_cmd ]))

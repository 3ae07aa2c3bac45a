(* Host-side helpers: clocks, /proc/self/status fields (memory high-water
   mark, CPUs), allocation counts, seeded orderings and digests. *)

let now = Unix.gettimeofday

(* [timed f] is [(f (), host seconds it took)]. *)
let timed (f : unit -> 'a) : 'a * float =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The value of the ["key:"] line of /proc/self/status, trimmed; [None]
   where /proc is unavailable or has no such line. *)
let proc_status (key : string) : string option =
  let prefix = key ^ ":" in
  let n = String.length prefix in
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line when String.length line >= n && String.sub line 0 n = prefix ->
              Some (String.trim (String.sub line n (String.length line - n)))
          | Some _ -> scan ()
        in
        scan ())
  with Sys_error _ -> None

(* Peak resident set size of this process (VmHWM), in MiB; [nan] where
   /proc is unavailable. *)
let peak_rss_mb () : float =
  match Option.bind (proc_status "VmHWM") (fun v -> Scanf.sscanf_opt v "%d" Fun.id) with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> Float.nan

(* CPUs this process may run on: the size of its Cpus_allowed_list
   ("0-1,4" is 3), or the runtime's recommended domain count where /proc
   does not say. *)
let nproc () : int =
  let size range =
    match List.map int_of_string (String.split_on_char '-' range) with
    | [ _ ] -> 1
    | [ a; b ] -> b - a + 1
    | _ -> failwith range
  in
  match proc_status "Cpus_allowed_list" with
  | Some v -> (
      try List.fold_left (fun a r -> a + size r) 0 (String.split_on_char ',' v)
      with Failure _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Restarts the VmHWM count from the current resident set (Linux
   clear_refs code 5); a no-op where that is unavailable. *)
let reset_peak_rss () : unit =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* [in_child f] runs [f] in a forked child process — a fresh address
   space whose growth and peak are its own, as for a campaign run by its
   own CLI process — and returns its result, marshalled back through a
   pipe.  The caller must be the only running domain; [f]'s result must
   hold no closures.  The child is always waited for. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  Gc.full_major ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      (try
         Marshal.to_channel oc (r : ('a, string) result) [];
         close_out oc
       with _ -> ());
      Unix._exit (match r with Ok _ -> 0 | Error _ -> 1)
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> try Some (Marshal.from_channel ic : ('a, string) result) with _ -> None)
      in
      let rec wait () =
        try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      match (r, wait ()) with
      | Some (Ok v), Unix.WEXITED 0 -> v
      | Some (Error msg), _ -> failwith ("perfbench: child process raised " ^ msg)
      | _ -> failwith "perfbench: child process died")

(* [allocated_mb f] is [(f (), MiB the OCaml heap allocated while it ran)]. *)
let allocated_mb (f : unit -> 'a) : 'a * float =
  let a0 = Gc.allocated_bytes () in
  let r = f () in
  (r, (Gc.allocated_bytes () -. a0) /. 1048576.0)

(* Fisher-Yates shuffle driven by [seed] alone. *)
let shuffle ~(seed : int) (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  let rng = Random.State.make [| seed; 0x5eed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Campaign seed of one workload's campaign in a run. *)
let campaign_seed ~(seed : int) ~(workload : string) : int = Hashtbl.hash (seed, workload)

let md5_hex (parts : string list) : string =
  Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* The simulated counters a fingerprint covers. *)
let counter_fields (c : Cpu.Counters.t) : string =
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%d/%d/%d" c.Cpu.Counters.instrs c.uops c.avx_instrs
    c.loads c.stores c.branches c.branch_misses c.l1_refs c.l1_misses c.cycles

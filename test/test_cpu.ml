(* Unit tests of the CPU substrate: value semantics, cache, branch
   predictor, timing engine, memory/allocator. *)

open Cpu

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

(* ---- value semantics ---- *)

let test_int_widths () =
  let add8 = Value.binop (Value.binop_desc Ir.Types.I8 Ir.Instr.Add) in
  check_i64 "i8 wraps" 0L (add8 255L 1L);
  let mul32 = Value.binop (Value.binop_desc Ir.Types.I32 Ir.Instr.Mul) in
  check_i64 "i32 wraps" 0L (mul32 0x10000L 0x10000L);
  let sub16 = Value.binop (Value.binop_desc Ir.Types.I16 Ir.Instr.Sub) in
  check_i64 "i16 canonical zero-extended" 0xFFFFL (sub16 0L 1L)

let test_signed_ops () =
  let sdiv = Value.binop (Value.binop_desc Ir.Types.I32 Ir.Instr.Sdiv) in
  check_i64 "sdiv negative" (Value.canon Ir.Types.I32 (-3L)) (sdiv (Value.canon Ir.Types.I32 (-7L)) 2L);
  let ashr = Value.binop (Value.binop_desc Ir.Types.I32 Ir.Instr.Ashr) in
  check_i64 "ashr sign extends" (Value.canon Ir.Types.I32 (-1L))
    (ashr (Value.canon Ir.Types.I32 (-1L)) 5L);
  let lshr = Value.binop (Value.binop_desc Ir.Types.I32 Ir.Instr.Lshr) in
  check_i64 "lshr is logical" 0x7FFFFFFFL (lshr 0xFFFFFFFFL 1L)

let test_div_by_zero () =
  let sdiv = Value.binop (Value.binop_desc Ir.Types.I64 Ir.Instr.Sdiv) in
  check_bool "raises" true
    (try
       ignore (sdiv 1L 0L);
       false
     with Value.Division_by_zero -> true)

let test_float_roundtrip () =
  let v = 3.14159 in
  check_bool "f64 bits roundtrip" true (Value.f64_decode (Value.f64_encode v) = v);
  let v32 = Value.f32_decode (Value.f32_encode 1.5) in
  check_bool "f32 exact for 1.5" true (v32 = 1.5);
  let fadd32 = Value.fbinop (Value.fbinop_desc Ir.Types.F32 Ir.Instr.Fadd) in
  (* single-precision rounding actually happens *)
  let one_third = Value.f32_encode (1.0 /. 3.0) in
  check_bool "f32 is not f64" true
    (Value.f32_decode (fadd32 one_third one_third) <> 2.0 /. 3.0)

let test_casts () =
  let sext = Value.cast (Value.cast_desc Ir.Instr.Sext ~from:Ir.Types.I8 ~dst:Ir.Types.I64) in
  check_i64 "sext i8" (-1L) (sext 0xFFL);
  let zext = Value.cast (Value.cast_desc Ir.Instr.Zext ~from:Ir.Types.I8 ~dst:Ir.Types.I64) in
  check_i64 "zext i8" 255L (zext 0xFFL);
  let fptosi = Value.cast (Value.cast_desc Ir.Instr.Fptosi ~from:Ir.Types.F64 ~dst:Ir.Types.I32) in
  check_i64 "fptosi truncates toward zero" (Value.canon Ir.Types.I32 (-3L))
    (fptosi (Value.f64_encode (-3.7)));
  check_i64 "fptosi of nan is 0" 0L (fptosi (Value.f64_encode Float.nan));
  (* out of the int64 range: x86-64's 0x8000000000000000 before the
     destination mask, on any host, so an i32 destination gets 0 *)
  let fptosi64 =
    Value.cast (Value.cast_desc Ir.Instr.Fptosi ~from:Ir.Types.F64 ~dst:Ir.Types.I64)
  in
  List.iter
    (fun f ->
      let name = Printf.sprintf "fptosi %g" f in
      check_i64 (name ^ " to i64") Int64.min_int (fptosi64 (Value.f64_encode f));
      check_i64 (name ^ " to i32") 0L (fptosi (Value.f64_encode f)))
    [ Float.infinity; Float.neg_infinity; 1e30; -1e30; 9.3e18 ]

let test_icmp_unsigned () =
  let ult = Value.icmp (Value.icmp_desc Ir.Types.I64 Ir.Instr.Iult) in
  check_bool "unsigned compare" true (ult 1L (-1L));
  let slt = Value.icmp (Value.icmp_desc Ir.Types.I64 Ir.Instr.Islt) in
  check_bool "signed compare" false (slt 1L (-1L))

(* ---- cache ---- *)

let test_cache_hit_after_miss () =
  let c = Cache.create () in
  check_int "first access misses" Cache.miss_latency (Cache.access c 0x10000L);
  check_int "second access hits" Cache.hit_latency (Cache.access c 0x10008L);
  check_int "one miss recorded" 1 c.Cache.misses

let test_cache_prefetch_next_line () =
  let c = Cache.create () in
  ignore (Cache.access c 0x10000L);
  check_int "next line was prefetched" Cache.hit_latency (Cache.access c 0x10040L)

let test_cache_capacity_eviction () =
  let c = Cache.create ~size_kb:32 () in
  (* touch 64 KB: the first lines must be evicted *)
  for i = 0 to 1023 do
    ignore (Cache.access c (Int64.of_int (0x100000 + (i * 64))))
  done;
  check_int "evicted line misses again" Cache.miss_latency (Cache.access c 0x100000L)

let test_cache_lru () =
  let c = Cache.create ~size_kb:1 ~ways:2 () in
  (* 1KB, 2-way, 64B lines -> 8 sets; three lines mapping to set 0 *)
  let addr k = Int64.of_int (k * 8 * 64) in
  ignore (Cache.access c (addr 0));
  ignore (Cache.access c (addr 2));
  ignore (Cache.access c (addr 0));
  (* line 2 is LRU (line 0 was re-touched); inserting line 4 evicts 2 *)
  ignore (Cache.access c (addr 4));
  check_int "line 0 retained" Cache.hit_latency (Cache.access c (addr 0))

(* the set index is a mask, so only power-of-two set counts are valid *)
let test_cache_geometry () =
  check_int "default geometry: 64 sets" 64 (Cache.create ()).Cache.sets;
  check_int "1 KB / 2 ways: 8 sets" 8 (Cache.create ~size_kb:1 ~ways:2 ()).Cache.sets;
  List.iter
    (fun (size_kb, ways) ->
      check_bool
        (Printf.sprintf "%d KB / %d ways rejected" size_kb ways)
        true
        (match Cache.create ~size_kb ~ways () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ (32, 3); (32, 6); (24, 8); (32, 0); (1, 32) ]

(* ---- branch predictor ---- *)

let test_predictor_learns () =
  let p = Branch_pred.create () in
  for _ = 1 to 100 do
    ignore (Branch_pred.record p ~pc:42 ~taken:true)
  done;
  check_bool "steady taken branch predicted" false (Branch_pred.record p ~pc:42 ~taken:true)

let test_predictor_alternation_costs () =
  let p = Branch_pred.create () in
  let misses = ref 0 in
  for i = 1 to 1000 do
    (* pseudo-random outcome: hard for a 2-bit counter *)
    let taken = Hashtbl.hash i land 1 = 0 in
    if Branch_pred.record p ~pc:7 ~taken then incr misses
  done;
  check_bool "random branch mispredicts a lot" true (!misses > 200)

(* ---- timing engine ---- *)

(* Times one instruction given as its μop lowering, through the plan
   entry point both engines use. *)
let exec_uops t ~ready ~mem_lat uops = Timing.exec t ~ready ~mem_lat (Timing.plan_of_uops uops)
let alu_uops n = Array.make n Cost.alu

let test_timing_ilp () =
  let t = Timing.create () in
  (* 100 independent single-cycle ALU ops on 4 ports: ~4 per cycle *)
  for _ = 1 to 100 do
    ignore (exec_uops t ~ready:0 ~mem_lat:4 (alu_uops 1))
  done;
  let c = Timing.cycle t in
  check_bool "4-wide ILP" true (c >= 24 && c <= 35)

let test_timing_dependency_chain () =
  let t = Timing.create () in
  let ready = ref 0 in
  for _ = 1 to 100 do
    ready := exec_uops t ~ready:!ready ~mem_lat:4 [| Cost.imul |]
  done;
  (* dependent multiplies serialize at 3 cycles each *)
  check_bool "latency-bound chain" true (!ready >= 300)

let test_timing_port_contention () =
  let t = Timing.create () in
  (* fdiv is port-0 only with rt 8: 20 independent divides still serialize *)
  for _ = 1 to 20 do
    ignore (exec_uops t ~ready:0 ~mem_lat:4 [| Cost.fdiv_u |])
  done;
  check_bool "port-0 throughput bound" true (Timing.cycle t >= 8 * 19)

let test_timing_membus () =
  let t = Timing.create () in
  (* independent missing loads are bandwidth-limited by the memory pipe *)
  for _ = 1 to 50 do
    ignore (exec_uops t ~ready:0 ~mem_lat:Cache.miss_latency [| Cost.load_u |])
  done;
  check_bool "bus-bound misses" true (Timing.cycle t >= Cost.membus_rt * 49)

let test_timing_mispredict () =
  let t = Timing.create () in
  let before = Timing.cycle t in
  Timing.mispredict t ~resolved:(before + 10);
  check_bool "flush advances dispatch" true
    (Timing.cycle t >= before + 10 + Cost.mispredict_penalty)

(* The timing model stated directly over a μop array, as it was before
   plans: every dynamic instruction re-decodes each μop's port mask and
   memory class.  It is the oracle [Timing.exec] over a precompiled plan
   is checked against. *)
let oracle_dispatch (t : Timing.t) =
  if t.dispatch_used >= Timing.width then begin
    t.dispatch_cycle <- t.dispatch_cycle + 1;
    t.dispatch_used <- 0
  end;
  let oldest = t.rob.(t.rob_pos) in
  if oldest > t.dispatch_cycle then begin
    t.dispatch_cycle <- oldest;
    t.dispatch_used <- 0
  end;
  t.dispatch_used <- t.dispatch_used + 1;
  t.dispatch_cycle

let oracle_exec (t : Timing.t) ~(ready : int) ~(mem_lat : int) (uops : Cost.uop array) : int =
  let last = ref ready and result = ref ready in
  Array.iter
    (fun (u : Cost.uop) ->
      let dispatched = oracle_dispatch t in
      let dep = if u.chain then !last else ready in
      let earliest = max dep dispatched in
      (* the allowed port that frees up first, lowest-numbered on ties *)
      let best_port = ref (-1) and best_time = ref max_int in
      for p = 0 to Cost.nports - 1 do
        if u.ports land (1 lsl p) <> 0 then begin
          let at = max t.port_free.(p) earliest in
          if at < !best_time then begin
            best_time := at;
            best_port := p
          end
        end
      done;
      let issue = ref !best_time in
      t.port_free.(!best_port) <- !issue + u.rt;
      (* an L1 miss additionally serializes on the per-core memory pipe *)
      (match u.mem with
      | Cost.Mload | Cost.Mstore when mem_lat > Cache.hit_latency ->
          if t.bus_free > !issue then issue := t.bus_free;
          t.bus_free <- !issue + Cost.membus_rt
      | _ -> ());
      let lat = match u.mem with Cost.Mload -> mem_lat | _ -> u.lat in
      let completion = !issue + lat in
      t.rob.(t.rob_pos) <- completion;
      t.rob_pos <- (t.rob_pos + 1) mod Timing.rob_size;
      if completion > t.horizon then t.horizon <- completion;
      last := completion;
      if completion > !result then result := completion)
    uops;
  !result

(* Both engines time every instruction with [Timing.exec] over its
   precompiled plan: over any instruction stream — μop mixes,
   dependences, hits and misses — it must return the oracle's completion
   cycles and leave the same pipe state. *)
let prop_plan_matches_oracle =
  let uop_gen =
    QCheck.Gen.(
      map
        (fun (((lat, ports), (rt, chain)), mem) ->
          Cost.u ~rt ~chain ~mem lat ports)
        (pair
           (pair
              (pair (int_range 1 20)
                 (oneofl Cost.[ p0; p1; p5; p01; p06; p15; p23; p237; p0156 ]))
              (pair (int_range 1 10) bool))
           (frequencyl [ (4, Cost.Mnone); (2, Cost.Mload); (1, Cost.Mstore) ])))
  in
  let instr_gen =
    QCheck.Gen.(
      triple (array_size (int_range 0 4) uop_gen) (int_range 0 30)
        (oneofl [ Cache.hit_latency; Cache.miss_latency ]))
  in
  QCheck.Test.make ~count:300 ~name:"plan timing replays the uop-array model"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 300) instr_gen))
    (fun stream ->
      let a = Timing.create () and b = Timing.create () in
      List.for_all
        (fun (uops, dready, mem_lat) ->
          let ready = Timing.cycle a + dready - 15 in
          let ra = oracle_exec a ~ready ~mem_lat uops in
          let rb = exec_uops b ~ready ~mem_lat uops in
          ra = rb && a = b)
        stream)

(* ---- memory ---- *)

let test_memory_rw () =
  let m = Memory.create () in
  let a = Memory.alloc_static m 64 in
  Memory.write m ~width:8 a 0x1122334455667788L;
  check_i64 "w8/r8" 0x1122334455667788L (Memory.read m ~width:8 a);
  check_i64 "little endian byte" 0x88L (Memory.read m ~width:1 a);
  Memory.write m ~width:2 (Int64.add a 16L) 0xABCDL;
  check_i64 "w2/r2" 0xABCDL (Memory.read m ~width:2 (Int64.add a 16L))

let test_memory_null_faults () =
  let m = Memory.create () in
  check_bool "null deref faults" true
    (try
       ignore (Memory.read m ~width:8 8L);
       false
     with Memory.Fault _ -> true);
  check_bool "oob faults" true
    (try
       ignore (Memory.read m ~width:8 (Int64.of_int (m.Memory.size - 4)));
       false
     with Memory.Fault _ -> true)

let test_malloc_free_reuse () =
  let m = Memory.create () in
  ignore (Memory.alloc_static m 128);
  Memory.heap_init m ~stack_reserve:4096;
  let a = Memory.malloc m 100 in
  let b = Memory.malloc m 100 in
  check_bool "distinct blocks" true (a <> b);
  Memory.free m a 100;
  let c = Memory.malloc m 50 in
  check_bool "freed space reused" true (c = a)

let test_stack_isolated_from_heap () =
  let m = Memory.create () in
  ignore (Memory.alloc_static m 64);
  Memory.heap_init m ~stack_reserve:8192;
  let s = Memory.alloc_stack m 4096 in
  check_bool "stack above heap limit" true (Int64.to_int s >= m.Memory.heap_limit)

(* The paged copy-on-write memory against a flat [Bytes] model: random
   reads and writes of every width (biased to page boundaries, the
   unmapped first page and the end of memory), interleaved with captures
   and restores.  Afterwards every image must still hold what it held
   when captured, even after two memories restored from it have written
   to every one of its pages, and the shared zero page must be all
   zero. *)
type mem_op =
  | Rd of int * int
  | Wr of int * int * int64
  | Capture
  | Restore of int

let prop_paged_memory_matches_flat =
  let page = Memory.page in
  let size = 16 * page in
  let addr_gen =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun k d -> (k * page) + d) (int_range 0 (size / page)) (int_range (-8) 8));
          (1, int_range 0 (page - 1));
          (1, int_range (size - 16) (size + 8));
          (2, int_range 0 (size - 1));
        ])
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun w a -> Rd (w, a)) (oneofl [ 1; 2; 4; 8 ]) addr_gen);
          (4, map3 (fun w a v -> Wr (w, a, v)) (oneofl [ 1; 2; 4; 8 ]) addr_gen ui64);
          (1, return Capture);
          (1, map (fun i -> Restore i) small_nat);
        ])
  in
  let faults w a = a < page || a + w > size in
  let model_read b w a =
    let v = ref 0L in
    for i = w - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Bytes.get_uint8 b (a + i)))
    done;
    !v
  in
  let model_write b w a v =
    for i = 0 to w - 1 do
      Bytes.set_uint8 b (a + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
    done
  in
  let contents mem = Memory.read_bytes mem (Int64.of_int page) (size - page) in
  let mapped c = Bytes.sub_string c page (size - page) in
  QCheck.Test.make ~count:300 ~name:"paged memory agrees with a flat model"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 200) op_gen))
    (fun ops ->
      let m = ref (Memory.create ~size ()) and model = ref (Bytes.make size '\000') in
      let images = ref [] in
      let step = function
        | Rd (w, a) -> (
            match Memory.read !m ~width:w (Int64.of_int a) with
            | v -> (not (faults w a)) && v = model_read !model w a
            | exception Memory.Fault _ -> faults w a)
        | Wr (w, a, v) -> (
            match Memory.write !m ~width:w (Int64.of_int a) v with
            | () -> (not (faults w a)) && (model_write !model w a v; true)
            | exception Memory.Fault _ -> faults w a)
        | Capture ->
            images := (Memory.capture !m, Bytes.copy !model) :: !images;
            true
        | Restore i ->
            (match !images with
            | [] -> ()
            | l ->
                let img, c = List.nth l (i mod List.length l) in
                m := Memory.of_image img;
                model := Bytes.copy c);
            true
      in
      let scribble mem byte =
        for p = 1 to (size / page) - 1 do
          Memory.write mem ~width:1 (Int64.of_int ((p * page) + 7)) (Int64.of_int byte)
        done
      in
      let image_intact (img, c) =
        let a = Memory.of_image img and b = Memory.of_image img in
        scribble a 0x5A;
        scribble b 0xA5;
        contents (Memory.of_image img) = mapped c
        && Memory.read a ~width:1 (Int64.of_int (page + 7)) = 0x5AL
        && Memory.read b ~width:1 (Int64.of_int (page + 7)) = 0xA5L
      in
      List.for_all step ops
      && contents !m = mapped !model
      && List.for_all image_intact !images
      && Array.for_all (Bytes.for_all (( = ) '\000')) (Memory.create ~size ()).Memory.pages)

(* An access within [width] bytes of the top of the 63-bit address
   space must fault like any other unmapped access: [addr + width]
   overflows there, so a check written as a sum lets it through to the
   page table, which raises a host exception instead. *)
let test_memory_top_of_address_space () =
  let m = Memory.create () in
  let faults name f =
    check_bool name true (match f () with _ -> false | exception Memory.Fault _ -> true)
  in
  faults "read 8 at 2^62 - 4" (fun () -> Memory.read m ~width:8 0x3FFF_FFFF_FFFF_FFFCL);
  faults "write 4 at 2^62 - 2" (fun () -> Memory.write m ~width:4 0x3FFF_FFFF_FFFF_FFFEL 1L);
  faults "read_bytes 32 at 2^62 - 16" (fun () ->
      Memory.read_bytes m 0x3FFF_FFFF_FFFF_FFF0L 32);
  faults "read 8 at max_int64" (fun () -> Memory.read m ~width:8 Int64.max_int);
  faults "read_bytes of max_int bytes" (fun () ->
      Memory.read_bytes m (Int64.of_int Memory.page) max_int);
  (* the last mapped word still reads *)
  check_i64 "last word" 0L (Memory.read m ~width:8 (Int64.of_int (m.Memory.size - 8)))

let tests =
  [
    Alcotest.test_case "integer widths wrap" `Quick test_int_widths;
    Alcotest.test_case "signed operations" `Quick test_signed_ops;
    Alcotest.test_case "division by zero" `Quick test_div_by_zero;
    Alcotest.test_case "float encode/decode" `Quick test_float_roundtrip;
    Alcotest.test_case "casts" `Quick test_casts;
    Alcotest.test_case "signed vs unsigned compare" `Quick test_icmp_unsigned;
    Alcotest.test_case "cache: hit after miss" `Quick test_cache_hit_after_miss;
    Alcotest.test_case "cache: next-line prefetch" `Quick test_cache_prefetch_next_line;
    Alcotest.test_case "cache: capacity eviction" `Quick test_cache_capacity_eviction;
    Alcotest.test_case "cache: LRU" `Quick test_cache_lru;
    Alcotest.test_case "cache: power-of-two sets" `Quick test_cache_geometry;
    Alcotest.test_case "predictor learns loops" `Quick test_predictor_learns;
    Alcotest.test_case "predictor vs noise" `Quick test_predictor_alternation_costs;
    Alcotest.test_case "timing: 4-wide ILP" `Quick test_timing_ilp;
    Alcotest.test_case "timing: dependency chain" `Quick test_timing_dependency_chain;
    Alcotest.test_case "timing: port contention" `Quick test_timing_port_contention;
    Alcotest.test_case "timing: memory bandwidth" `Quick test_timing_membus;
    Alcotest.test_case "timing: mispredict flush" `Quick test_timing_mispredict;
    Alcotest.test_case "memory: read/write" `Quick test_memory_rw;
    Alcotest.test_case "memory: faults" `Quick test_memory_null_faults;
    Alcotest.test_case "memory: top of address space faults" `Quick
      test_memory_top_of_address_space;
    Alcotest.test_case "memory: malloc/free" `Quick test_malloc_free_reuse;
    Alcotest.test_case "memory: stack isolation" `Quick test_stack_isolated_from_heap;
    QCheck_alcotest.to_alcotest prop_plan_matches_oracle;
    QCheck_alcotest.to_alcotest prop_paged_memory_matches_flat;
  ]

(** Translation of verified IR modules into a flat executable form.

    Blocks are flattened into one instruction array per function, labels
    become program counters, registers become frame-slot offsets (vectors
    occupy one 64-bit cell per lane), immediates are pre-encoded into lane
    bits, every arithmetic, comparison and cast carries its {!Value} op
    descriptor (op kind, width mask, sign shift — data, not closures),
    and every instruction is paired with the static {!Timing} plan of its
    μop lowering from {!Cost} (built once per module, so every machine and
    snapshot restore over it shares them).  Both engines in {!Machine}
    run this form: the reference interpreter evaluates the descriptors
    through {!Value}, the compiled engine through its own inline
    evaluator. *)

open Ir

exception Unknown_function of string

(* Function pointers live far above simulated memory so that using a data
   pointer as a callee (or vice versa) traps. *)
let fnptr_base = 0x4000_0000_0000L

type rop =
  | Oslot of int * int  (** frame offset, lanes *)
  | Oconst of int64  (** lane bits, the same in every lane *)

type callee = Direct of int | Builtin of int

type rinstr =
  | Rbinop of int * int * Value.binop * rop * rop  (** dest, lanes, op, operands *)
  | Rfbinop of int * int * Value.fbinop * rop * rop
  | Ricmp of int * int * Value.icmp * int64 * rop * rop
      (** dest, lanes, predicate, per-lane true mask, operands *)
  | Rfcmp of int * int * Value.fcmp * int64 * rop * rop
  | Rselect of int * int * rop * rop * rop
  | Rcast of int * int * Value.cast * rop
  | Rmov of int * int * rop
  | Rload of int * int * rop  (** dest, byte width, address *)
  | Rvload of int * int * int * rop  (** dest, lanes, elem width, address *)
  | Rstore of int * rop * rop  (** byte width, value, address *)
  | Rvstore of int * int * rop * rop  (** lanes, elem width, value, address *)
  | Ralloca of int * int
  | Rcall of callee * rop array * int * int  (** dest offset (-1 none), lanes *)
  | Rcall_ind of rop * rop array * int * int
  | Ratomic of Instr.rmw * int * rop * rop * int  (** dest, addr, operand, width *)
  | Rcmpxchg of int * rop * rop * rop * int
  | Rextract of int * rop * int
  | Rinsert of int * int * rop * int * rop
  | Rbroadcast of int * int * rop
  | Rshuffle of int * int * rop * int array
  | Rptestz of int * rop
  | Rgather of int * int * int * rop  (** dest, lanes, elem width, addresses *)
  | Rscatter of int * rop * rop  (** elem width, values, addresses *)
  | Tret of rop option
  | Tbr of int
  | Tcondbr of rop * int * int
  | Tvbr of rop * int * int * int
  | Tvbr_u of rop * int * int
  | Tunreachable

(* flag bits *)
let fl_load = 1
let fl_store = 2
let fl_branch = 4
let fl_avx = 8
let fl_inject = 16

type citem = {
  op : rinstr;
  nuops : int;  (** μop count of the lowering, for the counters *)
  plan : Timing.plan;  (** the lowering precompiled for {!Timing.exec} *)
  srcs : int array;  (** frame offsets read, for dependency tracking *)
  dst : int;  (** frame offset written, -1 if none *)
  dlanes : int;
  flags : int;
}

type cfunc = {
  cf_id : int;
  cf_name : string;
  cf_hardened : bool;
  code : citem array;
  nslots : int;
  param_offs : (int * int) array;
  ret_lanes : int;
  texts : string array;  (** printed source per pc; empty unless compiled
                             with [debug] (the SDE-debugtrace analogue) *)
}

type t = {
  cfuncs : cfunc array;
  by_name : (string, int) Hashtbl.t;
  globals : (string, int64) Hashtbl.t;
}

let oty = Instr.operand_ty None

(* ---- register layout ---- *)

let reg_layout (f : Instr.func) =
  let lanes = Array.make f.Instr.next_reg 1 in
  let note (r : Instr.reg) = lanes.(r.rid) <- Types.lanes r.rty in
  List.iter note f.params;
  List.iter
    (fun (_, (b : Instr.block)) ->
      List.iter
        (fun i ->
          (match Instr.dest i with Some r -> note r | None -> ());
          List.iter (function Instr.Reg r -> note r | _ -> ()) (Instr.operands i))
        b.instrs;
      List.iter (function Instr.Reg r -> note r | _ -> ()) (Instr.term_operands b.term))
    f.blocks;
  let offs = Array.make f.Instr.next_reg 0 in
  let total = ref 0 in
  Array.iteri
    (fun i n ->
      offs.(i) <- !total;
      total := !total + n)
    lanes;
  (offs, lanes, !total)

(* ---- compilation of one function ---- *)

let compile_func ~(debug : bool) ~(flags_cmp : bool) ~(fids : (string, int) Hashtbl.t)
    ~(globals : (string, int64) Hashtbl.t) (cf_id : int) (f : Instr.func) : cfunc =
  let offs, lanes, nslots = reg_layout f in
  let rop (o : Instr.operand) : rop =
    match o with
    | Instr.Reg r -> Oslot (offs.(r.rid), lanes.(r.rid))
    | Instr.Imm (t, v) -> Oconst (Value.canon (Types.elem t) v)
    | Instr.Fimm (t, v) -> Oconst (Value.fencode (Types.elem t) v)
    | Instr.Glob g -> (
        match Hashtbl.find_opt globals g with
        | Some a -> Oconst a
        | None -> raise (Unknown_function ("global " ^ g)))
    | Instr.Fref name -> (
        match Hashtbl.find_opt fids name with
        | Some id -> Oconst (Int64.add fnptr_base (Int64.of_int id))
        | None -> raise (Unknown_function name))
  in
  let srcs_of (ops : Instr.operand list) =
    ops
    |> List.filter_map (function Instr.Reg r -> Some offs.(r.rid) | _ -> None)
    |> Array.of_list
  in
  (* first pass: program counter of each block *)
  let pcs = Hashtbl.create 16 in
  let n = ref 0 in
  List.iter
    (fun (l, (b : Instr.block)) ->
      Hashtbl.replace pcs l !n;
      n := !n + List.length b.instrs + 1)
    f.blocks;
  let pc_of l =
    match Hashtbl.find_opt pcs l with
    | Some p -> p
    | None -> raise (Unknown_function ("label " ^ l))
  in
  (* a builtin call is checked against the builtin table here, at load
     time: the verifier sees only the module's own functions *)
  let callee_of name (r : Instr.reg option) args =
    match Hashtbl.find_opt fids name with
    | Some id -> Direct id
    | None -> (
        match Builtins.find name with
        | Some s ->
            let nargs = List.length args in
            if nargs <> s.Builtins.arity then
              invalid_arg
                (Printf.sprintf "Code.compile: call @%s with %d argument(s), builtin takes %d"
                   name nargs s.Builtins.arity);
            if r <> None && not s.Builtins.has_ret then
              invalid_arg
                (Printf.sprintf "Code.compile: call @%s binds the result of a void builtin" name);
            Builtin s.Builtins.id
        | None -> raise (Unknown_function name))
  in
  let width_of (t : Types.t) = Types.bytes (Types.elem t) in
  let lower (i : Instr.t) : rinstr * int =
    (* returns resolved instruction + extra flags *)
    match i with
    | Instr.Binop (r, op, a, b) ->
        let s = Types.elem r.rty in
        (Rbinop (offs.(r.rid), lanes.(r.rid), Value.binop_desc s op, rop a, rop b), 0)
    | Instr.Fbinop (r, op, a, b) ->
        let s = Types.elem r.rty in
        (Rfbinop (offs.(r.rid), lanes.(r.rid), Value.fbinop_desc s op, rop a, rop b), 0)
    | Instr.Icmp (r, cc, a, b) ->
        let s = Types.elem (oty a) in
        ( Ricmp
            ( offs.(r.rid),
              lanes.(r.rid),
              Value.icmp_desc s cc,
              (if Types.is_vector r.rty then Value.true_mask (Types.elem r.rty) else 1L),
              rop a,
              rop b ),
          0 )
    | Instr.Fcmp (r, cc, a, b) ->
        let s = Types.elem (oty a) in
        ( Rfcmp
            ( offs.(r.rid),
              lanes.(r.rid),
              Value.fcmp_desc s cc,
              (if Types.is_vector r.rty then Value.true_mask (Types.elem r.rty) else 1L),
              rop a,
              rop b ),
          0 )
    | Instr.Select (r, c, a, b) -> (Rselect (offs.(r.rid), lanes.(r.rid), rop c, rop a, rop b), 0)
    | Instr.Cast (r, k, o) ->
        let from = Types.elem (oty o) and dst = Types.elem r.rty in
        (Rcast (offs.(r.rid), lanes.(r.rid), Value.cast_desc k ~from ~dst, rop o), 0)
    | Instr.Mov (r, o) -> (Rmov (offs.(r.rid), lanes.(r.rid), rop o), 0)
    | Instr.Load (r, a) ->
        if Types.is_vector r.rty then
          (Rvload (offs.(r.rid), lanes.(r.rid), width_of r.rty, rop a), fl_load)
        else (Rload (offs.(r.rid), width_of r.rty, rop a), fl_load)
    | Instr.Store (v, a) ->
        let t = oty v in
        if Types.is_vector t then (Rvstore (Types.lanes t, width_of t, rop v, rop a), fl_store)
        else (Rstore (width_of t, rop v, rop a), fl_store)
    | Instr.Alloca (r, size) -> (Ralloca (offs.(r.rid), size), 0)
    | Instr.Call (r, name, args) ->
        let d, dl = match r with Some r -> (offs.(r.rid), lanes.(r.rid)) | None -> (-1, 0) in
        (Rcall (callee_of name r args, Array.of_list (List.map rop args), d, dl), 0)
    | Instr.Call_ind (r, _, fp, args) ->
        let d, dl = match r with Some r -> (offs.(r.rid), lanes.(r.rid)) | None -> (-1, 0) in
        (Rcall_ind (rop fp, Array.of_list (List.map rop args), d, dl), 0)
    | Instr.Atomic_rmw (r, op, addr, x) ->
        (Ratomic (op, offs.(r.rid), rop addr, rop x, width_of r.rty), fl_load lor fl_store)
    | Instr.Cmpxchg (r, addr, e, d) ->
        (Rcmpxchg (offs.(r.rid), rop addr, rop e, rop d, width_of r.rty), fl_load lor fl_store)
    | Instr.Extractlane (r, v, l) -> (Rextract (offs.(r.rid), rop v, l), 0)
    | Instr.Insertlane (r, v, l, s) -> (Rinsert (offs.(r.rid), lanes.(r.rid), rop v, l, rop s), 0)
    | Instr.Broadcast (r, s) -> (Rbroadcast (offs.(r.rid), lanes.(r.rid), rop s), 0)
    | Instr.Shuffle (r, v, perm) -> (Rshuffle (offs.(r.rid), lanes.(r.rid), rop v, perm), 0)
    | Instr.Ptestz (r, v) -> (Rptestz (offs.(r.rid), rop v), 0)
    | Instr.Gather (r, a) ->
        (Rgather (offs.(r.rid), lanes.(r.rid), width_of r.rty, rop a), fl_load)
    | Instr.Scatter (v, a) -> (Rscatter (width_of (oty v), rop v, rop a), fl_store)
  in
  let items = ref [] in
  let emit it = items := it :: !items in
  List.iter
    (fun (_, (b : Instr.block)) ->
      List.iter
        (fun i ->
          let op, extra = lower i in
          let dst, dlanes =
            match Instr.dest i with
            | Some r -> (offs.(r.rid), lanes.(r.rid))
            | None -> (-1, 0)
          in
          let flags =
            extra
            lor (if Cost.is_avx i then fl_avx else 0)
            lor if f.Instr.hardened && dst >= 0 then fl_inject else 0
          in
          let uops = Cost.of_instr i in
          emit
            {
              op;
              nuops = Array.length uops;
              plan = Timing.plan_of_uops uops;
              srcs = srcs_of (Instr.operands i);
              dst;
              dlanes;
              flags;
            })
        b.instrs;
      let top =
        match b.term with
        | Instr.Ret o -> Tret (Option.map rop o)
        | Instr.Br l -> Tbr (pc_of l)
        | Instr.Cond_br (c, t, e) -> Tcondbr (rop c, pc_of t, pc_of e)
        | Instr.Vbr (m, t, e, r) -> Tvbr (rop m, pc_of t, pc_of e, pc_of r)
        | Instr.Vbr_unchecked (m, t, e) -> Tvbr_u (rop m, pc_of t, pc_of e)
        | Instr.Unreachable -> Tunreachable
      in
      let flags =
        match b.term with
        | Instr.Br _ | Instr.Cond_br _ | Instr.Vbr _ | Instr.Vbr_unchecked _ -> fl_branch
        | Instr.Ret _ | Instr.Unreachable -> 0
      in
      let uops = Cost.of_term ~flags_cmp b.term in
      emit
        {
          op = top;
          nuops = Array.length uops;
          plan = Timing.plan_of_uops uops;
          srcs = srcs_of (Instr.term_operands b.term);
          dst = -1;
          dlanes = 0;
          flags;
        })
    f.blocks;
  let texts =
    if not debug then [||]
    else
      Array.of_list
        (List.concat_map
           (fun (_, (b : Instr.block)) ->
             List.map Printer.string_of_instr b.Instr.instrs
             @ [ Printer.string_of_terminator b.Instr.term ])
           f.Instr.blocks)
  in
  {
    cf_id;
    cf_name = f.Instr.fname;
    cf_hardened = f.Instr.hardened;
    code = Array.of_list (List.rev !items);
    nslots;
    param_offs =
      Array.of_list (List.map (fun (r : Instr.reg) -> (offs.(r.rid), lanes.(r.rid))) f.params);
    ret_lanes = (match f.Instr.ret_ty with None -> 0 | Some t -> Types.lanes t);
    texts;
  }

(* ---- module compilation ---- *)

(* Lays out globals in [mem] and compiles every function.  [flags_cmp]
   selects the proposed FLAGS-setting AVX comparison lowering for vector
   branches (future-AVX experiments, paper §VII-B). *)
let compile ?(debug = false) ?(flags_cmp = false) (m : Instr.modul) (mem : Memory.t) : t =
  let globals = Hashtbl.create 16 in
  List.iter
    (fun (g : Instr.global) ->
      let addr = Memory.alloc_static mem g.gsize in
      (match g.ginit with Some s -> Memory.blit_string mem s addr | None -> ());
      Hashtbl.replace globals g.gname addr)
    m.globals;
  Memory.heap_init mem ~stack_reserve:(1 lsl 25);
  let fids = Hashtbl.create 64 in
  List.iteri (fun i (f : Instr.func) -> Hashtbl.replace fids f.fname i) m.funcs;
  let cfuncs =
    Array.of_list
      (List.mapi (fun i f -> compile_func ~debug ~flags_cmp ~fids ~globals i f) m.funcs)
  in
  { cfuncs; by_name = fids; globals }

let lookup (c : t) name =
  match Hashtbl.find_opt c.by_name name with
  | Some id -> c.cfuncs.(id)
  | None -> raise (Unknown_function name)

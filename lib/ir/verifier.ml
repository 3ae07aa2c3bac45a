(** Structural and type checking of IR modules.

    The verifier runs after construction and after every transformation pass
    in the test suite; a hardening pass that produces ill-typed code is a
    bug, not a runtime condition, so the main entry point raises.

    Global and function addresses ([Glob]/[Fref]) are scalar pointers but
    may appear wherever a pointer-element vector is expected: they denote
    link-time constants, which splat for free (the hardened code of the
    ELZAR pass relies on this, exactly like LLVM constant expressions). *)

open Instr

exception Ill_formed of string list

type ctx = {
  callees : (string, func) Hashtbl.t;  (** the module's functions by name, first wins *)
  cfg : Dataflow.cfg;  (** [f]'s blocks and edges *)
  f : func;
  mutable errors : string list;
  (* the walk also records reads and definitions for definite assignment *)
  read : operand -> unit;  (** records a read *)
  operand_in_range : operand -> unit;  (** checks and records a read *)
  dest_in_range : reg -> unit;  (** checks and records a definition *)
}

let err ctx fmt =
  Printf.ksprintf
    (fun s -> ctx.errors <- Printf.sprintf "@%s: %s" ctx.f.fname s :: ctx.errors)
    fmt

let is_int_ty (t : Types.t) = Types.is_int (Types.elem t)
let is_float_ty (t : Types.t) = Types.is_float (Types.elem t)

let mask_ty_of (t : Types.t) =
  match t with
  | Types.Scalar _ -> Types.i1
  | Types.Vector (s, n) -> Types.Vector (Types.mask_elem s, n)

let is_mask_ty (t : Types.t) =
  match t with
  | Types.Scalar Types.I1 -> true
  | Types.Vector (s, _) -> Types.is_int s
  | Types.Scalar _ -> false

let oty (o : operand) = operand_ty None o

(* Link-time address constants are compatible with any pointer-element
   position, scalar or vector. *)
let compat (expected : Types.t) (o : operand) =
  match o with
  | Glob _ | Fref _ -> Types.elem expected = Types.Ptr
  | _ -> Types.equal expected (oty o)

let check_op ctx what expected o =
  if not (compat expected o) then
    err ctx "%s: expected %s, got %s" what (Types.to_string expected)
      (Types.to_string (oty o))

let check_same ctx what a b =
  if not (Types.equal a b) then
    err ctx "%s: type mismatch %s vs %s" what (Types.to_string a) (Types.to_string b)

(* Common type of two operands where address constants defer to the other
   side. *)
let join_ty a b =
  match (a, b) with
  | (Glob _ | Fref _), o when not (match o with Glob _ | Fref _ -> true | _ -> false) ->
      oty o
  | o, _ -> oty o

let is_bitwise = function And | Or | Xor -> true | _ -> false

let check_cast ctx (r : reg) kind (o : operand) =
  let from_e = Types.elem (oty o) and to_e = Types.elem r.rty in
  let fb = Types.bits from_e and tb = Types.bits to_e in
  let ok =
    match kind with
    | Trunc -> Types.is_int from_e && Types.is_int to_e && tb < fb
    | Zext | Sext -> Types.is_int from_e && Types.is_int to_e && tb > fb
    | Fptosi -> Types.is_float from_e && Types.is_int to_e
    | Sitofp -> Types.is_int from_e && Types.is_float to_e
    | Fpext -> from_e = Types.F32 && to_e = Types.F64
    | Fptrunc -> from_e = Types.F64 && to_e = Types.F32
    | Bitcast -> fb = tb
  in
  if not ok then
    err ctx "invalid %s from %s to %s" (Printer.string_of_cast kind)
      (Types.to_string (oty o)) (Types.to_string r.rty)

let check_instr ctx (i : t) =
  (match i with
  | Binop (r, op, a, b) ->
      check_op ctx "binop lhs" r.rty a;
      check_op ctx "binop rhs" r.rty b;
      (* bitwise ops are legal on float vectors (vxorps & co., used by the
         shuffle-xor checks); arithmetic ones are integer-only *)
      if (not (is_int_ty r.rty)) && not (is_bitwise op) then
        err ctx "binop on non-integer %s" (Types.to_string r.rty)
  | Fbinop (r, _, a, b) ->
      check_op ctx "fbinop lhs" r.rty a;
      check_op ctx "fbinop rhs" r.rty b;
      if not (is_float_ty r.rty) then err ctx "fbinop on non-float %s" (Types.to_string r.rty)
  | Icmp (r, _, a, b) ->
      let t = join_ty a b in
      check_op ctx "icmp lhs" t a;
      check_op ctx "icmp rhs" t b;
      if not (is_int_ty t) then err ctx "icmp on non-integer";
      check_same ctx "icmp result" r.rty (mask_ty_of t)
  | Fcmp (r, _, a, b) ->
      let t = join_ty a b in
      check_op ctx "fcmp lhs" t a;
      check_op ctx "fcmp rhs" t b;
      if not (is_float_ty t) then err ctx "fcmp on non-float";
      check_same ctx "fcmp result" r.rty (mask_ty_of t)
  | Select (r, c, a, b) ->
      check_op ctx "select lhs" r.rty a;
      check_op ctx "select rhs" r.rty b;
      if not (is_mask_ty (oty c)) then err ctx "select condition is not a mask"
  | Cast (r, k, o) -> check_cast ctx r k o
  | Mov (r, o) -> check_op ctx "mov" r.rty o
  | Load (_, a) -> check_op ctx "load address" Types.ptr a
  | Store (_, a) -> check_op ctx "store address" Types.ptr a
  | Alloca (r, n) ->
      check_same ctx "alloca" r.rty Types.ptr;
      if n <= 0 then err ctx "alloca of %d bytes" n
  | Call (r, name, args) -> (
      match Hashtbl.find_opt ctx.callees name with
      | None -> ()  (* builtin: checked against the builtin table when loaded *)
      | Some callee ->
          if List.length args <> List.length callee.params then
            err ctx "call @%s: arity %d, expected %d" name (List.length args)
              (List.length callee.params)
          else
            List.iter2
              (fun a (p : reg) ->
                if not (compat p.rty a) then
                  err ctx "call @%s arg: expected %s, got %s" name (Types.to_string p.rty)
                    (Types.to_string (oty a)))
              args callee.params;
          (match (r, callee.ret_ty) with
          | Some r, Some t ->
              if not (Types.equal r.rty t) then
                err ctx "call @%s result: type mismatch %s vs %s" name (Types.to_string r.rty)
                  (Types.to_string t)
          | Some _, None -> err ctx "call @%s: void callee used as value" name
          | None, _ -> ()))
  | Call_ind (_, _, fp, _) -> check_op ctx "indirect callee" Types.ptr fp
  | Atomic_rmw (r, _, addr, x) ->
      check_op ctx "atomicrmw address" Types.ptr addr;
      check_op ctx "atomicrmw operand" r.rty x;
      if Types.is_vector r.rty || not (is_int_ty r.rty) then
        err ctx "atomicrmw on %s" (Types.to_string r.rty)
  | Cmpxchg (r, addr, e, d) ->
      check_op ctx "cmpxchg address" Types.ptr addr;
      check_op ctx "cmpxchg expected" r.rty e;
      check_op ctx "cmpxchg desired" r.rty d
  | Extractlane (r, v, l) -> (
      match oty v with
      | Types.Vector (s, n) ->
          if l < 0 || l >= n then err ctx "extractlane %d out of %d lanes" l n;
          check_same ctx "extractlane result" r.rty (Types.Scalar s)
      | t -> err ctx "extractlane from non-vector %s" (Types.to_string t))
  | Insertlane (r, v, l, s) -> (
      check_op ctx "insertlane vector" r.rty v;
      match r.rty with
      | Types.Vector (e, n) ->
          if l < 0 || l >= n then err ctx "insertlane %d out of %d lanes" l n;
          check_op ctx "insertlane scalar" (Types.Scalar e) s
      | t -> err ctx "insertlane into non-vector %s" (Types.to_string t))
  | Broadcast (r, s) -> (
      match r.rty with
      | Types.Vector (e, _) -> check_op ctx "broadcast" (Types.Scalar e) s
      | t -> err ctx "broadcast into non-vector %s" (Types.to_string t))
  | Shuffle (r, v, perm) -> (
      check_op ctx "shuffle" r.rty v;
      match r.rty with
      | Types.Vector (_, n) ->
          if Array.length perm <> n then
            err ctx "shuffle mask has %d entries, want %d" (Array.length perm) n;
          Array.iter
            (fun p -> if p < 0 || p >= n then err ctx "shuffle index %d out of range" p)
            perm
      | t -> err ctx "shuffle of non-vector %s" (Types.to_string t))
  | Ptestz (r, v) ->
      check_same ctx "ptestz result" r.rty Types.i1;
      if not (Types.is_vector (oty v)) then err ctx "ptestz of non-vector"
  | Gather (r, a) -> (
      (match oty a with
      | Types.Vector (Types.Ptr, _) -> ()
      | Types.Scalar Types.Ptr when (match a with Glob _ | Fref _ -> true | _ -> false) -> ()
      | t -> err ctx "gather addresses have type %s" (Types.to_string t));
      if not (Types.is_vector r.rty) then err ctx "gather into non-vector")
  | Scatter (v, a) ->
      (match oty a with
      | Types.Vector (Types.Ptr, _) -> ()
      | Types.Scalar Types.Ptr when (match a with Glob _ | Fref _ -> true | _ -> false) -> ()
      | t -> err ctx "scatter addresses have type %s" (Types.to_string t));
      if not (Types.is_vector (oty v)) then err ctx "scatter of non-vector");
  iter_operands ctx.operand_in_range i;
  iter_dest ctx.dest_in_range i

let check_target ctx l =
  if Dataflow.Labels.find ctx.cfg.index l < 0 then err ctx "branch to unknown block %%%s" l

(* [t] ends block [at] *)
let check_term ctx at (t : terminator) =
  (match t with
  | Ret o -> (
      match (o, ctx.f.ret_ty) with
      | None, None -> ()
      | Some o, Some t -> check_op ctx "return value" t o
      | Some _, None -> err ctx "returning a value from a void function"
      | None, Some _ -> err ctx "missing return value")
  | Br _ | Unreachable -> ()
  | Cond_br (c, _, _) -> check_op ctx "branch condition" Types.i1 c
  | Vbr (m, _, _, _) | Vbr_unchecked (m, _, _) ->
      if not (Types.is_vector (oty m) && is_int_ty (oty m)) then
        err ctx "vbr mask has type %s" (Types.to_string (oty m)));
  iter_term_operands ctx.read t;
  (* the CFG has an edge per known target: look the labels up again only
     when one is missing *)
  let targets =
    match t with
    | Ret _ | Unreachable -> 0
    | Br _ -> 1
    | Cond_br _ | Vbr_unchecked _ -> 2
    | Vbr _ -> 3
  in
  if List.compare_length_with ctx.cfg.succs.(at) targets <> 0 then
    iter_successors (check_target ctx) t

(* [m]'s functions by name; [find_func] semantics: the first of a name wins *)
let callee_table (m : modul) : (string, func) Hashtbl.t =
  let t = Hashtbl.create 16 in
  List.iter (fun f -> if not (Hashtbl.mem t f.fname) then Hashtbl.add t f.fname f) m.funcs;
  t

let check_func callees (f : func) : string list =
  let cfg = Dataflow.build_cfg f in
  let defs = Dataflow.Defs.create ~blocks:(Array.length cfg.labels) f in
  let rec ctx =
    {
      callees;
      cfg;
      f;
      errors = [];
      read = Dataflow.Defs.read defs;
      operand_in_range =
        (fun o ->
          (match o with
          | Reg r when r.rid >= f.next_reg ->
              err ctx "operand %s outside register space" (Printer.string_of_reg r)
          | Reg _ | Imm _ | Fimm _ | Glob _ | Fref _ -> ());
          Dataflow.Defs.read defs o);
      dest_in_range =
        (fun r ->
          if r.rid >= f.next_reg then
            err ctx "destination %s outside register space" (Printer.string_of_reg r);
          Dataflow.Defs.write defs r);
    }
  in
  let labels = cfg.index in
  if f.blocks = [] then err ctx "function has no blocks";
  (* a label is reported once per later repeat, at each earlier occurrence:
     at every block that is not the last of its label *)
  if Dataflow.Labels.has_duplicates labels then
    for i = 0 to Dataflow.Labels.length labels - 1 do
      let l = Dataflow.Labels.label labels i in
      if Dataflow.Labels.find labels l <> i then err ctx "duplicate block label %%%s" l
    done;
  for i = 0 to Dataflow.Labels.length labels - 1 do
    let b = Dataflow.Labels.block labels i in
    Dataflow.Defs.start_block defs i;
    List.iter (check_instr ctx) b.instrs;
    check_term ctx i b.term
  done;
  (* definite assignment, from what the walk recorded: catches passes that
     leave a path reading an uninitialized register *)
  if ctx.errors = [] then ctx.errors <- List.rev_append (Dataflow.Defs.check defs cfg f) ctx.errors;
  List.rev ctx.errors

let verify_func (m : modul) (f : func) : string list = check_func (callee_table m) f

let verify (m : modul) : (unit, string list) result =
  let callees = callee_table m in
  let errors = List.concat_map (check_func callees) m.funcs in
  if errors = [] then Ok () else Error errors

let verify_exn m =
  match verify m with Ok () -> () | Error es -> raise (Ill_formed es)

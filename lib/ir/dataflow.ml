(** CFG dataflow analyses over the non-SSA IR.

    [verify_defs] is a definite-assignment check (every register read must
    be written on all paths from entry), used by the verifier to catch
    transformation-pass bugs.  [liveness] and [max_pressure] compute
    classic backward liveness and the peak number of simultaneously live
    registers — the register-pressure cost that makes real SWIFT-R spill
    (and that an infinite-register simulator otherwise hides).

    All three work on {!Regset}, a bitset over one function's register
    ids: a fixpoint step is a word-wise union or intersection, so each
    analysis costs O(iterations x blocks x registers / word size) plus one
    pass over the instructions. *)

open Instr

(* The id range [lo, hi) covering every register [f] mentions (parameters,
   destinations, operands, loop induction variables) and [0, next_reg).
   Ids outside [0, next_reg) are ill-formed, but the analyses and the
   optimizer must still run on them: the verifier reports them. *)
let reg_span (f : func) : int * int =
  let lo = ref 0 and hi = ref f.next_reg in
  let see (r : reg) =
    if r.rid < !lo then lo := r.rid;
    if r.rid >= !hi then hi := r.rid + 1
  in
  let see_op = function Reg r -> see r | Imm _ | Fimm _ | Glob _ | Fref _ -> () in
  List.iter see f.params;
  List.iter
    (fun (_, (b : block)) ->
      List.iter
        (fun i ->
          (match dest i with Some r -> see r | None -> ());
          List.iter see_op (operands i))
        b.instrs;
      List.iter see_op (term_operands b.term))
    f.blocks;
  List.iter (fun li -> see li.l_ivar) f.loops;
  (!lo, !hi)

(* A mutable set of register ids within a fixed range [lo, hi): bit
   [rid - lo] of a word array.  Binary operations require both sets to
   share the range. *)
module Regset = struct
  type t = { lo : int; words : int array }

  let bpw = Sys.int_size

  let create ~lo ~hi = { lo; words = Array.make ((hi - lo + bpw - 1) / bpw) 0 }
  let copy s = { s with words = Array.copy s.words }

  let mem rid s =
    let i = rid - s.lo in
    i >= 0
    && i < Array.length s.words * bpw
    && s.words.(i / bpw) land (1 lsl (i mod bpw)) <> 0

  let add rid s =
    let i = rid - s.lo in
    s.words.(i / bpw) <- s.words.(i / bpw) lor (1 lsl (i mod bpw))

  let remove rid s =
    let i = rid - s.lo in
    s.words.(i / bpw) <- s.words.(i / bpw) land lnot (1 lsl (i mod bpw))

  let popcount w =
    let rec go w n = if w = 0 then n else go (w land (w - 1)) (n + 1) in
    go w 0

  let cardinal s = Array.fold_left (fun n w -> n + popcount w) 0 s.words

  let elements s =
    let acc = ref [] in
    for i = (Array.length s.words * bpw) - 1 downto 0 do
      if s.words.(i / bpw) land (1 lsl (i mod bpw)) <> 0 then acc := (i + s.lo) :: !acc
    done;
    !acc

  let equal a b =
    let rec go i = i < 0 || (a.words.(i) = b.words.(i) && go (i - 1)) in
    go (Array.length a.words - 1)

  (* [dst] := [src] *)
  let blit ~src ~dst = Array.blit src.words 0 dst.words 0 (Array.length src.words)

  (* [dst] := [dst] ∪ [src] *)
  let union_into ~dst src =
    let d = dst.words and s = src.words in
    for i = 0 to Array.length d - 1 do
      d.(i) <- d.(i) lor s.(i)
    done
end

type cfg = {
  labels : string array;
  index : (string, int) Hashtbl.t;
  preds : int list array;
  succs : int list array;
}

let build_cfg (f : func) : cfg =
  let labels = Array.of_list (List.map fst f.blocks) in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace index l i) labels;
  let n = Array.length labels in
  let preds = Array.make n [] and succs = Array.make n [] in
  List.iteri
    (fun i (_, (b : block)) ->
      List.iter
        (fun l ->
          match Hashtbl.find_opt index l with
          | Some j ->
              succs.(i) <- j :: succs.(i);
              preds.(j) <- i :: preds.(j)
          | None -> ())
        (successors b.term))
    f.blocks;
  { labels; index; preds; succs }

let uses_of_instr (i : t) : int list =
  List.filter_map (function Reg r -> Some r.rid | _ -> None) (operands i)

let defs_of_instr (i : t) : int list =
  match dest i with Some r -> [ r.rid ] | None -> []

let uses_of_term (t : terminator) : int list =
  List.filter_map (function Reg r -> Some r.rid | _ -> None) (term_operands t)

(* ---- definite assignment ---- *)

(* Forward may-not-be-defined analysis: defined-at-entry of a block is the
   intersection of defined-at-exit over its reachable predecessors;
   unreachable blocks are skipped.  The entry block starts with the
   parameters and every other block with everything any block defines; the
   sets only shrink, so the iteration reaches the greatest fixpoint. *)
let verify_defs (f : func) : string list =
  let blocks = Array.of_list (List.map snd f.blocks) in
  let cfg = build_cfg f in
  let n = Array.length blocks in
  if n = 0 then []
  else begin
    let lo, hi = reg_span f in
    let empty () = Regset.create ~lo ~hi in
    let params = empty () in
    List.iter (fun (r : reg) -> Regset.add r.rid params) f.params;
    let gen =
      Array.map
        (fun (b : block) ->
          let s = empty () in
          List.iter (fun i -> match dest i with Some r -> Regset.add r.rid s | None -> ()) b.instrs;
          s)
        blocks
    in
    (* reachability *)
    let reachable = Array.make n false in
    let rec visit i =
      if not reachable.(i) then begin
        reachable.(i) <- true;
        List.iter visit cfg.succs.(i)
      end
    in
    visit 0;
    (* all-defined lattice: start from "everything" and shrink *)
    let all = Regset.copy params in
    Array.iter (fun g -> Regset.union_into ~dst:all g) gen;
    let entry_in = Array.init n (fun i -> Regset.copy (if i = 0 then params else all)) in
    let inter = empty () in
    (* [inter] := [inter] ∩ (defined at the exit of [p]), or := when [first] *)
    let meet ~first p =
      let d = inter.Regset.words and e = entry_in.(p).Regset.words and g = gen.(p).Regset.words in
      for w = 0 to Array.length d - 1 do
        let out = e.(w) lor g.(w) in
        d.(w) <- (if first then out else d.(w) land out)
      done
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 1 to n - 1 do
        if reachable.(i) then begin
          let first =
            List.fold_left
              (fun first p ->
                if reachable.(p) then begin
                  meet ~first p;
                  false
                end
                else first)
              true cfg.preds.(i)
          in
          (* reachable only via entry? conservative *)
          if first then Regset.blit ~src:params ~dst:inter;
          if not (Regset.equal inter entry_in.(i)) then begin
            Regset.blit ~src:inter ~dst:entry_in.(i);
            changed := true
          end
        end
      done
    done;
    let errors = ref [] in
    Array.iteri
      (fun i (b : block) ->
        if reachable.(i) then begin
          let defined = entry_in.(i) in
          List.iter
            (fun instr ->
              List.iter
                (fun u ->
                  if not (Regset.mem u defined) then
                    errors :=
                      Printf.sprintf "@%s: block %%%s reads register #%d before any definition"
                        f.fname cfg.labels.(i) u
                      :: !errors)
                (uses_of_instr instr);
              match dest instr with Some r -> Regset.add r.rid defined | None -> ())
            b.instrs;
          List.iter
            (fun u ->
              if not (Regset.mem u defined) then
                errors :=
                  Printf.sprintf "@%s: terminator of %%%s reads register #%d before any definition"
                    f.fname cfg.labels.(i) u
                  :: !errors)
            (uses_of_term b.term)
        end)
      blocks;
    List.rev !errors
  end

(* ---- liveness ---- *)

type liveness = { live_in : Regset.t array; live_out : Regset.t array }

let liveness (f : func) : liveness =
  let blocks = Array.of_list (List.map snd f.blocks) in
  let cfg = build_cfg f in
  let n = Array.length blocks in
  let lo, hi = reg_span f in
  let empty () = Regset.create ~lo ~hi in
  (* per-block use (read before any write) and def sets *)
  let use = Array.init n (fun _ -> empty ()) and def = Array.init n (fun _ -> empty ()) in
  Array.iteri
    (fun i (b : block) ->
      let u = use.(i) and d = def.(i) in
      let read x = if not (Regset.mem x d) then Regset.add x u in
      List.iter
        (fun instr ->
          List.iter read (uses_of_instr instr);
          List.iter (fun x -> Regset.add x d) (defs_of_instr instr))
        b.instrs;
      List.iter read (uses_of_term b.term))
    blocks;
  (* live-in is use ∪ (live-out \ def) throughout: it starts at use, with
     every live-out empty, and is recomputed whenever a live-out grows *)
  let live_in = Array.map Regset.copy use and live_out = Array.init n (fun _ -> empty ()) in
  let out = empty () in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      Array.fill out.Regset.words 0 (Array.length out.Regset.words) 0;
      List.iter (fun j -> Regset.union_into ~dst:out live_in.(j)) cfg.succs.(i);
      if not (Regset.equal out live_out.(i)) then begin
        Regset.blit ~src:out ~dst:live_out.(i);
        let li = live_in.(i).Regset.words
        and o = out.Regset.words
        and u = use.(i).Regset.words
        and d = def.(i).Regset.words in
        for w = 0 to Array.length li - 1 do
          li.(w) <- u.(w) lor (o.(w) land lnot d.(w))
        done;
        changed := true
      end
    done
  done;
  { live_in; live_out }

(* Peak number of simultaneously live registers across the function: a
   proxy for register pressure (and hence for the spills an infinite-
   register machine never pays). *)
let max_pressure (f : func) : int =
  let blocks = Array.of_list (List.map snd f.blocks) in
  let lv = liveness f in
  let peak = ref 0 in
  Array.iteri
    (fun i (b : block) ->
      (* walk backwards from live-out, keeping the count in step *)
      let live = Regset.copy lv.live_out.(i) in
      let count = ref (Regset.cardinal live) in
      peak := max !peak !count;
      List.iter
        (fun instr ->
          List.iter
            (fun d ->
              if Regset.mem d live then begin
                Regset.remove d live;
                decr count
              end)
            (defs_of_instr instr);
          List.iter
            (fun u ->
              if not (Regset.mem u live) then begin
                Regset.add u live;
                incr count
              end)
            (uses_of_instr instr);
          peak := max !peak !count)
        (List.rev b.instrs))
    blocks;
  !peak

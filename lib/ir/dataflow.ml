(** CFG dataflow analyses over the non-SSA IR.

    [verify_defs] is a definite-assignment check (every register read must
    be written on all paths from entry), used by the verifier to catch
    transformation-pass bugs.  [liveness] and [max_pressure] compute
    classic backward liveness and the peak number of simultaneously live
    registers — the register-pressure cost that makes real SWIFT-R spill
    (and that an infinite-register simulator otherwise hides).

    All three work on bitsets of register ids in {!Regset}'s word layout:
    a fixpoint step is a word-wise union or intersection, so each analysis
    costs O(iterations x blocks x registers / word size) plus one pass over
    the instructions.  Definite assignment's sets range only over the
    registers that can be read undefined ({!Defs}).  The analyses share
    one label index per function ({!Labels}). *)

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
  let see_instr i =
    iter_dest see i;
    iter_operands see_op i
  in
  List.iter see f.params;
  List.iter
    (fun (_, (b : block)) ->
      List.iter see_instr b.instrs;
      iter_term_operands see_op b.term)
    f.blocks;
  List.iter (fun li -> see li.l_ivar) f.loops;
  (!lo, !hi)

(* A mutable set of register ids within a fixed range [lo, hi): bit
   [rid - lo] of a word array.  Binary operations require both sets to
   share the range. *)
module Regset = struct
  type t = { lo : int; words : int array }

  (* bits per word: [Sys.int_size] on the 64-bit hosts OCaml 5 targets,
     spelled as a literal so that [/] and [mod] by it compile to a
     multiplication instead of a division *)
  let bpw = 63

  let () = assert (Sys.int_size >= bpw)

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

(* A function's blocks in layout order and an open-addressing table from
   label to position, sized to the block count once (at most half full, so
   it never regrows).  A repeated label maps to its last block. *)
module Labels = struct
  type t = {
    labels : string array;
    blocks : block array;
    slots : int array;  (** a position per slot; -1 = empty *)
    duplicates : bool;
  }

  let filler = { instrs = []; term = Unreachable }

  (* The slot holding [l], or the empty slot where the probe for it ends. *)
  let rec probe slots labels mask l h =
    let p = slots.(h) in
    if p < 0 || String.equal labels.(p) l then h else probe slots labels mask l ((h + 1) land mask)

  let create (f : func) : t =
    let n = List.length f.blocks in
    let labels = Array.make n "" and blocks = Array.make n filler in
    List.iteri
      (fun i (l, b) ->
        labels.(i) <- l;
        blocks.(i) <- b)
      f.blocks;
    let cap = ref 2 in
    while !cap < 2 * n do
      cap := 2 * !cap
    done;
    let slots = Array.make !cap (-1) and mask = !cap - 1 in
    let duplicates = ref false in
    for i = 0 to n - 1 do
      let h = probe slots labels mask labels.(i) (Hashtbl.hash labels.(i) land mask) in
      if slots.(h) >= 0 then duplicates := true;
      slots.(h) <- i
    done;
    { labels; blocks; slots; duplicates = !duplicates }

  let length t = Array.length t.labels
  let label t i = t.labels.(i)
  let block t i = t.blocks.(i)
  let has_duplicates t = t.duplicates

  let find t l =
    let mask = Array.length t.slots - 1 in
    t.slots.(probe t.slots t.labels mask l (Hashtbl.hash l land mask))
end

type cfg = {
  labels : string array;
  index : Labels.t;
  preds : int list array;
  succs : int list array;
}

let build_cfg (f : func) : cfg =
  let index = Labels.create f in
  let n = Labels.length index in
  let preds = Array.make n [] and succs = Array.make n [] in
  let src = ref 0 in
  let edge l =
    let i = !src and j = Labels.find index l in
    if j >= 0 then begin
      succs.(i) <- j :: succs.(i);
      preds.(j) <- i :: preds.(j)
    end
  in
  for i = 0 to n - 1 do
    src := i;
    iter_successors edge (Labels.block index i).term
  done;
  { labels = index.Labels.labels; index; preds; succs }

(* ---- definite assignment ---- *)

(* A growable buffer of ints. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create n = { a = Array.make (max 1 n) 0; len = 0 }

  let push b x =
    if b.len = Array.length b.a then begin
      let a = Array.make (2 * b.len) 0 in
      Array.blit b.a 0 a 0 b.len;
      b.a <- a
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1
end

(* [a]'s words [at, at + w) are a subset of [b]'s *)
let rec words_subset (a : int array) (b : int array) at w =
  w = 0 || (a.(at) land lnot b.(at) = 0 && words_subset a b (at + 1) (w - 1))

(* Forward may-not-be-defined analysis: defined-at-entry of a block is the
   intersection of defined-at-exit over its reachable predecessors;
   unreachable blocks are skipped.  The entry block starts with the
   parameters and every other block with everything a reachable block
   defines; the sets only shrink, so the iteration reaches the greatest
   fixpoint (no register outside that start set is defined on every path
   from entry, so it is the fixpoint a larger start reaches).

   One walk over the instructions, which the verifier's own walk doubles
   as, records for each block its definitions and its exposed reads (those
   before any definition in the block).  Only registers with an exposed
   read in some reachable block can be read undefined, so the sets range
   over those alone, a small share of a hardened function's registers.  A
   block reads an undefined register exactly when one of its exposed
   reads is missing from its entry set, and only such a block is walked
   again, for the error messages. *)
module Defs = struct
  type t = {
    next_reg : int;
    overflow : (int, int) Hashtbl.t;
        (** ids outside [\[0, next_reg)], ill-formed but possible: their
            indices, from [next_reg] on; other ids index themselves *)
    mutable stamp : int array;  (** register index -> last block to define it *)
    mutable block : int;  (** the block being recorded *)
    reads : Ibuf.t;  (** exposed reads, as register indices, block after block *)
    defs : Ibuf.t;  (** definitions, likewise *)
    reads_at : int array;  (** per block, where its entries start; one past the last *)
    defs_at : int array;
  }

  let create ~blocks (f : func) : t =
    {
      next_reg = f.next_reg;
      overflow = Hashtbl.create 1;
      stamp = Array.make (f.next_reg + 1) (-1);
      block = -1;
      (* over the workloads' prepared functions: about 1.2 definitions
         and 0.4 exposed reads per register *)
      reads = Ibuf.create (16 + (f.next_reg / 2));
      defs = Ibuf.create (16 + (3 * f.next_reg / 2));
      reads_at = Array.make (blocks + 1) 0;
      defs_at = Array.make (blocks + 1) 0;
    }

  let index t (r : reg) =
    if r.rid >= 0 && r.rid < t.next_reg then r.rid
    else
      match Hashtbl.find_opt t.overflow r.rid with
      | Some k -> k
      | None ->
          let k = t.next_reg + Hashtbl.length t.overflow in
          Hashtbl.add t.overflow r.rid k;
          if k >= Array.length t.stamp then begin
            let stamp = Array.make (2 * k) (-1) in
            Array.blit t.stamp 0 stamp 0 (Array.length t.stamp);
            t.stamp <- stamp
          end;
          k

  (* Blocks are recorded in layout order, each once. *)
  let start_block t i =
    t.block <- i;
    t.reads_at.(i) <- t.reads.Ibuf.len;
    t.defs_at.(i) <- t.defs.Ibuf.len

  let read t = function
    | Reg r ->
        let k = index t r in
        if t.stamp.(k) <> t.block then Ibuf.push t.reads k
    | Imm _ | Fimm _ | Glob _ | Fref _ -> ()

  let write t (r : reg) =
    let k = index t r in
    t.stamp.(k) <- t.block;
    Ibuf.push t.defs k

  (* The errors of [f], whose every block [t] has recorded; [cfg] is
     [f]'s. *)
  let check t (cfg : cfg) (f : func) : string list =
    let n = Array.length cfg.labels in
    if n = 0 then []
    else begin
      t.reads_at.(n) <- t.reads.Ibuf.len;
      t.defs_at.(n) <- t.defs.Ibuf.len;
      let reachable = Array.make n false in
      let rec visit i =
        if not reachable.(i) then begin
          reachable.(i) <- true;
          List.iter visit cfg.succs.(i)
        end
      in
      visit 0;
      let params = List.map (index t) f.params in
      (* the registers with an exposed read, numbered *)
      let u = Array.make (Array.length t.stamp) (-1) and nu = ref 0 in
      let reads = t.reads.Ibuf.a and defs = t.defs.Ibuf.a in
      for i = 0 to n - 1 do
        if reachable.(i) then
          for j = t.reads_at.(i) to t.reads_at.(i + 1) - 1 do
            if u.(reads.(j)) < 0 then begin
              u.(reads.(j)) <- !nu;
              incr nu
            end
          done
      done;
      if !nu = 0 then []
      else begin
        (* every set is [w] words of a flat array, as in [Regset], over
           those registers: reachable block [i]'s start at word [base.(i)]
           of [gen] (its definitions), [exposed] and [ins] (defined at its
           entry) *)
        let bpw = Regset.bpw in
        let w = (!nu + bpw - 1) / bpw in
        let base = Array.make n (-1) and r = ref 0 in
        for i = 0 to n - 1 do
          if reachable.(i) then begin
            base.(i) <- !r * w;
            incr r
          end
        done;
        let gen = Array.make (!r * w) 0 and exposed = Array.make (!r * w) 0 in
        let ins = Array.make (!r * w) 0 in
        let add (a : int array) at k =
          let x = u.(k) in
          if x >= 0 then a.(at + (x / bpw)) <- a.(at + (x / bpw)) lor (1 lsl (x mod bpw))
        in
        let mem (a : int array) at k =
          let x = u.(k) in
          a.(at + (x / bpw)) land (1 lsl (x mod bpw)) <> 0
        in
        let params_set = Array.make w 0 in
        List.iter (add params_set 0) params;
        let all = Array.copy params_set in
        for i = 0 to n - 1 do
          if reachable.(i) then begin
            let at = base.(i) in
            for j = t.defs_at.(i) to t.defs_at.(i + 1) - 1 do
              add gen at defs.(j)
            done;
            for j = t.reads_at.(i) to t.reads_at.(i + 1) - 1 do
              add exposed at reads.(j)
            done;
            for k = 0 to w - 1 do
              all.(k) <- all.(k) lor gen.(at + k)
            done
          end
        done;
        for i = 0 to n - 1 do
          if reachable.(i) then begin
            let src = if i = 0 then params_set else all in
            for k = 0 to w - 1 do
              ins.(base.(i) + k) <- src.(k)
            done
          end
        done;
        (* meets the exits of the reachable predecessors into [inter];
           [true] when none is reachable *)
        let inter = Array.make w 0 in
        let rec meet_preds first = function
          | [] -> first
          | p :: ps when reachable.(p) ->
              let at = base.(p) in
              for k = 0 to w - 1 do
                let out = ins.(at + k) lor gen.(at + k) in
                inter.(k) <- (if first then out else inter.(k) land out)
              done;
              meet_preds false ps
          | _ :: ps -> meet_preds first ps
        in
        let changed = ref true in
        while !changed do
          changed := false;
          for i = 1 to n - 1 do
            if reachable.(i) then begin
              (* reachable only via entry? conservative *)
              if meet_preds true cfg.preds.(i) then Array.blit params_set 0 inter 0 w;
              let at = base.(i) in
              for k = 0 to w - 1 do
                if inter.(k) <> ins.(at + k) then begin
                  ins.(at + k) <- inter.(k);
                  changed := true
                end
              done
            end
          done
        done;
        (* walk the blocks with a missing exposed read again, stamping
           definitions with [n + i] *)
        let errors = ref [] and at = ref 0 in
        let report what (o : operand) =
          match o with
          | Reg r ->
              let k = index t r in
              if t.stamp.(k) <> n + !at && not (mem ins base.(!at) k) then
                errors :=
                  Printf.sprintf "@%s: %s %%%s reads register #%d before any definition"
                    f.fname what cfg.labels.(!at) r.rid
                  :: !errors
          | Imm _ | Fimm _ | Glob _ | Fref _ -> ()
        in
        let report_in_block = report "block" and report_in_term = report "terminator of" in
        let define (r : reg) = t.stamp.(index t r) <- n + !at in
        let check i =
          iter_operands report_in_block i;
          iter_dest define i
        in
        for i = 0 to n - 1 do
          if reachable.(i) && not (words_subset exposed ins base.(i) w) then begin
            let b = Labels.block cfg.index i in
            at := i;
            List.iter check b.instrs;
            iter_term_operands report_in_term b.term
          end
        done;
        List.rev !errors
      end
    end
end

let verify_defs (f : func) : string list =
  let cfg = build_cfg f in
  let t = Defs.create ~blocks:(Array.length cfg.labels) f in
  let read = Defs.read t and write = Defs.write t in
  let instr i =
    iter_operands read i;
    iter_dest write i
  in
  for i = 0 to Array.length cfg.labels - 1 do
    let b = Labels.block cfg.index i in
    Defs.start_block t i;
    List.iter instr b.instrs;
    iter_term_operands read b.term
  done;
  Defs.check t cfg f

(* ---- liveness ---- *)

type liveness = { live_in : Regset.t array; live_out : Regset.t array }

let liveness (f : func) : liveness =
  let cfg = build_cfg f in
  let n = Array.length cfg.labels in
  let lo, hi = reg_span f in
  let empty () = Regset.create ~lo ~hi in
  (* per-block use (read before any write) and def sets *)
  let use = Array.init n (fun _ -> empty ()) and def = Array.init n (fun _ -> empty ()) in
  let u = ref (empty ()) and d = ref (empty ()) in
  let read = function
    | Reg r -> if not (Regset.mem r.rid !d) then Regset.add r.rid !u
    | Imm _ | Fimm _ | Glob _ | Fref _ -> ()
  in
  let write (r : reg) = Regset.add r.rid !d in
  let scan i =
    iter_operands read i;
    iter_dest write i
  in
  for i = 0 to n - 1 do
    let b = Labels.block cfg.index i in
    u := use.(i);
    d := def.(i);
    List.iter scan b.instrs;
    iter_term_operands read b.term
  done;
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
  let lv = liveness f in
  let peak = ref 0 in
  let live = ref (Regset.create ~lo:0 ~hi:0) and count = ref 0 in
  let kill (r : reg) =
    if Regset.mem r.rid !live then begin
      Regset.remove r.rid !live;
      decr count
    end
  in
  let read = function
    | Reg r ->
        if not (Regset.mem r.rid !live) then begin
          Regset.add r.rid !live;
          incr count
        end
    | Imm _ | Fimm _ | Glob _ | Fref _ -> ()
  in
  List.iteri
    (fun i (_, (b : block)) ->
      (* walk backwards from live-out, keeping the count in step *)
      live := Regset.copy lv.live_out.(i);
      count := Regset.cardinal !live;
      peak := max !peak !count;
      List.iter
        (fun instr ->
          iter_dest kill instr;
          iter_operands read instr;
          peak := max !peak !count)
        (List.rev b.instrs))
    f.blocks;
  !peak

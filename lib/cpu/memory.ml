(** Flat simulated memory with a first-fit allocator.

    One address space is shared by all simulated threads (the memory
    subsystem is assumed ECC-protected and is outside the fault model,
    paper §III-A).  The first page is kept unmapped so that null and
    near-null dereferences trap, which the fault-injection campaign
    classifies as OS-detected crashes. *)

type t = {
  data : Bytes.t;
  size : int;
  mutable static_brk : int;  (** globals region bump pointer *)
  mutable heap_base : int;
  mutable heap_limit : int;  (** heap may not grow past this *)
  mutable free_list : (int * int) list;  (** (addr, len), address-ordered *)
  mutable stack_top : int;
  mutable journal : Bytes.t;
      (** dirty-page bitset (one bit per page); length 0 = tracking off *)
}

exception Fault of int64  (** access outside mapped memory *)

let page = 4096
let page_bits = 12

(* A fresh whole-memory image, zero-filled or copied from [src], written
   in 1 MB steps: one C call over all 64 MB would hold off every other
   domain's stop-the-world minor collection for its whole duration, and
   campaign workers build images while their neighbours run
   deadline-timed experiments. *)
let fresh_image ?src size =
  let b = Bytes.create size in
  let step = 1 lsl 20 in
  let off = ref 0 in
  while !off < size do
    let n = min step (size - !off) in
    (match src with
    | None -> Bytes.fill b !off n '\000'
    | Some s -> Bytes.blit s !off b !off n);
    off := !off + step
  done;
  b

let create ?(size = 1 lsl 26) () =
  {
    data = fresh_image size;
    size;
    static_brk = page;
    heap_base = 0;
    heap_limit = size;
    free_list = [];
    stack_top = size;
    journal = Bytes.empty;
  }

let align16 n = (n + 15) land lnot 15

let check (m : t) (addr : int64) (w : int) =
  let a = Int64.to_int addr in
  if addr < Int64.of_int page || a + w > m.size || a < 0 then raise (Fault addr)

let read (m : t) ~(width : int) (addr : int64) : int64 =
  check m addr width;
  let a = Int64.to_int addr in
  match width with
  | 1 -> Int64.of_int (Bytes.get_uint8 m.data a)
  | 2 -> Int64.of_int (Bytes.get_uint16_le m.data a)
  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le m.data a)) 0xFFFFFFFFL
  | 8 -> Bytes.get_int64_le m.data a
  | _ -> invalid_arg "Memory.read: bad width"

(* Marks the page(s) overlapped by a write.  [check] has already bounded
   the access, so the page indices are in range. *)
let mark_dirty (m : t) (a : int) (w : int) =
  let mark p = Bytes.set_uint8 m.journal (p lsr 3)
      (Bytes.get_uint8 m.journal (p lsr 3) lor (1 lsl (p land 7))) in
  let p0 = a lsr page_bits and p1 = (a + w - 1) lsr page_bits in
  mark p0;
  if p1 <> p0 then mark p1

let write (m : t) ~(width : int) (addr : int64) (v : int64) : unit =
  check m addr width;
  let a = Int64.to_int addr in
  if Bytes.length m.journal > 0 then mark_dirty m a width;
  match width with
  | 1 -> Bytes.set_uint8 m.data a (Int64.to_int v land 0xFF)
  | 2 -> Bytes.set_uint16_le m.data a (Int64.to_int v land 0xFFFF)
  | 4 -> Bytes.set_int32_le m.data a (Int64.to_int32 v)
  | 8 -> Bytes.set_int64_le m.data a v
  | _ -> invalid_arg "Memory.write: bad width"

(* ---- static data (globals), allocated once at load time ---- *)

let alloc_static (m : t) (n : int) : int64 =
  let addr = m.static_brk in
  m.static_brk <- align16 (m.static_brk + n);
  if m.static_brk >= m.size then failwith "Memory.alloc_static: out of memory";
  m.heap_base <- m.static_brk;
  Int64.of_int addr

let blit_string (m : t) (s : string) (addr : int64) =
  check m addr (String.length s);
  if Bytes.length m.journal > 0 && String.length s > 0 then
    mark_dirty m (Int64.to_int addr) (String.length s);
  Bytes.blit_string s 0 m.data (Int64.to_int addr) (String.length s)

(* ---- heap ---- *)

exception Out_of_memory

let heap_init (m : t) ~(stack_reserve : int) =
  if m.heap_base = 0 then m.heap_base <- m.static_brk;
  m.heap_limit <- m.size - stack_reserve;
  if m.heap_limit <= m.heap_base then failwith "Memory.heap_init: globals leave no heap";
  m.free_list <- [ (m.heap_base, m.heap_limit - m.heap_base) ]

let malloc (m : t) (n : int) : int64 =
  let n = align16 (max n 16) in
  let rec take acc = function
    | [] -> raise Out_of_memory
    | (addr, len) :: rest when len >= n ->
        let remainder = if len > n then [ (addr + n, len - n) ] else [] in
        m.free_list <- List.rev_append acc (remainder @ rest);
        Int64.of_int addr
    | chunk :: rest -> take (chunk :: acc) rest
  in
  take [] m.free_list

let free (m : t) (addr : int64) (len : int) : unit =
  let len = align16 (max len 16) in
  let rec insert = function
    | [] -> [ (Int64.to_int addr, len) ]
    | (a, l) :: rest when Int64.to_int addr < a -> (Int64.to_int addr, len) :: (a, l) :: rest
    | chunk :: rest -> chunk :: insert rest
  in
  m.free_list <- insert m.free_list

(* ---- per-thread stacks, carved from the top of memory ---- *)

let alloc_stack (m : t) (n : int) : int64 =
  m.stack_top <- m.stack_top - align16 n;
  if m.stack_top < m.heap_limit then failwith "Memory.alloc_stack: out of stack space";
  Int64.of_int m.stack_top

(* ---- snapshot support (campaign fast-forward) ---- *)

(* Allocator metadata that travels with a snapshot. *)
type meta = {
  mt_static_brk : int;
  mt_heap_base : int;
  mt_heap_limit : int;
  mt_free_list : (int * int) list;
  mt_stack_top : int;
}

let meta (m : t) : meta =
  {
    mt_static_brk = m.static_brk;
    mt_heap_base = m.heap_base;
    mt_heap_limit = m.heap_limit;
    mt_free_list = m.free_list;
    mt_stack_top = m.stack_top;
  }

(* Starts copy-on-write-style page tracking: from here on, every simulated
   store marks its page dirty.  The set is cumulative (never cleared), so
   any later [journal_capture] is a self-contained delta against the image
   taken at this point — dropping intermediate snapshots stays sound. *)
let journal_start (m : t) =
  m.journal <- Bytes.make ((m.size lsr page_bits) / 8 + 1) '\000'

(* Copies of all pages dirtied since [journal_start], sorted by page. *)
let journal_capture (m : t) : (int * Bytes.t) array =
  let pages = ref [] in
  let npages = m.size lsr page_bits in
  for p = npages - 1 downto 0 do
    if Bytes.get_uint8 m.journal (p lsr 3) land (1 lsl (p land 7)) <> 0 then
      pages := (p, Bytes.sub m.data (p lsl page_bits) page) :: !pages
  done;
  Array.of_list !pages

let set_meta (m : t) (mt : meta) =
  m.static_brk <- mt.mt_static_brk;
  m.heap_base <- mt.mt_heap_base;
  m.heap_limit <- mt.mt_heap_limit;
  m.free_list <- mt.mt_free_list;
  m.stack_top <- mt.mt_stack_top

(* Applies a snapshot's page delta, marking the pages dirty: after this,
   the journal is exactly the set of pages that may differ from [base],
   which is what [reimage] needs to revert cheaply. *)
let apply_pages (m : t) (pages : (int * Bytes.t) array) =
  Array.iter
    (fun (p, b) ->
      mark_dirty m (p lsl page_bits) 1;
      Bytes.blit b 0 m.data (p lsl page_bits) (Bytes.length b))
    pages

(* Rebuilds a memory from a base image plus a page delta.  Journaling is
   left on in the clone so the pages the run dirties are known — that is
   what makes [reimage] able to reuse this memory for the next run. *)
let of_image ~(base : Bytes.t) ~(pages : (int * Bytes.t) array) (mt : meta) : t =
  let m =
    {
      data = fresh_image ~src:base (Bytes.length base);
      size = Bytes.length base;
      static_brk = 0;
      heap_base = 0;
      heap_limit = 0;
      free_list = [];
      stack_top = 0;
      journal = Bytes.empty;
    }
  in
  journal_start m;
  apply_pages m pages;
  set_meta m mt;
  m

(* Re-images a memory previously built by [of_image] from the same [base]
   (caller checks identity) into a fresh base+delta state, without copying
   the whole image: only the pages recorded dirty — the previous delta
   plus everything the previous run stored to — are reverted.  This is the
   per-experiment fast path of campaign fast-forward: the full-image copy
   is paid once per (domain, golden run), not once per injection. *)
let reimage (m : t) ~(base : Bytes.t) ~(pages : (int * Bytes.t) array) (mt : meta) : unit =
  let npages = m.size lsr page_bits in
  for byte = 0 to ((npages - 1) lsr 3) do
    let bits = Bytes.get_uint8 m.journal byte in
    if bits <> 0 then begin
      for b = 0 to 7 do
        let p = (byte lsl 3) + b in
        if bits land (1 lsl b) <> 0 && p < npages then
          Bytes.blit base (p lsl page_bits) m.data (p lsl page_bits) page
      done;
      Bytes.set_uint8 m.journal byte 0
    end
  done;
  apply_pages m pages;
  set_meta m mt

(** Paged copy-on-write simulated memory with a first-fit allocator.

    One address space is shared by all simulated threads (the memory
    subsystem is assumed ECC-protected and is outside the fault model,
    paper §III-A).  The first page is kept unmapped so that null and
    near-null dereferences trap, which the fault-injection campaign
    classifies as OS-detected crashes. *)

type t = {
  pages : Bytes.t array;  (** page table: one [page]-byte block per page *)
  owned : Bytes.t;
      (** bitset, one bit per page: set when [pages.(p)] is private to
          this memory and may be written in place *)
  size : int;
  mutable static_brk : int;  (** globals region bump pointer *)
  mutable heap_base : int;
  mutable heap_limit : int;  (** heap may not grow past this *)
  mutable free_list : (int * int) list;  (** (addr, len), address-ordered *)
  mutable stack_top : int;
}

(* A frozen memory: its pages are shared with the memory it was captured
   from and with every memory restored from it, and are never written
   again. *)
type image = t

exception Fault of int64  (** access outside mapped memory *)

let page_bits = 12
let page = 1 lsl page_bits
let page_mask = page - 1

(* Every page no memory has written yet aliases this one; it is never
   owned, so it is never written. *)
let zero_page = Bytes.make page '\000'

let owned_bits size = Bytes.make ((size lsr page_bits) / 8 + 1) '\000'

let create ?(size = 1 lsl 26) () =
  {
    pages = Array.make ((size + page_mask) lsr page_bits) zero_page;
    owned = owned_bits size;
    size;
    static_brk = page;
    heap_base = 0;
    heap_limit = size;
    free_list = [];
    stack_top = size;
  }

let align16 n = (n + 15) land lnot 15

(* [addr, addr + w) must lie in mapped memory.  Compared as [addr >
   size - w], not [addr + w > size]: the sum overflows for an address
   within [w] bytes of the top of the address space, and such an address
   must fault, not reach the page table. *)
let check (m : t) (addr : int64) (w : int) =
  if addr < Int64.of_int page || addr > Int64.of_int (m.size - w) then raise (Fault addr)

(* Gives [m] a private copy of page [p]. *)
let unshare (m : t) (p : int) : Bytes.t =
  let b = Bytes.copy m.pages.(p) in
  m.pages.(p) <- b;
  Bytes.set_uint8 m.owned (p lsr 3) (Bytes.get_uint8 m.owned (p lsr 3) lor (1 lsl (p land 7)));
  b

(* Page [p], writable in place: the first write to a page [m] does not own
   copies it. *)
let[@inline] own (m : t) (p : int) : Bytes.t =
  if Bytes.get_uint8 m.owned (p lsr 3) land (1 lsl (p land 7)) <> 0 then m.pages.(p)
  else unshare m p

let bad_width f = invalid_arg ("Memory." ^ f ^ ": bad width")

(* Accesses that straddle two pages go byte by byte, little-endian. *)
let read_split (m : t) (w : int) (a : int) : int64 =
  if w <> 2 && w <> 4 && w <> 8 then bad_width "read";
  let v = ref 0L in
  for i = w - 1 downto 0 do
    let b = Bytes.get_uint8 m.pages.((a + i) lsr page_bits) ((a + i) land page_mask) in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
  done;
  !v

let write_split (m : t) (w : int) (a : int) (v : int64) : unit =
  if w <> 2 && w <> 4 && w <> 8 then bad_width "write";
  for i = 0 to w - 1 do
    Bytes.set_uint8 (own m ((a + i) lsr page_bits)) ((a + i) land page_mask)
      (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
  done

let read (m : t) ~(width : int) (addr : int64) : int64 =
  check m addr width;
  let a = Int64.to_int addr in
  let off = a land page_mask in
  if off + width > page then read_split m width a
  else
    let b = m.pages.(a lsr page_bits) in
    match width with
    | 1 -> Int64.of_int (Bytes.get_uint8 b off)
    | 2 -> Int64.of_int (Bytes.get_uint16_le b off)
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le b off)) 0xFFFFFFFFL
    | 8 -> Bytes.get_int64_le b off
    | _ -> bad_width "read"

let write (m : t) ~(width : int) (addr : int64) (v : int64) : unit =
  check m addr width;
  let a = Int64.to_int addr in
  let off = a land page_mask in
  if off + width > page then write_split m width a v
  else
    let b = own m (a lsr page_bits) in
    match width with
    | 1 -> Bytes.set_uint8 b off (Int64.to_int v land 0xFF)
    | 2 -> Bytes.set_uint16_le b off (Int64.to_int v land 0xFFFF)
    | 4 -> Bytes.set_int32_le b off (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le b off v
    | _ -> bad_width "write"

(* Calls [f page_bytes page_off pos n] for each page-bounded piece of
   [addr, addr+len), [pos] counting from 0. *)
let iter_pieces (addr : int64) (len : int) f =
  let a = Int64.to_int addr in
  let pos = ref 0 in
  while !pos < len do
    let x = a + !pos in
    let n = min (len - !pos) (page - (x land page_mask)) in
    f (x lsr page_bits) (x land page_mask) !pos n;
    pos := !pos + n
  done

let read_bytes (m : t) (addr : int64) (len : int) : string =
  if len < 0 then raise (Fault addr);
  check m addr (max len 1);
  let out = Bytes.create len in
  iter_pieces addr len (fun p off pos n -> Bytes.blit m.pages.(p) off out pos n);
  Bytes.unsafe_to_string out

(* ---- static data (globals), allocated once at load time ---- *)

let alloc_static (m : t) (n : int) : int64 =
  let addr = m.static_brk in
  m.static_brk <- align16 (m.static_brk + n);
  if m.static_brk >= m.size then failwith "Memory.alloc_static: out of memory";
  m.heap_base <- m.static_brk;
  Int64.of_int addr

let blit_string (m : t) (s : string) (addr : int64) =
  check m addr (String.length s);
  iter_pieces addr (String.length s) (fun p off pos n ->
      Bytes.blit_string s pos (own m p) off n)

(* ---- heap ---- *)

let heap_init (m : t) ~(stack_reserve : int) =
  if m.heap_base = 0 then m.heap_base <- m.static_brk;
  m.heap_limit <- m.size - stack_reserve;
  if m.heap_limit <= m.heap_base then failwith "Memory.heap_init: globals leave no heap";
  m.free_list <- [ (m.heap_base, m.heap_limit - m.heap_base) ]

(* First fit; 0 (NULL) when no free chunk is large enough, as C's. *)
let malloc (m : t) (n : int) : int64 =
  let n = align16 (max n 16) in
  let rec take acc = function
    | [] -> 0L
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
  let top = m.stack_top - align16 n in
  (* a stack reaching into the heap faults, as a real overflow into the
     guard page does *)
  if top < m.heap_limit then raise (Fault (Int64.of_int top));
  m.stack_top <- top;
  Int64.of_int top

(* ---- snapshots (campaign fast-forward) ---- *)

(* The image shares every page with [m]; clearing [m]'s owned bits makes
   [m]'s next write to any of them copy it first. *)
let capture (m : t) : image =
  Bytes.fill m.owned 0 (Bytes.length m.owned) '\000';
  { m with pages = Array.copy m.pages; owned = Bytes.empty }

let of_image (img : image) : t =
  { img with pages = Array.copy img.pages; owned = owned_bits img.size }

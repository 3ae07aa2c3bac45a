(** Simulated memory shared by all threads, with a static region for
    globals, a first-fit heap, and per-thread stacks carved from the top.
    The first page is unmapped so null dereferences trap.

    Memory is a table of 4 KB pages.  A page no one has written aliases a
    shared zero page, so {!create} costs only the table.  Pages are
    copy-on-write: {!capture} shares every page between the memory and the
    frozen {!image} it returns, and {!of_image} starts a memory that
    shares every page with the image.  Either side's first write to a
    shared page copies that page, so an image never changes and a capture
    or a restore costs the table, not the 64 MB address space.

    The paper assumes memory is ECC-protected and outside the fault model
    (§III-A); the expanded taxonomy deliberately breaks that assumption:
    {!Machine}'s [Mem_flip] fault kind flips bits in this memory directly
    (bypassing any undo log), to measure what ELZAR's register-level
    replication cannot catch. *)

type t = private {
  pages : Bytes.t array;
  owned : Bytes.t;
  size : int;
  mutable static_brk : int;
  mutable heap_base : int;
  mutable heap_limit : int;
  mutable free_list : (int * int) list;
  mutable stack_top : int;
}

(** Access outside mapped memory. *)
exception Fault of int64

val page : int

(** All-zero memory of [size] bytes (default 64 MB). *)
val create : ?size:int -> unit -> t

val align16 : int -> int

(** [read m ~width addr] returns the value zero-extended to 64 bits;
    [width] is 1, 2, 4 or 8.
    @raise Fault when [addr, addr+width) is not mapped. *)
val read : t -> width:int -> int64 -> int64

val write : t -> width:int -> int64 -> int64 -> unit

(** [read_bytes m addr len] copies [addr, addr+len) out of memory.
    @raise Fault when the range is not mapped or [len] is negative. *)
val read_bytes : t -> int64 -> int -> string

(** Globals region, allocated once at load time. *)
val alloc_static : t -> int -> int64

val blit_string : t -> string -> int64 -> unit

(** Sets up the heap between the globals and the stack reserve. *)
val heap_init : t -> stack_reserve:int -> unit

(** First-fit heap allocation; returns 0 (NULL) when no free chunk fits. *)
val malloc : t -> int -> int64

val free : t -> int64 -> int -> unit

(** [alloc_stack m n] carves an [n]-byte stack below the previous one.
    @raise Fault (at the would-be stack base) when it would reach the
    heap. *)
val alloc_stack : t -> int -> int64

(** A frozen memory: pages and allocator state, never changed. *)
type image

(** Freezes the current contents and allocator state of [m].  [m] stays
    usable; its pages become shared with the image, so [m]'s next write
    to each of them copies it. *)
val capture : t -> image

(** A fresh memory holding [image]'s contents and allocator state,
    sharing its pages copy-on-write. *)
val of_image : image -> t

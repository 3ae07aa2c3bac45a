(** Types of the ELZAR intermediate representation.

    The IR mirrors the fragment of LLVM that the original ELZAR pass
    manipulates: fixed-width integers, single/double floats, pointers, and
    fixed-length vectors of those ([<n x ty>] in LLVM syntax).  [I1] is the
    boolean type produced by comparisons; [Ptr] is a 64-bit byte address into
    the simulated memory. *)

type scalar =
  | I1
  | I8
  | I16
  | I32
  | I64
  | F32
  | F64
  | Ptr

type t =
  | Scalar of scalar
  | Vector of scalar * int  (** element type and lane count *)

let i1 = Scalar I1
let i8 = Scalar I8
let i16 = Scalar I16
let i32 = Scalar I32
let i64 = Scalar I64
let f32 = Scalar F32
let f64 = Scalar F64
let ptr = Scalar Ptr

(* Logical width in bits of a scalar value. *)
let bits = function
  | I1 -> 1
  | I8 -> 8
  | I16 -> 16
  | I32 -> 32
  | I64 -> 64
  | F32 -> 32
  | F64 -> 64
  | Ptr -> 64

(* Storage footprint in bytes when the value lives in simulated memory. *)
let bytes = function
  | I1 | I8 -> 1
  | I16 -> 2
  | I32 | F32 -> 4
  | I64 | F64 | Ptr -> 8

let is_float = function F32 | F64 -> true | I1 | I8 | I16 | I32 | I64 | Ptr -> false
let is_int = function I1 | I8 | I16 | I32 | I64 | Ptr -> true | F32 | F64 -> false

(* The integer scalar carrying the comparison mask for a given element type:
   AVX compares produce full-width all-ones/all-zeros lanes. *)
let mask_elem = function
  | F32 -> I32
  | F64 | Ptr -> I64
  | (I1 | I8 | I16 | I32 | I64) as s -> s

let elem = function Scalar s -> s | Vector (s, _) -> s
let lanes = function Scalar _ -> 1 | Vector (_, n) -> n
let is_vector = function Vector _ -> true | Scalar _ -> false

(* Number of lanes a 256-bit YMM register holds for an element type.  [I1]
   values are sign-extended to 64 bits inside vectors (the `sext <n x i1> to
   <n x i64>` boilerplate of the paper's Fig. 10), so they count as 64-bit. *)
let ymm_lanes s =
  match s with
  | I1 -> 4
  | I8 -> 32
  | I16 -> 16
  | I32 | F32 -> 8
  | I64 | F64 | Ptr -> 4

(* The YMM vector type ELZAR replicates a scalar into (paper §III-D,
   option 3: fill the whole register). *)
let ymm_of s = match s with I1 -> Vector (I64, 4) | s -> Vector (s, ymm_lanes s)

let equal (a : t) (b : t) =
  match (a, b) with
  | Scalar x, Scalar y -> x == y
  | Vector (x, n), Vector (y, k) -> x == y && n = k
  | Scalar _, Vector _ | Vector _, Scalar _ -> false

let scalar_to_string = function
  | I1 -> "i1"
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | F32 -> "f32"
  | F64 -> "f64"
  | Ptr -> "ptr"

let to_string = function
  | Scalar s -> scalar_to_string s
  | Vector (s, n) -> Printf.sprintf "<%d x %s>" n (scalar_to_string s)

let pp fmt t = Format.pp_print_string fmt (to_string t)

(** Bit-level value semantics.

    Every runtime value is an array of 64-bit lanes: scalars use one lane,
    vectors one lane per element.  Lanes hold the value's raw bits in
    canonical zero-extended form (floats as their IEEE-754 encoding), which
    makes single-bit-flip fault injection a plain [lxor] and keeps integer
    overflow semantics exact for every width.

    Each arithmetic, comparison and cast instruction is described by an
    op descriptor: its op kind plus what its element widths fix once —
    the width mask that canonicalises a result, the shift that
    sign-extends an operand, and whether a float is single precision.
    {!Code.compile} builds one descriptor per instruction.  The boxed
    evaluators here ([binop], [fbinop], [icmp], [fcmp], [cast]) define
    the semantics for the reference interpreter and constant folding;
    the compiled engine in {!Machine} implements the same semantics on
    its own, inline over unboxed lanes, and the engine-equivalence tests
    hold the two to bit-identical results. *)

open Ir

let mask_of_width w = if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

(* Shift that sign-extends the low [w] bits: [(x lsl sh) asr sh]. *)
let sign_shift w = 64 - min w 64

(* Canonical form: the low [w] bits of the value, zero-extended. *)
let canon (s : Types.scalar) (x : int64) = Int64.logand x (mask_of_width (Types.bits s))

(* All-ones mask lane of the element's width (what AVX compares produce). *)
let true_mask (s : Types.scalar) = mask_of_width (Types.bits s)

(* ---- float encode/decode ---- *)

let f32_decode (x : int64) = Int32.float_of_bits (Int64.to_int32 x)
let f32_encode (f : float) = Int64.logand (Int64.of_int32 (Int32.bits_of_float f)) 0xFFFFFFFFL
let f64_decode = Int64.float_of_bits
let f64_encode = Int64.bits_of_float

let fdecode (s : Types.scalar) x =
  match s with
  | Types.F32 -> f32_decode x
  | Types.F64 -> f64_decode x
  | _ -> invalid_arg "Value.fdecode: not a float type"

let fencode (s : Types.scalar) f =
  match s with
  | Types.F32 -> f32_encode f
  | Types.F64 -> f64_encode f
  | _ -> invalid_arg "Value.fencode: not a float type"

exception Division_by_zero

(* ---- op descriptors ---- *)

type binop = {
  bop : Instr.binop;
  bmask : int64;  (** result width mask *)
  bsh : int;  (** operand sign shift *)
}

type fbinop = { fop : Instr.fbinop; fsingle : bool  (** f32 operands and result *) }
type icmp = { icc : Instr.icmp; csh : int  (** operand sign shift *) }
type fcmp = { fcc : Instr.fcmp; csingle : bool  (** f32 operands *) }

type cast = {
  ck : Instr.cast;
  from_sh : int;  (** source sign shift *)
  from_single : bool;  (** f32 source (float casts) *)
  to_mask : int64;  (** destination width mask *)
  to_single : bool;  (** f32 destination (float casts) *)
}

let binop_desc (s : Types.scalar) (op : Instr.binop) : binop =
  { bop = op; bmask = mask_of_width (Types.bits s); bsh = sign_shift (Types.bits s) }

let fbinop_desc (s : Types.scalar) (op : Instr.fbinop) : fbinop =
  { fop = op; fsingle = s = Types.F32 }

let icmp_desc (s : Types.scalar) (cc : Instr.icmp) : icmp =
  { icc = cc; csh = sign_shift (Types.bits s) }

let fcmp_desc (s : Types.scalar) (cc : Instr.fcmp) : fcmp = { fcc = cc; csingle = s = Types.F32 }

let cast_desc (k : Instr.cast) ~(from : Types.scalar) ~(dst : Types.scalar) : cast =
  {
    ck = k;
    from_sh = sign_shift (Types.bits from);
    from_single = from = Types.F32;
    to_mask = mask_of_width (Types.bits dst);
    to_single = dst = Types.F32;
  }

(* ---- the evaluators ---- *)

let sext sh x = Int64.shift_right (Int64.shift_left x sh) sh
let fdec single x = if single then f32_decode x else f64_decode x
let fenc single f = if single then f32_encode f else f64_encode f

(* A signed divisor is zero after sign extension: a flipped bit above
   the operand's width does not make it non-zero. *)
let binop (d : binop) (a : int64) (b : int64) : int64 =
  let c x = Int64.logand x d.bmask in
  match d.bop with
  | Instr.Add -> c (Int64.add a b)
  | Instr.Sub -> c (Int64.sub a b)
  | Instr.Mul -> c (Int64.mul a b)
  | Instr.Sdiv ->
      let b = sext d.bsh b in
      if b = 0L then raise Division_by_zero;
      c (Int64.div (sext d.bsh a) b)
  | Instr.Udiv ->
      if b = 0L then raise Division_by_zero;
      c (Int64.unsigned_div a b)
  | Instr.Srem ->
      let b = sext d.bsh b in
      if b = 0L then raise Division_by_zero;
      c (Int64.rem (sext d.bsh a) b)
  | Instr.Urem ->
      if b = 0L then raise Division_by_zero;
      c (Int64.unsigned_rem a b)
  | Instr.And -> Int64.logand a b
  | Instr.Or -> Int64.logor a b
  | Instr.Xor -> Int64.logxor a b
  | Instr.Shl -> c (Int64.shift_left a (Int64.to_int b land 63))
  | Instr.Lshr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Instr.Ashr -> c (Int64.shift_right (sext d.bsh a) (Int64.to_int b land 63))

let fbinop (d : fbinop) (a : int64) (b : int64) : int64 =
  let x = fdec d.fsingle a and y = fdec d.fsingle b in
  fenc d.fsingle
    (match d.fop with
    | Instr.Fadd -> x +. y
    | Instr.Fsub -> x -. y
    | Instr.Fmul -> x *. y
    | Instr.Fdiv -> x /. y)

let icmp (d : icmp) (a : int64) (b : int64) : bool =
  match d.icc with
  | Instr.Ieq -> a = b
  | Instr.Ine -> a <> b
  | Instr.Islt -> sext d.csh a < sext d.csh b
  | Instr.Isle -> sext d.csh a <= sext d.csh b
  | Instr.Isgt -> sext d.csh a > sext d.csh b
  | Instr.Isge -> sext d.csh a >= sext d.csh b
  | Instr.Iult -> Int64.unsigned_compare a b < 0
  | Instr.Iule -> Int64.unsigned_compare a b <= 0
  | Instr.Iugt -> Int64.unsigned_compare a b > 0
  | Instr.Iuge -> Int64.unsigned_compare a b >= 0

let fcmp (d : fcmp) (a : int64) (b : int64) : bool =
  let x = fdec d.csingle a and y = fdec d.csingle b in
  match d.fcc with
  | Instr.Foeq -> x = y
  | Instr.Fone -> x <> y && not (Float.is_nan x || Float.is_nan y)
  | Instr.Folt -> x < y
  | Instr.Fole -> x <= y
  | Instr.Fogt -> x > y
  | Instr.Foge -> x >= y

let cast (d : cast) (x : int64) : int64 =
  match d.ck with
  | Instr.Trunc | Instr.Bitcast -> Int64.logand x d.to_mask
  | Instr.Zext -> x (* canonical form is already zero-extended *)
  | Instr.Sext -> Int64.logand (sext d.from_sh x) d.to_mask
  | Instr.Fptosi ->
      (* NaN converts to 0; a value outside the int64 range (infinities
         included) to [Int64.min_int], the x86-64 [cvttsd2si] result,
         whatever the host's own conversion gives *)
      let f = fdec d.from_single x in
      let i =
        if Float.is_nan f then 0L
        else if f >= 0x1p63 || f < -0x1p63 then Int64.min_int
        else Int64.of_float f
      in
      Int64.logand i d.to_mask
  | Instr.Sitofp -> fenc d.to_single (Int64.to_float (sext d.from_sh x))
  | Instr.Fpext -> f64_encode (f32_decode x)
  | Instr.Fptrunc -> f32_encode (f64_decode x)

(* Order statistics over host-time samples. *)

(* [percentile p xs] is the [p]-th percentile (0 <= p <= 100) of [xs] by
   linear interpolation between closest ranks (the "R-7" rule, as numpy's
   default): the sorted sample at fractional rank (n - 1) * p / 100.
   @raise Invalid_argument on an empty sample or a [p] outside [0, 100]. *)
let percentile (p : float) (xs : float list) : float =
  if xs = [] then invalid_arg "Stats.percentile: empty sample";
  if not (p >= 0.0 && p <= 100.0) then invalid_arg "Stats.percentile: p outside [0, 100]";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let h = float_of_int (n - 1) *. p /. 100.0 in
  let lo = truncate h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50.0 xs

let mean xs =
  if xs = [] then invalid_arg "Stats.mean: empty sample";
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Geometric mean of positive ratios. *)
let gmean xs =
  if xs = [] then invalid_arg "Stats.gmean: empty sample";
  exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

type t = { n : int; d : int }

exception Overflow = Xutil.Overflow

exception Division_by_zero

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let mul_check = Xutil.checked_mul
let add_check = Xutil.checked_add

let make n d =
  if d = 0 then raise Division_by_zero
  else begin
    (* [min_int] has no native negation: a sign flip would wrap, and
       normalization's gcd walk turns its negative remainders into a
       negative divisor.  Reject the boundary value outright; past
       this test both flips below are exact. *)
    if n = min_int || d = min_int then raise Overflow;
    let n = if d < 0 then -n else n and d = abs d in
    let g = gcd (abs n) d in
    { n = n / g; d = d / g }
  end

let of_int n = { n; d = 1 }
let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)
let num t = t.n
let den t = t.d

(* A result numerator of [min_int] is rejected, as [make] would. *)
let of_num n = if n = min_int then raise Overflow else { n; d = 1 }

(* Knuth's addition (TAOCP 4.5.1): with g = gcd(a.d, b.d), the
   numerator t = a.n*(b.d/g) + b.n*(a.d/g) is coprime to both a.d/g
   and b.d/g (each operand is in lowest terms), so the sum reduces by
   gcd(t, g) alone.  [Overflow] is raised when a cross product, t or
   the unreduced denominator a.d*b.d/g leaves the int range, or when
   t is [min_int]. *)
let add a b =
  if a.d = 1 && b.d = 1 then of_num (add_check a.n b.n)
  else
    let g = gcd a.d b.d in
    let da = a.d / g and db = b.d / g in
    let t = add_check (mul_check a.n db) (mul_check b.n da) in
    let d = mul_check (mul_check da db) g in
    if t = min_int then raise Overflow
    else if t = 0 then zero
    else
      let g = gcd (abs t) g in
      { n = t / g; d = d / g }

let neg a = if a.n = min_int then raise Overflow else { a with n = -a.n }
let sub a b = add a (neg b)

let mul a b =
  if a.d = 1 && b.d = 1 then of_num (mul_check a.n b.n)
  else if a.n = 0 || b.n = 0 then zero
  else
    (* Cross-reduce before multiplying to keep intermediates small.
       The reduced factors are pairwise coprime, so the product is
       already in lowest terms.  A [min_int] operand can make a gcd
       negative, and so the denominator; that case, like a [min_int]
       numerator, goes through [make]. *)
    let g1 = gcd (abs a.n) b.d and g2 = gcd (abs b.n) a.d in
    let n = mul_check (a.n / g1) (b.n / g2) in
    let d = mul_check (a.d / g2) (b.d / g1) in
    if d > 0 && n <> min_int then { n; d } else make n d

let inv a = if a.n = 0 then raise Division_by_zero else make a.d a.n
let div a b = mul a (inv b)
let abs a =
  if a.n = min_int then raise Overflow else { a with n = Stdlib.abs a.n }

let compare a b =
  (* Compare via subtraction sign; exact because [sub] is exact. *)
  match sub a b with { n; _ } -> Stdlib.compare n 0

let equal a b = a.n = b.n && a.d = b.d
let sign a = Stdlib.compare a.n 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let is_integer a = a.d = 1

let floor a =
  if a.n >= 0 then a.n / a.d
  else
    let q = a.n / a.d in
    if Stdlib.( = ) (a.n mod a.d) 0 then q else Stdlib.( - ) q 1

let ceil a = Stdlib.( ~- ) (floor (neg a))
let to_float a = float_of_int a.n /. float_of_int a.d

let of_float_approx ?(max_den = 1_000_000) x =
  if Float.is_nan x || Float.is_integer x then of_int (int_of_float x)
  else begin
    (* Stern-Brocot style continued-fraction convergents. *)
    let neg_input = Stdlib.( < ) x 0.0 in
    let x = Float.abs x in
    let rec go x (p0, q0) (p1, q1) depth =
      let a = int_of_float (Float.floor x) in
      let p2 = add_check (mul_check a p1) p0
      and q2 = add_check (mul_check a q1) q0 in
      if q2 > max_den || depth > 40 then (p1, q1)
      else
        let frac = x -. Float.of_int a in
        if Stdlib.( < ) frac 1e-12 then (p2, q2)
        else go (1.0 /. frac) (p1, q1) (p2, q2) (Stdlib.( + ) depth 1)
    in
    let p, q = go x (0, 1) (1, 0) 0 in
    let q = if q = 0 then 1 else q in
    make (if neg_input then Stdlib.( ~- ) p else p) q
  end

let pp fmt a =
  if a.d = 1 then Format.fprintf fmt "%d" a.n
  else Format.fprintf fmt "%d/%d" a.n a.d

let to_string a = Format.asprintf "%a" pp a

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( = ) = equal
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( > ) a b = Stdlib.( > ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0

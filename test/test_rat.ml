module Rat = Dsp_util.Rat

let rat_arb =
  QCheck.make
    ~print:(fun r -> Rat.to_string r)
    QCheck.Gen.(
      let* n = int_range (-1000) 1000 in
      let* d = int_range 1 1000 in
      return (Rat.make n d))

let check_rat = Alcotest.testable Rat.pp Rat.equal

(* Rationals near the native-int boundaries: integers (min_int
   included, which only [of_int] admits) and fractions whose parts
   come from the same boundary draws. *)
let boundary_rat_arb =
  let open QCheck.Gen in
  let frac =
    let* n = Helpers.boundary_int_gen and* d = Helpers.boundary_int_gen in
    let n = if n = min_int then max_int else n in
    let d = if d = 0 || d = min_int then 1 else Stdlib.abs d in
    return (Rat.make n d)
  in
  QCheck.make ~print:Rat.to_string
    (oneof [ map Rat.of_int Helpers.boundary_int_gen; frac; QCheck.gen rat_arb ])

(* Rat's arithmetic as it stood before its fast paths, over
   (numerator, denominator) pairs: every operation normalises through
   [make], and products go through the division-checked multiply. *)
module Before = struct
  let checked_add a b =
    let s = a + b in
    if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then
      raise Rat.Overflow
    else s

  let checked_mul a b =
    if a = 0 || b = 0 then 0
    else
      let p = a * b in
      if p / b <> a then raise Rat.Overflow else p

  let rec gcd a b = if b = 0 then a else gcd b (a mod b)

  let make n d =
    let s = if d < 0 then -1 else 1 in
    if n = min_int || d = min_int then raise Rat.Overflow;
    let n = checked_mul s n and d = checked_mul s d in
    let g = gcd (abs n) d in
    if g = 0 then (0, 1) else (n / g, d / g)

  let add (an, ad) (bn, bd) =
    let g = gcd ad bd in
    let da = ad / g and db = bd / g in
    let n = checked_add (checked_mul an db) (checked_mul bn da) in
    make n (checked_mul (checked_mul da db) g)

  let neg (n, d) = if n = min_int then raise Rat.Overflow else (-n, d)
  let sub a b = add a (neg b)

  let mul (an, ad) (bn, bd) =
    let g1 = gcd (abs an) bd and g2 = gcd (abs bn) ad in
    let g1 = if g1 = 0 then 1 else g1 and g2 = if g2 = 0 then 1 else g2 in
    make (checked_mul (an / g1) (bn / g2)) (checked_mul (ad / g2) (bd / g1))
end

(* [Ok] with the result, or [Error ()] when it raised Overflow. *)
let outcome f = match f () with r -> Ok r | exception Rat.Overflow -> Error ()
let parts r = (Rat.num r, Rat.den r)

let agrees_with_before op before (a, b) =
  outcome (fun () -> parts (op a b)) = outcome (fun () -> before (parts a) (parts b))

let unit_tests =
  [
    Alcotest.test_case "normalization" `Quick (fun () ->
        Alcotest.check check_rat "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
        Alcotest.check check_rat "neg den" (Rat.make (-1) 2) (Rat.make 1 (-2));
        Alcotest.check Alcotest.int "num" 3 (Rat.num (Rat.make 6 4));
        Alcotest.check Alcotest.int "den" 2 (Rat.den (Rat.make 6 4)));
    Alcotest.test_case "zero denominator rejected" `Quick (fun () ->
        Alcotest.check_raises "div by zero" Rat.Division_by_zero (fun () ->
            ignore (Rat.make 1 0)));
    Alcotest.test_case "floor and ceil" `Quick (fun () ->
        Alcotest.check Alcotest.int "floor 7/2" 3 (Rat.floor (Rat.make 7 2));
        Alcotest.check Alcotest.int "ceil 7/2" 4 (Rat.ceil (Rat.make 7 2));
        Alcotest.check Alcotest.int "floor -7/2" (-4) (Rat.floor (Rat.make (-7) 2));
        Alcotest.check Alcotest.int "ceil -7/2" (-3) (Rat.ceil (Rat.make (-7) 2));
        Alcotest.check Alcotest.int "floor 4" 4 (Rat.floor (Rat.of_int 4)));
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        let a = Rat.make 1 3 and b = Rat.make 1 6 in
        Alcotest.check check_rat "1/3+1/6" (Rat.make 1 2) (Rat.add a b);
        Alcotest.check check_rat "1/3-1/6" (Rat.make 1 6) (Rat.sub a b);
        Alcotest.check check_rat "1/3*1/6" (Rat.make 1 18) (Rat.mul a b);
        Alcotest.check check_rat "1/3 / 1/6" (Rat.of_int 2) (Rat.div a b));
    Alcotest.test_case "of_float_approx" `Quick (fun () ->
        Alcotest.check check_rat "0.5" (Rat.make 1 2) (Rat.of_float_approx 0.5);
        Alcotest.check check_rat "0.25" (Rat.make 1 4) (Rat.of_float_approx 0.25);
        Alcotest.check check_rat "2.0" (Rat.of_int 2) (Rat.of_float_approx 2.0));
    Alcotest.test_case "overflow detected" `Quick (fun () ->
        let big = Rat.make max_int 1 in
        Alcotest.check_raises "mul overflow" Rat.Overflow (fun () ->
            ignore (Rat.mul big big)));
    Alcotest.test_case "int boundary: additions raise, never wrap" `Quick
      (fun () ->
        let top = Rat.of_int max_int in
        Alcotest.check_raises "max_int + 1" Rat.Overflow (fun () ->
            ignore (Rat.add top Rat.one));
        Alcotest.check_raises "sub below min_int" Rat.Overflow (fun () ->
            ignore (Rat.sub (Rat.of_int (-max_int)) (Rat.of_int 2)));
        (* Exactly representable boundary results must still work. *)
        Alcotest.check check_rat "max_int - 1 + 1"
          top
          (Rat.add (Rat.of_int (max_int - 1)) Rat.one);
        Alcotest.check check_rat "cross-reduction avoids the blowup"
          Rat.one
          (Rat.mul (Rat.make max_int 1) (Rat.make 1 max_int)));
    Alcotest.test_case "int boundary: min_int has no negation" `Quick
      (fun () ->
        let bottom = Rat.of_int min_int in
        Alcotest.check_raises "neg min_int" Rat.Overflow (fun () ->
            ignore (Rat.neg bottom));
        Alcotest.check_raises "abs min_int" Rat.Overflow (fun () ->
            ignore (Rat.abs bottom));
        Alcotest.check_raises "make with min_int numerator" Rat.Overflow
          (fun () -> ignore (Rat.make min_int 3));
        Alcotest.check_raises "make with min_int denominator" Rat.Overflow
          (fun () -> ignore (Rat.make 1 min_int));
        (* compare goes through sub, so comparing against min_int can
           itself overflow — documented behavior, not a wrap. *)
        Alcotest.check_raises "compare overflows loudly" Rat.Overflow
          (fun () -> ignore (Rat.compare (Rat.of_int max_int) bottom)));
    Alcotest.test_case "int boundary: a min_int result raises" `Quick
      (fun () ->
        let p31 = Rat.of_int (1 lsl 31) in
        Alcotest.check_raises "-(2^31) * 2^31" Rat.Overflow (fun () ->
            ignore (Rat.mul (Rat.neg p31) p31));
        Alcotest.check_raises "-max_int - 1" Rat.Overflow (fun () ->
            ignore (Rat.sub (Rat.of_int (-max_int)) Rat.one));
        Alcotest.check_raises "-max_int + -1" Rat.Overflow (fun () ->
            ignore (Rat.add (Rat.of_int (-max_int)) Rat.minus_one));
        Alcotest.check_raises "min_int + 0" Rat.Overflow (fun () ->
            ignore (Rat.add (Rat.of_int min_int) Rat.zero));
        Alcotest.check_raises "min_int * 1" Rat.Overflow (fun () ->
            ignore (Rat.mul (Rat.of_int min_int) Rat.one));
        Alcotest.check_raises "-(2^31)/3 * 3 * 2^31" Rat.Overflow (fun () ->
            ignore
              (Rat.mul (Rat.make (-(1 lsl 31)) 3) (Rat.of_int (3 * (1 lsl 31)))));
        Alcotest.check_raises "-(2^62 - 1)/2 - 1/2" Rat.Overflow (fun () ->
            ignore (Rat.sub (Rat.make (-max_int) 2) (Rat.make 1 2)));
        Alcotest.check check_rat "2^30 * 2^30 is exact"
          (Rat.of_int (1 lsl 60))
          (Rat.mul (Rat.of_int (1 lsl 30)) (Rat.of_int (1 lsl 30))));
  ]

let property_tests =
  [
    Helpers.qtest ~count:2000 "add at the int boundary matches the old formula"
      (QCheck.pair boundary_rat_arb boundary_rat_arb)
      (agrees_with_before Rat.add Before.add);
    Helpers.qtest ~count:2000 "sub at the int boundary matches the old formula"
      (QCheck.pair boundary_rat_arb boundary_rat_arb)
      (agrees_with_before Rat.sub Before.sub);
    Helpers.qtest ~count:2000 "mul at the int boundary matches the old formula"
      (QCheck.pair boundary_rat_arb boundary_rat_arb)
      (agrees_with_before Rat.mul Before.mul);
    Helpers.qtest "add commutative" (QCheck.pair rat_arb rat_arb) (fun (a, b) ->
        Rat.equal (Rat.add a b) (Rat.add b a));
    Helpers.qtest "mul commutative" (QCheck.pair rat_arb rat_arb) (fun (a, b) ->
        Rat.equal (Rat.mul a b) (Rat.mul b a));
    Helpers.qtest "add associative"
      (QCheck.triple rat_arb rat_arb rat_arb)
      (fun (a, b, c) ->
        Rat.equal (Rat.add a (Rat.add b c)) (Rat.add (Rat.add a b) c));
    Helpers.qtest "distributivity"
      (QCheck.triple rat_arb rat_arb rat_arb)
      (fun (a, b, c) ->
        Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)));
    Helpers.qtest "sub then add roundtrip" (QCheck.pair rat_arb rat_arb)
      (fun (a, b) -> Rat.equal a (Rat.add (Rat.sub a b) b));
    Helpers.qtest "inv involutive" rat_arb (fun a ->
        QCheck.assume (Rat.sign a <> 0);
        Rat.equal a (Rat.inv (Rat.inv a)));
    Helpers.qtest "floor <= x < floor+1" rat_arb (fun a ->
        let f = Rat.floor a in
        let f1 = f + 1 in
        Rat.(of_int f <= a) && Rat.(a < of_int f1));
    Helpers.qtest "ceil is -floor(-x)" rat_arb (fun a ->
        Rat.ceil a = -Rat.floor (Rat.neg a));
    Helpers.qtest "compare antisymmetric" (QCheck.pair rat_arb rat_arb)
      (fun (a, b) -> Rat.compare a b = -Rat.compare b a);
    Helpers.qtest "to_float consistent with compare"
      (QCheck.pair rat_arb rat_arb) (fun (a, b) ->
        if Rat.compare a b < 0 then Rat.to_float a <= Rat.to_float b else true);
  ]

let suite = unit_tests @ property_tests

(* Differential tests for the segment-tree packing kernel: the
   segtree-backed Profile must agree with the flat-array
   Profile.Naive reference on every operation, and every kernel query
   (range_max / max_all / first_fit_from / best_start /
   find_last_above, with their sentinel forms) must agree with direct
   linear scans of a plain load array. *)

open Dsp_core
module Rng = Dsp_util.Rng

(* ---- randomized operation streams against the naive reference ---- *)

(* Drives both implementations with the same interleaved stream of
   add / peak / peak_in / load operations.  Sized to satisfy the
   acceptance bar explicitly: >= 20 random instances, >= 1000
   randomized operations each. *)
let differential_stream () =
  let instances = 24 and ops_per_instance = 1200 in
  for i = 1 to instances do
    let rng = Rng.create (9_000 + i) in
    let width = Rng.int_in rng 1 120 in
    let p = Profile.create width in
    let q = Profile.Naive.create width in
    for op = 1 to ops_per_instance do
      match Rng.int rng 4 with
      | 0 ->
          let start = Rng.int rng width in
          let len = Rng.int rng (width - start + 1) in
          let height = Rng.int_in rng (-4) 8 in
          Profile.add p ~start ~len ~height;
          Profile.Naive.add q ~start ~len ~height
      | 1 ->
          if Profile.peak p <> Profile.Naive.peak q then
            Alcotest.failf "instance %d op %d: peak %d <> naive %d" i op
              (Profile.peak p) (Profile.Naive.peak q)
      | 2 ->
          let start = Rng.int rng width in
          let len = Rng.int rng (width - start + 1) in
          let a = Profile.peak_in p ~start ~len in
          let b = Profile.Naive.peak_in q ~start ~len in
          if a <> b then
            Alcotest.failf "instance %d op %d: peak_in [%d,%d) %d <> naive %d" i
              op start (start + len) a b
      | _ ->
          let x = Rng.int rng width in
          if Profile.load p x <> Profile.Naive.load q x then
            Alcotest.failf "instance %d op %d: load %d differs" i op x
    done;
    if Profile.to_array p <> Profile.Naive.to_array q then
      Alcotest.failf "instance %d: final arrays differ" i
  done

let of_starts_differential () =
  for i = 1 to 20 do
    let rng = Rng.create (17_000 + i) in
    let width = 4 + Rng.int rng 40 in
    let inst =
      Dsp_instance.Generators.uniform rng ~n:(5 + Rng.int rng 30) ~width
        ~max_w:(min 6 width) ~max_h:9
    in
    let starts =
      Array.map
        (fun (it : Item.t) -> Rng.int rng (inst.Instance.width - it.Item.w + 1))
        inst.Instance.items
    in
    let p = Profile.of_starts inst starts in
    let q = Profile.Naive.of_starts inst starts in
    if Profile.to_array p <> Profile.Naive.to_array q then
      Alcotest.failf "of_starts instance %d: arrays differ" i
  done

(* ---- kernel queries vs linear scans ---- *)

(* Random nonneg load arrays like the placement algorithms produce,
   plus occasional negative adds to stress the general case. *)
let loads_arb =
  QCheck.make
    ~print:(fun (w, ops) ->
      Printf.sprintf "width=%d ops=%s" w
        (String.concat ";"
           (List.map (fun (s, l, h) -> Printf.sprintf "(%d,%d,%d)" s l h) ops)))
    QCheck.Gen.(
      let* width = int_range 1 50 in
      let* n = int_range 0 25 in
      let* ops =
        list_repeat n
          (let* s = int_range 0 (width - 1) in
           let* l = int_range 0 (width - s) in
           let* h = int_range (-3) 9 in
           return (s, l, h))
      in
      return (width, ops))

let build width ops =
  let t = Segtree.create width in
  let a = Array.make width 0 in
  List.iter
    (fun (s, l, h) ->
      Segtree.range_add t ~lo:s ~hi:(s + l) h;
      for x = s to s + l - 1 do
        a.(x) <- a.(x) + h
      done)
    ops;
  (t, a)

let window_max a s len =
  let m = ref min_int in
  for x = s to s + len - 1 do
    if a.(x) > !m then m := a.(x)
  done;
  !m

let scan_first_fit a ~from ~len ~height ~limit =
  let width = Array.length a in
  let rec go s =
    if s + len > width then None
    else if window_max a s len + height <= limit then Some s
    else go (s + 1)
  in
  if len < 1 || len > width then None else go (max 0 from)

let scan_last_above a ~lo ~hi thr =
  let r = ref None in
  for x = lo to hi - 1 do
    if a.(x) > thr then r := Some x
  done;
  !r

(* Leftmost start minimizing the window max, with that max. *)
let scan_best_start a len =
  let width = Array.length a in
  if len > width then None
  else begin
    let best = ref (-1) and best_peak = ref max_int in
    for s = 0 to width - len do
      let m = window_max a s len in
      if m < !best_peak then begin
        best_peak := m;
        best := s
      end
    done;
    Some (!best, !best_peak)
  end

let query_arb =
  QCheck.make
    ~print:(fun ((w, ops), (from, len, height, limit)) ->
      Printf.sprintf "width=%d |ops|=%d from=%d len=%d h=%d limit=%d" w
        (List.length ops) from len height limit)
    QCheck.Gen.(
      let* (width, ops) = QCheck.gen loads_arb in
      let* from = int_range 0 width in
      let* len = int_range 1 (width + 1) in
      let* height = int_range 0 8 in
      let* limit = int_range 0 30 in
      return ((width, ops), (from, len, height, limit)))

(* ---- kernel vs linear scans on one op stream ---- *)

(* The kernel and a plain load array take the same randomized stream
   of range adds; every query on the full surface, including the
   sentinel variants the hot loops use, must match a linear scan of
   the array. *)
let kernel_vs_scans_stream () =
  let instances = 24 and ops_per_instance = 800 in
  for i = 1 to instances do
    let rng = Rng.create (31_000 + i) in
    let width = Rng.int_in rng 1 150 in
    let t = Segtree.create width in
    let a = Array.make width 0 in
    for op = 1 to ops_per_instance do
      match Rng.int rng 6 with
      | 0 ->
          let lo = Rng.int rng width in
          let hi = lo + Rng.int rng (width - lo + 1) in
          let h = Rng.int_in rng (-5) 9 in
          Segtree.range_add t ~lo ~hi h;
          for x = lo to hi - 1 do
            a.(x) <- a.(x) + h
          done
      | 1 ->
          let lo = Rng.int rng width in
          let hi = lo + Rng.int rng (width - lo + 1) in
          let x = Segtree.range_max t ~lo ~hi in
          let y = if lo = hi then 0 else window_max a lo (hi - lo) in
          if x <> y then
            Alcotest.failf "instance %d op %d: range_max [%d,%d) %d <> scan %d"
              i op lo hi x y
      | 2 ->
          let lo = Rng.int rng width in
          let hi = lo + Rng.int rng (width - lo + 1) in
          let thr = Rng.int_in rng (-10) 20 in
          let y = scan_last_above a ~lo ~hi thr in
          if Segtree.find_last_above t ~lo ~hi thr <> y then
            Alcotest.failf "instance %d op %d: find_last_above differs" i op;
          if Segtree.find_last_above_i t ~lo ~hi thr
             <> Option.value y ~default:(-1)
          then Alcotest.failf "instance %d op %d: _i sentinel differs" i op
      | 3 ->
          let from = Rng.int rng (width + 1) in
          let len = 1 + Rng.int rng width in
          let height = Rng.int rng 8 in
          let limit = Rng.int_in rng (-5) 25 in
          let y = scan_first_fit a ~from ~len ~height ~limit in
          if Segtree.first_fit_from t ~from ~len ~height ~limit <> y then
            Alcotest.failf "instance %d op %d: first_fit_from differs" i op;
          if Segtree.first_fit_from_i t ~from ~len ~height ~limit
             <> Option.value y ~default:(-1)
          then Alcotest.failf "instance %d op %d: _i sentinel differs" i op
      | 4 ->
          let len = 1 + Rng.int rng (width + 1) in
          if Segtree.best_start t ~len <> scan_best_start a len then
            Alcotest.failf "instance %d op %d: best_start differs" i op
      | _ ->
          if Segtree.max_all t <> Array.fold_left max min_int a then
            Alcotest.failf "instance %d op %d: max_all differs" i op
    done;
    if Segtree.to_array t <> a then
      Alcotest.failf "instance %d: final arrays differ" i
  done

(* ---- add/remove inverses across the kernel and its oracle ---- *)

(* Range adds commute, so removing a set of placements in any order
   must return every structure to its pre-placement state.  Drives the
   kernel, the segtree Profile, and the naive reference with the same
   stream. *)
let add_remove_inverse () =
  for i = 1 to 20 do
    let rng = Rng.create (51_000 + i) in
    let width = Rng.int_in rng 1 80 in
    let t = Segtree.create width in
    let p = Profile.create width and q = Profile.Naive.create width in
    let n = Rng.int_in rng 1 40 in
    let ops =
      Array.init n (fun _ ->
          let s = Rng.int rng width in
          let l = Rng.int rng (width - s + 1) in
          let h = Rng.int_in rng 0 9 in
          (s, l, h))
    in
    let apply sign (s, l, h) =
      Segtree.range_add t ~lo:s ~hi:(s + l) (sign * h);
      Profile.add p ~start:s ~len:l ~height:(sign * h);
      Profile.Naive.add q ~start:s ~len:l ~height:(sign * h)
    in
    Array.iter (apply 1) ops;
    Rng.shuffle rng ops;
    Array.iter (apply (-1)) ops;
    let zeros = Array.to_list (Array.make width 0) in
    Alcotest.(check (list int))
      (Printf.sprintf "instance %d: flat cancels" i)
      zeros
      (Array.to_list (Segtree.to_array t));
    Alcotest.(check (list int))
      (Printf.sprintf "instance %d: profile cancels" i)
      zeros
      (Array.to_list (Profile.to_array p));
    Alcotest.(check (list int))
      (Printf.sprintf "instance %d: naive cancels" i)
      zeros
      (Array.to_list (Profile.Naive.to_array q));
    Alcotest.(check int)
      (Printf.sprintf "instance %d: peak back to zero" i)
      0 (Profile.peak p)
  done

(* Item-level inverse: add_item / remove_item on a non-empty base
   state restores the exact base profile, removals in shuffled
   order. *)
let item_add_remove_inverse () =
  for i = 1 to 20 do
    let rng = Rng.create (53_000 + i) in
    let width = Rng.int_in rng 2 60 in
    let p = Profile.create width in
    for _ = 1 to Rng.int rng 10 do
      let s = Rng.int rng width in
      let l = Rng.int rng (width - s + 1) in
      Profile.add p ~start:s ~len:l ~height:(Rng.int rng 6)
    done;
    let base = Array.copy (Profile.to_array p) in
    let items =
      Array.init
        (Rng.int_in rng 1 25)
        (fun id ->
          let w = Rng.int_in rng 1 width in
          let it = Item.make ~id ~w ~h:(Rng.int_in rng 1 9) in
          (it, Rng.int rng (width - w + 1)))
    in
    Array.iter (fun (it, s) -> Profile.add_item p it ~start:s) items;
    Rng.shuffle rng items;
    Array.iter (fun (it, s) -> Profile.remove_item p it ~start:s) items;
    Alcotest.(check (list int))
      (Printf.sprintf "instance %d: items cancel over base" i)
      (Array.to_list base)
      (Array.to_list (Profile.to_array p))
  done

(* ---- checkpoint / rollback journal ---- *)

let snap t = Array.copy (Segtree.to_array t)

let random_adds rng t width n =
  for _ = 1 to n do
    let lo = Rng.int rng width in
    let hi = lo + Rng.int rng (width - lo + 1) in
    Segtree.range_add t ~lo ~hi (Rng.int_in rng (-4) 9)
  done

(* Nested checkpoints under the LIFO discipline: each rollback must
   restore the exact array state at its checkpoint; a commit keeps the
   state and, at depth 0, drains the journal.  The query surface is
   cross-checked against scans of the final array, because rollback
   goes through the same lazy-add path as forward updates. *)
let checkpoint_rollback_nested () =
  for i = 1 to 24 do
    let rng = Rng.create (52_000 + i) in
    let width = Rng.int_in rng 1 100 in
    let t = Segtree.create width in
    random_adds rng t width (Rng.int rng 25);
    let s0 = snap t in
    let m0 = Segtree.checkpoint t in
    random_adds rng t width 10;
    let s1 = snap t in
    let m1 = Segtree.checkpoint t in
    random_adds rng t width 10;
    Segtree.rollback t m1;
    Alcotest.(check (list int))
      (Printf.sprintf "instance %d: inner rollback restores" i)
      (Array.to_list s1)
      (Array.to_list (snap t));
    random_adds rng t width 5;
    Segtree.rollback t m0;
    Alcotest.(check (list int))
      (Printf.sprintf "instance %d: outer rollback restores" i)
      (Array.to_list s0)
      (Array.to_list (snap t));
    (* Commit path: the journalled state survives and queries agree
       with scans of the final array. *)
    let m = Segtree.checkpoint t in
    random_adds rng t width 8;
    let s2 = snap t in
    Segtree.commit t m;
    Alcotest.(check (list int))
      (Printf.sprintf "instance %d: commit keeps state" i)
      (Array.to_list s2)
      (Array.to_list (snap t));
    Alcotest.(check bool)
      (Printf.sprintf "instance %d: queries agree after journal churn" i)
      true
      (Segtree.max_all t = Array.fold_left max min_int s2
      && Segtree.best_start t ~len:1 = scan_best_start s2 1)
  done

let checkpoint_discipline () =
  let t = Segtree.create 8 in
  let raises f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "rollback without checkpoint rejected" true
    (raises (fun () -> Segtree.rollback t 0));
  Alcotest.(check bool) "commit without checkpoint rejected" true
    (raises (fun () -> Segtree.commit t 0));
  let m = Segtree.checkpoint t in
  Segtree.range_add t ~lo:1 ~hi:5 3;
  Alcotest.(check bool) "bad mark rejected" true
    (raises (fun () -> Segtree.rollback t 1));
  Segtree.rollback t m;
  Alcotest.(check (list int))
    "clean after discipline churn"
    (Array.to_list (Array.make 8 0))
    (Array.to_list (Segtree.to_array t));
  (* [copy] carries the open journal: rolling back the copy must not
     disturb the source. *)
  let m = Segtree.checkpoint t in
  Segtree.range_add t ~lo:0 ~hi:8 2;
  let c = Segtree.copy t in
  Segtree.rollback c m;
  Alcotest.(check int) "copy rolled back" 0 (Segtree.max_all c);
  Alcotest.(check int) "source untouched" 2 (Segtree.max_all t);
  Segtree.commit t m;
  (* [reset] clears values and journal state in place. *)
  let m = Segtree.checkpoint t in
  Segtree.range_add t ~lo:2 ~hi:6 9;
  ignore m;
  Segtree.reset t;
  Alcotest.(check int) "reset clears values" 0 (Segtree.max_all t);
  Alcotest.(check bool) "reset clears outstanding checkpoints" true
    (raises (fun () -> Segtree.rollback t 0))

(* ---- int-boundary and overflow-guard cases ---- *)

(* The kernel's O(1) root guard: a positive range_add that would push
   the running maximum past max_int raises Xutil.Overflow and leaves
   further behaviour to the caller.  Profile.Naive checks per column
   instead, so it is no reference here: the tree must simply come back
   exactly as it was before the refused add. *)
let overflow_guard_cases () =
  let huge = max_int - 10 in
  let raises f =
    match f () with
    | () -> false
    | exception Dsp_util.Xutil.Overflow -> true
  in
  let t = Segtree.create 8 in
  Segtree.range_add t ~lo:2 ~hi:6 huge;
  Alcotest.(check int) "flat carries the near-max value" huge (Segtree.get t 3);
  let before = Segtree.to_array t in
  Alcotest.(check bool) "flat guard trips" true
    (raises (fun () -> Segtree.range_add t ~lo:0 ~hi:8 100));
  (* A trip must not corrupt the structure: the guard fires before any
     cell is touched. *)
  Alcotest.(check int) "flat intact after trip" huge (Segtree.get t 3);
  Alcotest.(check (list int))
    "flat equals its pre-trip snapshot"
    (Array.to_list before)
    (Array.to_list (Segtree.to_array t));
  (* Negative adds cannot raise the maximum, so they pass the guard
     even at the boundary. *)
  Segtree.range_add t ~lo:0 ~hi:8 (-5);
  Alcotest.(check int) "negative add applies" (huge - 5) (Segtree.get t 3);
  (* Saturating threshold: limit = max_int with a positive height must
     not wrap into rejecting everything. *)
  Alcotest.(check (option int))
    "max_int budget admits start 0" (Some 0)
    (Segtree.first_fit_from t ~from:0 ~len:8 ~height:3 ~limit:max_int);
  Alcotest.(check (option int))
    "min_int threshold finds the last column" (Some 7)
    (Segtree.find_last_above t ~lo:0 ~hi:8 min_int)

(* ---- copy interleaved with flattens ---- *)

(* The flat kernel's flatten is dirty-tracked (only columns touched
   since the last flatten are re-read into the buffer), and [copy]
   carries that state over.  Interleave flattens, copies, and
   post-copy updates on both sides of the fork to pin the
   bookkeeping. *)
let copy_flatten_interleaving () =
  let w = 97 in
  let t = Segtree.create w in
  let reference = Array.make w 0 in
  let add t lo hi v = Segtree.range_add t ~lo ~hi v in
  add t 10 40 5;
  add t 30 90 2;
  (* flatten once so the buffer holds stale-but-valid columns *)
  ignore (Segtree.best_start t ~len:12);
  add t 0 20 7;
  let c = Segtree.copy t in
  Array.iteri
    (fun i _ ->
      reference.(i) <-
        (if i >= 10 && i < 40 then 5 else 0)
        + (if i >= 30 && i < 90 then 2 else 0)
        + if i < 20 then 7 else 0)
    reference;
  Alcotest.(check (list int))
    "copy flattens to the source profile" (Array.to_list reference)
    (Array.to_list (Segtree.to_array c));
  (* diverge both sides after the fork; neither may see the other *)
  add t 50 60 11;
  add c 80 97 3;
  let expect_t = Array.mapi (fun i v -> if i >= 50 && i < 60 then v + 11 else v) reference in
  let expect_c = Array.mapi (fun i v -> if i >= 80 then v + 3 else v) reference in
  Alcotest.(check (list int))
    "source sees only its own update" (Array.to_list expect_t)
    (Array.to_list (Segtree.to_array t));
  Alcotest.(check (list int))
    "copy sees only its own update" (Array.to_list expect_c)
    (Array.to_list (Segtree.to_array c));
  Alcotest.(check bool) "best_start agrees with a scan after the fork" true
    (Segtree.best_start c ~len:9 = scan_best_start expect_c 9)

let suite =
  [
    Alcotest.test_case "profile ops match naive (24 instances x 1200 ops)" `Quick
      differential_stream;
    Alcotest.test_case "queries match linear scans (24 instances x 800 ops)"
      `Quick kernel_vs_scans_stream;
    Alcotest.test_case "add/remove inverses across kernels (20 instances)"
      `Quick add_remove_inverse;
    Alcotest.test_case "item add/remove inverse over a base profile" `Quick
      item_add_remove_inverse;
    Alcotest.test_case "nested checkpoint/rollback restores exact state" `Quick
      checkpoint_rollback_nested;
    Alcotest.test_case "checkpoint discipline: marks, copy, reset" `Quick
      checkpoint_discipline;
    Alcotest.test_case "overflow guards and int-boundary thresholds" `Quick
      overflow_guard_cases;
    Alcotest.test_case "copy interleaved with dirty-tracked flattens" `Quick
      copy_flatten_interleaving;
    Alcotest.test_case "of_starts matches naive (20 instances)" `Quick
      of_starts_differential;
    Helpers.qtest ~count:300 "first_fit_pos matches linear scan" query_arb
      (fun ((width, ops), (_, len, height, limit)) ->
        let t, a = build width ops in
        Segtree.first_fit_pos t ~len ~height ~limit
        = scan_first_fit a ~from:0 ~len ~height ~limit);
    Helpers.qtest ~count:300 "first_fit_from matches linear scan" query_arb
      (fun ((width, ops), (from, len, height, limit)) ->
        let t, a = build width ops in
        Segtree.first_fit_from t ~from ~len ~height ~limit
        = scan_first_fit a ~from ~len ~height ~limit);
    Helpers.qtest ~count:300 "profile first_fit_start matches naive scan"
      query_arb
      (fun ((width, ops), (_, len, height, budget)) ->
        (* Restrict to nonnegative loads: Profile.peak_in clamps at 0,
           which only coincides with the raw window max when loads are
           nonnegative (as in every placement state). *)
        let nonneg = List.map (fun (s, l, h) -> (s, l, abs h)) ops in
        let p = Profile.create width in
        let q = Profile.Naive.create width in
        List.iter
          (fun (s, l, h) ->
            Profile.add p ~start:s ~len:l ~height:h;
            Profile.Naive.add q ~start:s ~len:l ~height:h)
          nonneg;
        let reference =
          let rec go s =
            if len < 1 || s + len > width then None
            else if Profile.Naive.peak_in q ~start:s ~len + height <= budget then
              Some s
            else go (s + 1)
          in
          go 0
        in
        Profile.first_fit_start p ~len ~height ~budget = reference);
    Helpers.qtest ~count:300 "best_start matches argmin of window maxima"
      query_arb
      (fun ((width, ops), (_, len, _, _)) ->
        let t, a = build width ops in
        Segtree.best_start t ~len = scan_best_start a len);
    Helpers.qtest ~count:300 "find_last_above matches linear scan" query_arb
      (fun ((width, ops), (from, len, _, limit)) ->
        let t, a = build width ops in
        let lo = min from (width - 1) and hi = min width (from + len) in
        if lo > hi then true
        else
          Segtree.find_last_above t ~lo ~hi limit
          = scan_last_above a ~lo ~hi limit);
    Helpers.qtest ~count:200 "segtree to_array matches accumulated ops" loads_arb
      (fun (width, ops) ->
        let t, a = build width ops in
        Segtree.to_array t = a);
    Helpers.qtest ~count:200 "segtree copy is independent" loads_arb
      (fun (width, ops) ->
        let t, a = build width ops in
        let c = Segtree.copy t in
        Segtree.range_add t ~lo:0 ~hi:width 5;
        Segtree.to_array c = a);
  ]

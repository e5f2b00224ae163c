(* Shared generators and assertions for the test suites. *)

open Dsp_core

let qtest ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* QCheck generator for a small DSP instance: width in [2, max_width],
   items with dims bounded by the width / max_h. *)
let instance_gen ?(max_width = 16) ?(max_n = 10) ?(max_h = 8) () =
  let open QCheck.Gen in
  let* width = int_range 2 max_width in
  let* n = int_range 1 max_n in
  let* dims =
    list_repeat n (pair (int_range 1 width) (int_range 1 max_h))
  in
  return (Instance.of_dims ~width dims)

let instance_arb ?max_width ?max_n ?max_h () =
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Instance.pp i)
    (instance_gen ?max_width ?max_n ?max_h ())

(* Small instances where the exact solver is fast. *)
let tiny_instance_arb () = instance_arb ~max_width:8 ~max_n:6 ~max_h:5 ()

let pts_gen ?(max_m = 6) ?(max_n = 10) ?(max_p = 8) () =
  let open QCheck.Gen in
  let* machines = int_range 1 max_m in
  let* n = int_range 1 max_n in
  let* dims = list_repeat n (pair (int_range 1 max_p) (int_range 1 machines)) in
  return (Pts.Inst.of_dims ~machines dims)

let pts_arb ?max_m ?max_n ?max_p () =
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Pts.Inst.pp i)
    (pts_gen ?max_m ?max_n ?max_p ())

(* A random valid schedule: place jobs with the list scheduler after a
   random shuffle of priorities. *)
let schedule_of_pts seed inst =
  let _ = seed in
  Dsp_pts.List_scheduling.schedule ~order:Dsp_pts.List_scheduling.Input inst

let check_packing_valid name pk =
  match Packing.validate pk with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid packing: %s" name e

let check_schedule_valid name sched =
  match Pts.Schedule.validate sched with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid schedule: %s" name e

(* Integers around the native-arithmetic boundaries: ±2^30 (the edge
   of Xutil.checked_mul's division-free path), ±2^31 (whose products
   reach ±2^62), ±2^61, max_int and min_int, each with small offsets,
   mixed with draws from [-2^32, 2^32] and the full range. *)
let boundary_int_gen =
  let open QCheck.Gen in
  let bases = [ 1 lsl 30; 1 lsl 31; 1 lsl 61; max_int ] in
  let near =
    let* b = oneofl bases and* off = int_range 0 3 and* neg = bool in
    (* step inwards from max_int so the offset cannot wrap *)
    let v = if b = max_int then b - off else b + off - 1 in
    return (if neg then -v else v)
  in
  frequency
    [
      (6, near);
      (1, oneofl [ 0; 1; -1; min_int; min_int + 1 ]);
      (2, int_range (-(1 lsl 32)) (1 lsl 32));
      (1, int);
    ]

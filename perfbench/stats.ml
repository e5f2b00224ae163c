(* Order statistics over samples.  Percentiles are nearest-rank, so a
   reported p99 is a latency some request actually saw. *)

let sorted xs =
  let c = Array.copy xs in
  Array.sort Float.compare c;
  c

let percentile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: no samples"
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) rank))

let percentile xs q = percentile_sorted (sorted xs) q
let median xs = percentile xs 0.5

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: no samples"
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* A growable float buffer, so a long run can keep every sample. *)
module Buf = struct
  type t = { mutable data : Float.Array.t; mutable len : int }

  let create () = { data = Float.Array.create 4096; len = 0 }

  let push b x =
    if b.len = Float.Array.length b.data then begin
      let bigger = Float.Array.create (2 * b.len) in
      Float.Array.blit b.data 0 bigger 0 b.len;
      b.data <- bigger
    end;
    Float.Array.unsafe_set b.data b.len x;
    b.len <- b.len + 1

  let length b = b.len
  let to_array b = Array.init b.len (fun i -> Float.Array.get b.data i)
end

(* A run cut into windows that end at explicit [mark]s.  [marks] holds
   (samples so far, time in ns) at each window boundary, newest first.
   Reporting the median of per-window figures keeps a burst of outside
   load inside one window from moving the whole run's figure. *)
module Windows = struct
  type t = { mutable marks : (int * int) list }

  let create ~start = { marks = [ (0, start) ] }

  (* End the current window here. *)
  let mark w ~count ~now = w.marks <- (count, now) :: w.marks

  (* [f samples seconds] for each window after the first, in order.  A
     window with no samples is a pause between windows and is skipped.
     The first window pays for cold caches and heap growth, so it
     counts only when it is the only one. *)
  let map w samples f =
    let rec go acc = function
      | (i1, _) :: ((i0, _) :: _ as rest) when i1 = i0 -> go acc rest
      | (i1, t1) :: ((i0, t0) :: _ as rest) ->
          go (f (Array.sub samples i0 (i1 - i0)) (float_of_int (t1 - t0) *. 1e-9) :: acc) rest
      | [ _ ] | [] -> acc
    in
    match go [] w.marks with _ :: (_ :: _ as warm) -> Array.of_list warm | cold -> Array.of_list cold
end

(* Monotonic nanoseconds (CLOCK_MONOTONIC through bechamel's stub; it
   does not allocate, so it is safe around the calls it times). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_between t0 t1 = float_of_int (t1 - t0) *. 1e-9

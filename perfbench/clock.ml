(* The one clock every benchmark timing reads: bechamel's monotonic
   clock (CLOCK_MONOTONIC, nanoseconds).  Wall-clock time can step, so
   it is never used for a measurement. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
let elapsed_s t0 = seconds_between t0 (now_ns ())

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, elapsed_s t0)

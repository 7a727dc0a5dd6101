(** Monotonic benchmark clock. *)

val now_ns : unit -> int64
(** Nanoseconds from an arbitrary origin; never goes backwards. *)

val elapsed_s : int64 -> float
(** Seconds since a {!now_ns} reading. *)

val time : (unit -> 'a) -> 'a * float
(** Run a thunk, returning its value and its duration in seconds. *)

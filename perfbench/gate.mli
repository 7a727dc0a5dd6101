(** The benchmark's correctness gate: every checked operation is counted
    as attempted, every wrong or failed one as failed.  A run with any
    failure reports [correct: false] and exits non-zero. *)

type t

val create : unit -> t

val digest : Flex.t list -> string
(** Order-sensitive digest of a result's keys. *)

val check : t -> what:string -> bool -> string -> unit
(** Count one attempted operation; a failure when the condition is
    false, described by the message. *)

val expect_digest : t -> what:string -> expected:string -> Flex.t list -> unit
(** One attempted read, failed unless its keys digest to [expected]. *)

val expect_rows : t -> what:string -> expected:int -> Flex.t list -> unit
(** One attempted read, failed unless it returned [expected] rows. *)

val attempted : t -> int
val failed : t -> int
val ok : t -> bool
val failures : t -> string list
(** The first few failure messages, oldest first. *)

val error_rate : t -> float
(** [failed / attempted]; [0.] before anything was attempted. *)

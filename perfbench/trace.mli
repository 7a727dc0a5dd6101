(** In-memory span recorder for the traced benchmark run.

    A span is recorded around each call into a layer: its name, start
    and stop on the benchmark clock, its parent span, the request (one
    per benchmark operation) it belongs to, the deltas of a fixed set of
    counters sampled at its edges (page reads per index, ...) and the
    minor-heap words allocated inside it.  Spans stay in memory until
    {!write_json} at the end of the run. *)

type span = {
  id : int;  (** dense, in order of opening *)
  name : string;
  parent : int;  (** id of the enclosing span; [-1] for a root *)
  request : int;  (** shared by every span of one operation *)
  label : string;  (** the root's label (operation class), inherited *)
  start_ns : int64;
  stop_ns : int64;
  counters : int array;  (** counter deltas, in {!counter_names} order *)
  minor_words : float;
}

type t

val create : counter_names:string array -> sample:(unit -> int array) -> t
(** [sample ()] returns the current counter values, one per name; it is
    read just outside each span's clock readings, so its own cost lands in
    the parent's self time. *)

val root : t -> label:string -> string -> (unit -> 'a) -> 'a
(** Open a root span for a new request, run the thunk inside it. *)

val span : t -> ?sub:('a -> (string * float) list) -> string -> (unit -> 'a) -> 'a
(** A child of the innermost open span.  [sub] turns the thunk's result
    into durations (name, seconds) the layer measured itself; they become
    children of this span, laid end to end from its start, with no
    counters.  A span is recorded even when the thunk raises. *)

val spans : t -> span array
(** Every closed span, in order of opening. *)

val duration_ns : span -> int64

val self_ns : span array -> int64 array
(** Per span: its duration minus the part of its interval that the union
    of its children's intervals covers. *)

val unattributed : span array -> int
(** Sum over root spans and counters of [|root delta - sum of its
    children's deltas|]: [0] when every counted unit of work happened
    inside some child span. *)

val write_json : t -> out_channel -> unit
(** Every span as one JSON array, self time included. *)

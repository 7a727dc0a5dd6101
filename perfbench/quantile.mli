(** Order statistics over latency samples. *)

val median : float array -> float
(** Middle value (mean of the two middle values for an even count).
    @raise Invalid_argument on an empty array. *)

val quantiles : n:int -> float array -> float array
(** The [n - 1] cut points dividing the samples into [n] groups, exactly
    as Python's [statistics.quantiles(xs, n=n)] computes them (its
    default "exclusive" method).  @raise Invalid_argument with fewer
    than two samples. *)

val p99 : float array -> float
(** The 99th of [quantiles ~n:100]. *)

val mean : float array -> float
(** Arithmetic mean; [0.] for no samples. *)

(** A growable buffer of float samples (no per-sample allocation once
    grown). *)
module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val length : t -> int
  val to_array : t -> float array
end

(** Per-class floors: the fastest sample seen of each class of operation,
    and their mean weighted by each class's share of the samples — the
    mean latency of the mix had every operation run at the machine's
    quiet speed. *)
module Floors : sig
  type t

  val create : unit -> t
  val add : t -> string -> float -> unit
  (** [add t cls x] records sample [x] of class [cls]. *)

  val count : t -> int
  val weighted : t -> float
  (** Sum over classes of (class samples / all samples) × class minimum;
      [0.] for no samples. *)
end

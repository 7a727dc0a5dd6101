(** Long-lived query service over {!Vamana.Engine}: the layer between
    "one query" and "millions of queries".

    A service owns a {!Mass.Store.t} and adds:

    - a {b plan cache} — an LRU of {!Vamana.Engine.prepared} values keyed
      by normalized query text + statistics scope + optimize flag, so a
      repeated query skips parse, compile and optimize entirely;
    - a {b result cache} — an optional LRU of full results keyed by plan
      key + execution context.  Each entry carries the invalidation
      token it was computed under (the scope document's
      {!Mass.Store.doc_epoch} for scoped queries, the store-wide
      {!Mass.Store.epoch} for unscoped ones) and the plan's
      {!Vamana.Footprint} read footprint.  Under the default
      [`Footprint] invalidation a token mismatch triggers an
      interference check: the entry survives — and its token refreshes —
      when every {!Mass.Store.write_delta} recorded since is provably
      disjoint from the footprint; it is evicted when a delta
      intersects, when the footprint is ⊤, or when the delta ring no
      longer covers the entry's window.  [`Epoch] invalidation evicts on
      any token mismatch (the pre-footprint behaviour).  Either way a
      mutation visible to the query between two identical requests
      always yields fresh results;
    - a {b metrics registry} — monotonic counters (queries, cache
      hits/misses/evictions, compiles, errors) and latency histograms for
      the compile / optimize / execute phases and the end-to-end query
      path, dumpable as text or JSON together with the store's
      buffer-pool I/O counters.

    Query normalization drops whitespace outside string literals except
    between two name/number characters, where one space survives (token
    separation: ["a div b"] must not become ["adivb"]); quoted text is
    preserved byte-for-byte.  So ["//person / address"] and
    ["//person/address"] share a cache entry while ["//a[.='x  y']"]
    keeps its literal's spacing.

    Plans survive store mutations: the optimizer only ever emits
    semantically equivalent plans, so a cached plan stays {e correct}
    across updates — only its cost estimates age.  Results do not
    survive mutations; the epoch check guarantees that. *)

type t

type cache = Vamana.Engine.cache
(** [`Hit] served from cache; [`Miss] not present, computed and
    inserted; [`Stale] present but from an older store epoch (or, for
    the plan cache, drifted), recomputed; [`Bypass] cache disabled. *)

type invalidation =
  [ `Epoch  (** evict on any invalidation-token mismatch *)
  | `Footprint
    (** on a token mismatch, evict only when a write delta since the
        entry's token intersects the plan's read footprint (or the
        footprint is ⊤, or delta coverage was lost) *) ]

val create :
  ?plan_cache_capacity:int ->
  ?result_cache_capacity:int ->
  ?optimize:bool ->
  ?invalidation:invalidation ->
  ?slow_threshold:float ->
  ?slow_profile:bool ->
  ?flight:Storage.Flight.t ->
  ?sample_every:int ->
  ?drift_threshold:float ->
  Mass.Store.t ->
  t
(** [plan_cache_capacity] defaults to 128; [result_cache_capacity]
    defaults to 512, and [0] disables result caching entirely;
    [optimize] (default [true]) selects VQP-OPT vs VQP plans for every
    query the service prepares.  [slow_threshold] (seconds, default
    0.1; [infinity] disables) feeds the always-on slow-query log, a
    bounded ring of the last 128 slow queries; with [slow_profile]
    (default [true]) a slow query whose run carried no instrumentation
    is re-executed once with profiling so its log entry has an operator
    tree attached.  [invalidation] (default
    [`Footprint]) selects the result-cache invalidation protocol; the
    [cache_invalidations_footprint]/[epoch]/[top] counters attribute
    every eviction to its reason and [result_cache_spared] counts the
    entries an interference check saved.  [flight] attaches a
    {!Storage.Flight} recorder: every {!query} writes a begin/end record
    pair (the caller keeps ownership and closes it).

    [sample_every] (default {!Health.default_sample_every}) turns on the
    always-on plan-health sampler: every Nth real execution of each
    cached plan runs with profiling enabled and feeds the {!Health}
    drift detector ([0] disables sampling); [drift_threshold] (default
    {!Health.default_drift_threshold}) is the EWMA drift score above
    which a plan is marked stale and transparently re-prepared on its
    next request (an {e adaptive replan} — the outcome's [plan_cache]
    reads [`Stale], the [adaptive_replans] counter is bumped and a
    [health/adaptive_replan] event fires). *)

val store : t -> Mass.Store.t

val invalidation : t -> invalidation
(** The result-cache invalidation protocol this service runs. *)

val metrics : t -> Metrics.t

val health : t -> Health.t
(** The plan-health table: per-plan sampled q-error reservoirs, EWMA
    drift scores and replan counts (see {!Health}). *)

val default_slow_threshold : float
(** 0.1 s. *)

type outcome = {
  result : Vamana.Engine.result;
  plan_cache : cache;
      (** never [`Bypass]; [`Stale] marks an adaptive replan — the
          cached plan had drifted past the threshold and was re-prepared
          against fresh statistics for this request ([= record.plan_cache]) *)
  result_cache : cache;  (** [= record.result_cache] *)
  record : Vamana.Engine.record;
      (** this call, measured once over the whole service window
          (prepare + execute + cache bookkeeping): [latency] is the
          end-to-end seconds inside the service and the I/O is near-zero
          on a result-cache hit, unlike the cached [result]'s own
          [record], which reports the populating run.  The service's
          fields are filled in: cache dispositions, [sampled], [drift]
          (the plan's score after this run; [0.] on a result-cache hit)
          and [epoch].  Metrics, the flight recorder, the slow-query log
          and the bus all fold this value. *)
}

val query : ?profile:bool -> t -> context:Flex.t -> string -> (outcome, string) Result.t
(** Serve one query rooted at [context].  On a result-cache hit the
    returned {!Vamana.Engine.result} is the cached value (its phase times
    are the times of the run that populated the cache; the outcome's
    [record] is this call's).  Errors are not cached.  With [profile] the result
    cache is bypassed on the read side so the query really executes and
    the result carries a fresh {!Vamana.Profile.report}; the
    [profiled_queries] counter tracks these. *)

val query_doc : ?profile:bool -> t -> Mass.Store.doc -> string -> (outcome, string) Result.t

val normalize : string -> string
(** The cache-key normalization (exposed for tests): outside
    single-/double-quoted literals, whitespace is dropped except for a
    single separating space between two name/number characters. *)

(** {1 Slow-query log} *)

val slow_threshold : t -> float
val set_slow_threshold : t -> float -> unit

val slow_queries : t -> (float * Vamana.Engine.record) list
(** Contents of the ring, oldest first (at most 128):
    the Unix time of detection ({!Obs.wall_clock}) and the offending
    run's record, except that its [profile] is the operator tree — the
    run's own when it was profiled, otherwise a one-shot instrumented
    re-execution (see {!create}); [None] when [slow_profile] is off or
    the plan had already been evicted — and its [drift] is the plan's
    EWMA cost-drift score at detection ([0.] when the plan has no health
    record yet), so a slow query that is {e also} drifting is the
    replan candidate to look at first.  Each detection also bumps the
    [slow_queries] counter and emits a [service/slow_query] event on the
    {!Obs} bus. *)

val slow_log_header : string
(** Column header of the slow-query table ([vamana serve --slow-ms]). *)

val slow_log_row : Vamana.Engine.record -> string
(** One slow-log record as a row under {!slow_log_header}, without a
    trailing newline. *)

val cache_cell : cache -> string
(** A cache disposition as a table cell: [hit], [miss], [stale], or [-]
    for [`Bypass]. *)

val flight_record : Vamana.Engine.record -> Storage.Flight.query_record
(** The flight recorder's End frame for a query record (its [at_ms] is
    the {!Obs.wall_clock} time of the call; [cache] reads [error] for a
    failed query). *)

val plan_cache_length : t -> int
val result_cache_length : t -> int

val flush : t -> unit
(** Drop both caches (metrics are kept; bumps the [flushes] counter). *)

val snapshot_text : t -> string
(** Metrics snapshot including the store's aggregate page-I/O counters. *)

val snapshot_json : t -> string

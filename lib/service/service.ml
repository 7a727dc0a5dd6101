module Store = Mass.Store
module Engine = Vamana.Engine

(* plan-cache key: normalized source + rendered statistics scope +
   optimize flag.  The scope is part of the key because the optimizer
   consults scope-local statistics, so the same text optimized under two
   documents may yield different plans. *)
type plan_key = { src : string; scope : string; optimized : bool }

(* [token] is the invalidation token the entry was computed under: the
   scope document's {!Mass.Store.doc_epoch} for document-scoped queries
   (so writes to other documents don't flush this entry), the global
   epoch for unscoped ones.  [fp] is the plan's read footprint: under
   footprint invalidation a token mismatch downgrades from "evict" to
   "intersect against the writes since [token]" — both epochs count the
   same store-wide mutation clock, so [token] is a valid [since] bound
   for {!Mass.Store.write_deltas} in either mode. *)
type result_entry = { token : int; fp : Vamana.Footprint.t; cached : Engine.result }

type cache = Engine.cache

type invalidation = [ `Epoch | `Footprint ]

type t = {
  store : Store.t;
  optimize : bool;
  invalidation : invalidation;
  metrics : Metrics.t;
  plans : (plan_key, Engine.prepared) Lru.t;
  results : (plan_key * string, result_entry) Lru.t option;
  mutable slow_threshold : float;  (* seconds; [infinity] disables *)
  slow_profile : bool;
  slow_log : (float * Engine.record) Queue.t;  (* bounded ring, oldest dropped *)
  flight : Storage.Flight.t option;
  health : Health.t;
}

(* the full counter schema, registered up front so snapshots always show
   every name (a counter never hit still renders as 0) *)
let counter_names =
  [ "queries"; "errors"; "compiles"; "compile_errors"; "result_keys"; "flushes";
    "plan_cache_hits"; "plan_cache_misses"; "plan_cache_evictions";
    "result_cache_hits"; "result_cache_misses"; "result_cache_stale";
    "result_cache_evictions"; "profiled_queries"; "optimizer_iterations";
    "optimizer_rules_accepted"; "optimizer_rules_rejected"; "optimizer_rules_considered";
    "optimizer_rules_property_rejected";
    "slow_queries"; "sampled_executions"; "adaptive_replans"; "plan_drift_events";
    "slow_profile_reused"; "slow_profile_rerun"; "result_cache_spared";
    "cache_invalidations_footprint"; "cache_invalidations_epoch"; "cache_invalidations_top";
    "drift_checks_skipped" ]

let default_slow_threshold = 0.1

(* slow-query log entries kept; older ones are dropped *)
let slow_log_capacity = 128

let create ?(plan_cache_capacity = 128) ?(result_cache_capacity = 512) ?(optimize = true)
    ?(invalidation = `Footprint) ?(slow_threshold = default_slow_threshold)
    ?(slow_profile = true) ?flight
    ?(sample_every = Health.default_sample_every)
    ?(drift_threshold = Health.default_drift_threshold) store =
  let metrics = Metrics.create () in
  List.iter (fun name -> Metrics.inc ~by:0 metrics name) counter_names;
  {
    store;
    optimize;
    invalidation;
    metrics;
    plans = Lru.create ~capacity:plan_cache_capacity;
    results =
      (if result_cache_capacity = 0 then None
       else Some (Lru.create ~capacity:result_cache_capacity));
    slow_threshold;
    slow_profile;
    slow_log = Queue.create ();
    flight;
    health = Health.create ~sample_every ~drift_threshold ();
  }

let store t = t.store
let invalidation t = t.invalidation
let metrics t = t.metrics
let health t = t.health
let slow_threshold t = t.slow_threshold
let set_slow_threshold t s = t.slow_threshold <- s
let slow_queries t = List.of_seq (Queue.to_seq t.slow_log)

type outcome = {
  result : Engine.result;
  plan_cache : cache;
  result_cache : cache;
  record : Engine.record;
}

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* characters that can extend an NCName or number: whitespace between two
   of these is token-separating ("a div b", "person - 1") and must
   survive as one space; anywhere else it is insignificant and dropped,
   so "//person / address" keys identically to "//person/address" *)
let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-'

let normalize src =
  let buf = Buffer.create (String.length src) in
  let n = String.length src in
  let rec go i quote pending_space =
    if i < n then
      let c = src.[i] in
      match quote with
      | Some q ->
          Buffer.add_char buf c;
          go (i + 1) (if c = q then None else quote) false
      | None ->
          if is_space c then go (i + 1) None true
          else begin
            (if pending_space && Buffer.length buf > 0 then
               let last = Buffer.nth buf (Buffer.length buf - 1) in
               if is_name_char last && is_name_char c then Buffer.add_char buf ' ');
            Buffer.add_char buf c;
            go (i + 1) (if c = '\'' || c = '"' then Some c else None) false
          end
  in
  go 0 None false;
  Buffer.contents buf

let plan_key t ~scope src =
  {
    src = normalize src;
    scope = (match scope with Some s -> Flex.to_string s | None -> "");
    optimized = t.optimize;
  }

(* the plan key rendered for the health table (health records outlive
   plan-cache evictions, so they key on the same identity, not the
   cached artifact); 0x1f cannot appear in queries or rendered scopes *)
let health_key key =
  String.concat "\x1f" [ key.src; key.scope; (if key.optimized then "O" else "U") ]

let health_record t key src =
  Health.record t.health ~key:(health_key key) ~query:src ~scope:key.scope
    ~optimized:key.optimized

(* result-cache invalidation token: the scope document's own mutation
   epoch when the query is document-scoped — writes to other documents
   leave it unchanged — falling back to the store-wide epoch for
   unscoped queries or a scope that is no longer a document *)
let cache_token t ~scope =
  match scope with
  | Some s -> (
      match Store.document_of_key t.store s with
      | Some d -> Store.doc_epoch t.store d
      | None -> Store.epoch t.store)
  | None -> Store.epoch t.store

(* whole-plan estimate under current synopsis statistics vs the plan's
   compile-time costing: a ratio far from 1 means the statistics moved
   under the cached plan even before sampled actuals catch it (an
   infinite ratio is clamped where Health folds it) *)

let estimate_drift t (p : Engine.prepared) =
  match (p.Engine.outcomes, p.Engine.executed_plans) with
  | Some (o :: _), plan :: _ ->
      let old_total = Vamana.Cost.total_output o.Vamana.Optimizer.cost plan in
      let now =
        Vamana.Cost.estimate
          ~stats:(Vamana.Cost.synopsis_statistics t.store)
          t.store ~scope:p.Engine.prep_scope plan
      in
      Vamana.Profile.q_error ~est:old_total ~act:(Vamana.Cost.total_output now plan)
  | _ -> 1.0

(* Footprint drift-skip: the estimate ratio only moves when the
   statistics under the plan's footprint move.  When every write since
   an epoch the ratio is known at is provably disjoint from the
   footprint, the recomputation is a no-op — return the known value
   instead of re-walking the synopsis.  Two anchors, tried in order:
   the prepare epoch (known ratio 1.0 — the compile-time costing and a
   fresh estimate would read the same counts) and the last sample taken
   of {e this} prepared plan (its recorded ratio). *)
let estimate_drift_for t hr (p : Engine.prepared) =
  let fp = p.Engine.prep_footprint in
  let disjoint_since anchor =
    anchor >= 0
    &&
    match Store.write_deltas t.store ~since:anchor with
    | None -> false
    | Some deltas -> List.for_all (fun d -> not (Vamana.Footprint.intersects fp d)) deltas
  in
  if t.invalidation = `Footprint && not (Vamana.Footprint.is_top fp) then
    if disjoint_since p.Engine.prep_epoch then begin
      Metrics.inc t.metrics "drift_checks_skipped";
      1.0
    end
    else if
      hr.Health.hr_last_epoch >= p.Engine.prep_epoch
      && disjoint_since hr.Health.hr_last_epoch
    then begin
      Metrics.inc t.metrics "drift_checks_skipped";
      match Health.last_sample hr with Some s -> s.Health.s_estimate_q | None -> 1.0
    end
    else estimate_drift t p
  else estimate_drift t p

(* fetch-or-prepare through the plan cache *)
let prepared t ~scope key src =
  match Lru.find t.plans key with
  | Some p -> Ok (p, `Hit)
  | None -> (
      match Engine.prepare ~optimize:t.optimize t.store ~scope src with
      | Error _ as e -> e
      | Ok p ->
          Metrics.observe t.metrics "compile" p.Engine.prep_compile_time;
          if t.optimize then Metrics.observe t.metrics "optimize" p.Engine.prep_optimize_time;
          List.iter
            (fun (s : Vamana.Profile.span) ->
              match s.Vamana.Profile.name with
              | "parse" -> Metrics.observe t.metrics "parse" s.Vamana.Profile.dur
              | "optimize" -> Metrics.observe t.metrics "optimize_iteration" s.Vamana.Profile.dur
              | _ -> ())
            p.Engine.prep_spans;
          (match p.Engine.outcomes with
          | None -> ()
          | Some outcomes ->
              List.iter
                (fun (o : Vamana.Optimizer.outcome) ->
                  Metrics.inc ~by:o.Vamana.Optimizer.iterations t.metrics "optimizer_iterations";
                  Metrics.inc
                    ~by:(List.length o.Vamana.Optimizer.trace)
                    t.metrics "optimizer_rules_accepted";
                  List.iter
                    (fun (s : Vamana.Optimizer.iteration_stat) ->
                      Metrics.inc ~by:s.Vamana.Optimizer.considered t.metrics
                        "optimizer_rules_considered";
                      Metrics.inc ~by:s.Vamana.Optimizer.rejected t.metrics
                        "optimizer_rules_rejected";
                      Metrics.inc ~by:s.Vamana.Optimizer.property_rejected t.metrics
                        "optimizer_rules_property_rejected")
                    o.Vamana.Optimizer.iteration_stats)
                outcomes);
          if Lru.put t.plans key p <> None then
            Metrics.inc t.metrics "plan_cache_evictions";
          Ok (p, `Miss))

let execute t ~profile ~scope ~context key p =
  let result = Engine.execute_prepared ~profile t.store ~context p in
  (match t.results with
  | None -> ()
  | Some cache ->
      let entry =
        { token = cache_token t ~scope; fp = p.Engine.prep_footprint; cached = result }
      in
      if Lru.put cache (key, Flex.to_string context) entry <> None then
        Metrics.inc t.metrics "result_cache_evictions");
  result

let cache_tag = function
  | `Hit -> "hit"
  | `Miss -> "miss"
  | `Stale -> "stale"
  | `Bypass -> "bypass"

let cache_cell = function `Bypass -> "-" | c -> cache_tag c

(* ---- the folds of one query record ----

   Service.query measures a query once ({!Engine.measure}) and fills in
   its own fields once; each consumer below reads that record instead
   of re-measuring. *)

(* the execute-phase I/O of a query that did not execute (a result-cache
   hit, an error); shared, never mutated *)
let no_io = Storage.Stats.create ()

let rec execute_seconds = function
  | (s : Vamana.Profile.span) :: rest ->
      if s.Vamana.Profile.name = "execute" then s.Vamana.Profile.dur else execute_seconds rest
  | [] -> 0.0

(* metrics: the per-query counters and the query/execute histograms *)
let count t (r : Engine.record) =
  let m = t.metrics in
  Metrics.inc m "queries";
  Metrics.observe m "query" r.Engine.latency;
  if r.Engine.error <> None then begin
    Metrics.inc m "errors";
    Metrics.inc m "compile_errors"
  end;
  if r.Engine.result_cache = `Hit then Metrics.inc m "result_cache_hits"
  else begin
    if r.Engine.result_cache <> `Bypass then Metrics.inc m "result_cache_misses";
    (match r.Engine.plan_cache with
    | `Hit -> Metrics.inc m "plan_cache_hits"
    | `Miss | `Stale ->
        Metrics.inc m "plan_cache_misses";
        Metrics.inc m "compiles"
    | `Bypass -> ());
    if r.Engine.plan_cache = `Stale then Metrics.inc m "adaptive_replans";
    if r.Engine.sampled then Metrics.inc m "sampled_executions";
    if r.Engine.error = None then begin
      Metrics.observe m "execute" (execute_seconds r.Engine.spans);
      Metrics.inc ~by:r.Engine.results m "result_keys";
      if r.Engine.profile <> None then Metrics.inc m "profiled_queries"
    end
  end

(* the flight recorder's End frame (the frame format lives in storage,
   below the engine, so the conversion lives here) *)
let flight_record (r : Engine.record) =
  { Storage.Flight.qid = r.Engine.qid;
    source = r.Engine.source;
    ok = r.Engine.error = None;
    cache = (if r.Engine.error = None then cache_tag r.Engine.result_cache else "error");
    latency_us = int_of_float (r.Engine.latency *. 1e6);
    pages_read = r.Engine.io.Storage.Stats.logical_reads;
    physical_reads = r.Engine.io.Storage.Stats.physical_reads;
    wal_bytes = r.Engine.wal_bytes;
    fsyncs = r.Engine.fsyncs;
    results = r.Engine.results;
    epoch = r.Engine.epoch;
    at_ms = int_of_float (Obs.wall_clock () *. 1000.);
    sampled = r.Engine.sampled;
    drift = r.Engine.drift }

(* always-on slow-query log: keep the record of the offending run, with
   the plan's current drift score and — when the run carried no
   instrumentation — the operator tree of a profiled re-execution of the
   cached plan.  A run the health sampler (or an explicit profile
   request) already instrumented is reused as-is: the plan never
   executes twice. *)
let note_slow t ~context (r : Engine.record) =
  if r.Engine.latency >= t.slow_threshold then begin
    Metrics.inc t.metrics "slow_queries";
    let scope = Engine.scope_of_context context in
    let key = plan_key t ~scope r.Engine.source in
    let profile =
      match r.Engine.profile with
      | Some _ as p ->
          Metrics.inc t.metrics "slow_profile_reused";
          p
      | None ->
          if not t.slow_profile then None
          else (
            match Lru.find t.plans key with
            | Some p ->
                Metrics.inc t.metrics "slow_profile_rerun";
                (Engine.execute_prepared ~profile:true t.store ~context p).Engine.record
                  .Engine.profile
            | None -> None)
    in
    let drift =
      match Health.find t.health (health_key key) with
      | Some h -> h.Health.hr_drift
      | None -> 0.0
    in
    let entry = { r with Engine.profile; drift } in
    if Queue.length t.slow_log >= slow_log_capacity then ignore (Queue.pop t.slow_log);
    Queue.push (Obs.wall_clock (), entry) t.slow_log;
    if Obs.active () then
      Obs.emit ~severity:Obs.Warn ~category:"service" "slow_query"
        [ ("query", Obs.Str r.Engine.source);
          ("total_ms", Obs.Float (r.Engine.latency *. 1000.));
          ("plan_cache", Obs.Str (cache_tag r.Engine.plan_cache));
          ("result_cache", Obs.Str (cache_tag r.Engine.result_cache));
          ("results", Obs.Int r.Engine.results);
          ("pages_read", Obs.Int r.Engine.io.Storage.Stats.logical_reads);
          ("wal_bytes", Obs.Int r.Engine.wal_bytes);
          ("fsyncs", Obs.Int r.Engine.fsyncs);
          ("profiled", Obs.Bool (profile <> None));
          ("drift", Obs.Float drift) ]
  end

(* the bus: one service/query (or service/query_error) event per query *)
let publish (r : Engine.record) =
  if Obs.active () then
    match r.Engine.error with
    | None ->
        Obs.emit ~category:"service" "query"
          [ ("query", Obs.Str r.Engine.source);
            ("total_ms", Obs.Float (r.Engine.latency *. 1000.));
            ("plan_cache", Obs.Str (cache_tag r.Engine.plan_cache));
            ("result_cache", Obs.Str (cache_tag r.Engine.result_cache));
            ("results", Obs.Int r.Engine.results);
            ("pages_read", Obs.Int r.Engine.io.Storage.Stats.logical_reads);
            ("wal_bytes", Obs.Int r.Engine.wal_bytes);
            ("fsyncs", Obs.Int r.Engine.fsyncs);
            ("sampled", Obs.Bool r.Engine.sampled) ]
    | Some msg ->
        Obs.emit ~severity:Obs.Error ~category:"service" "query_error"
          [ ("query", Obs.Str r.Engine.source); ("error", Obs.Str msg) ]

(* the [vamana serve --slow-ms] table: a fixed-width header and one row
   per logged record *)
let slow_log_header =
  Printf.sprintf "%-44s %5s %10s %8s %6s %6s %7s %9s %6s %6s" "query" "qid" "ms" "results" "plan"
    "result" "pages" "wal_bytes" "fsyncs" "drift"

let slow_log_row (r : Engine.record) =
  Printf.sprintf "%-44s %5d %10.3f %8d %6s %6s %7d %9d %6d %6.2f" r.Engine.source r.Engine.qid
    (r.Engine.latency *. 1000.) r.Engine.results (cache_cell r.Engine.plan_cache)
    (cache_cell r.Engine.result_cache) r.Engine.io.Storage.Stats.logical_reads
    r.Engine.wal_bytes r.Engine.fsyncs r.Engine.drift

(* What the serve path did, with the service's own facts about it: the
   plan and result cache dispositions, whether the health sampler
   instrumented the run, and the plan's drift score after it. *)
type served =
  | Hit of Engine.result  (** a result-cache hit: nothing executed *)
  | Ran of Engine.result * cache * cache * bool * float
      (** executed: plan cache, result cache, sampled, drift *)
  | Failed of string * cache * cache  (** preparation failed: the error, plan cache, result cache *)

(* the serve path proper: result-cache lookup (with invalidation), then
   plan-cache fetch or prepare, then execution *)
let serve t ~profile ~context src =
  let scope = Engine.scope_of_context context in
  let key = plan_key t ~scope src in
  let cached_result =
    match t.results with
    | None -> `Bypass
    (* a profiled query must actually execute: a cached answer carries
       no (or a stale) operator profile *)
    | Some _ when profile -> `Bypass
    | Some cache -> (
        let rkey = (key, Flex.to_string context) in
        match Lru.find cache rkey with
        | Some entry when entry.token = cache_token t ~scope -> `Cached entry.cached
        | Some entry -> (
            (* written under an older invalidation token: this query's
               document (or, unscoped, the store) has mutated since.
               Under epoch invalidation that alone evicts; under
               footprint invalidation the entry survives if every write
               since is provably disjoint from the plan's read footprint *)
            let evict reason =
              Lru.remove cache rkey;
              Metrics.inc t.metrics "result_cache_stale";
              Metrics.inc t.metrics ("cache_invalidations_" ^ reason);
              `Stale
            in
            match t.invalidation with
            | `Epoch -> evict "epoch"
            | `Footprint -> (
                if Vamana.Footprint.is_top entry.fp then evict "top"
                else
                  match Store.write_deltas t.store ~since:entry.token with
                  | None ->
                      (* the delta ring no longer covers the entry's
                         window; only the epoch argument remains *)
                      evict "epoch"
                  | Some deltas ->
                      (* a scoped entry only reads inside its document,
                         so other documents' deltas cannot touch it (a
                         delta without a document attribution stays
                         relevant) *)
                      let own_doc =
                        match scope with
                        | Some s ->
                            Option.map
                              (fun d -> d.Store.doc_id)
                              (Store.document_of_key t.store s)
                        | None -> None
                      in
                      let relevant d =
                        match (own_doc, d.Store.wd_doc) with
                        | Some id, Some wid -> wid = id
                        | _, _ -> true
                      in
                      if
                        List.for_all
                          (fun d ->
                            (not (relevant d)) || not (Vamana.Footprint.intersects entry.fp d))
                          deltas
                      then begin
                        (* provably untouched: refresh the token so the
                           next lookup fast-paths again *)
                        ignore (Lru.put cache rkey { entry with token = cache_token t ~scope });
                        Metrics.inc t.metrics "result_cache_spared";
                        `Cached entry.cached
                      end
                      else evict "footprint"))
        | None -> `Miss)
  in
  match cached_result with
  | `Cached result -> Hit result
  | (`Bypass | `Stale | `Miss) as status -> (
      let result_cache = (status :> cache) in
      let hr = health_record t key src in
      (* adaptive replan: when the drift detector marked this plan stale,
         drop the cached plan and re-prepare against fresh statistics —
         the plan-cache disposition reads [`Stale] *)
      let replanning = Health.stale hr in
      if replanning then Lru.remove t.plans key;
      match prepared t ~scope key src with
      | Error msg -> Failed (msg, (if replanning then `Stale else `Miss), result_cache)
      | Ok (p, plan_cache) ->
          let plan_cache = if replanning then `Stale else plan_cache in
          if replanning then Health.note_replan t.health hr ~epoch:(Store.epoch t.store);
          (* the always-on sampler: every Nth execution of this plan runs
             instrumented and feeds the drift detector *)
          let sampled = Health.note_execution t.health hr in
          let result = execute t ~profile:(profile || sampled) ~scope ~context key p in
          let exec = result.Engine.record in
          if
            exec.Engine.profile <> None
            && Health.observe t.health hr ~estimate_q:(estimate_drift_for t hr p) exec
          then Metrics.inc t.metrics "plan_drift_events";
          Ran (result, plan_cache, result_cache, sampled, hr.Health.hr_drift))

let query ?(profile = false) t ~context src =
  (* the whole serve path runs under this query's id: every bus event
     below (engine spans, pager evictions, WAL appends) carries it, and
     the one window around it is the query's record *)
  let qid = Obs.fresh_query_id () in
  Obs.with_context [ ("qid", Obs.Int qid) ] @@ fun () ->
  (match t.flight with
  | Some fr -> Storage.Flight.record_begin fr ~qid ~epoch:(Store.epoch t.store) ~source:src
  | None -> ());
  Engine.measure t.store (fun () -> serve t ~profile ~context src)
  @@ fun served ~qid ~latency ~io ~wal_bytes ~fsyncs ->
  let epoch = Store.epoch t.store in
  let record =
    match served with
    | Hit result ->
        let r = result.Engine.record in
        { Engine.qid; source = src; io; wal_bytes; fsyncs; latency; epoch; spans = [];
          exec_io = no_io; results = r.Engine.results; profile = r.Engine.profile;
          plan_cache = `Hit; result_cache = `Hit; sampled = false; drift = 0.0; error = None }
    | Ran (result, plan_cache, result_cache, sampled, drift) ->
        let r = result.Engine.record in
        { Engine.qid; source = src; io; wal_bytes; fsyncs; latency; epoch;
          spans = r.Engine.spans; exec_io = r.Engine.exec_io; results = r.Engine.results;
          profile = r.Engine.profile; plan_cache; result_cache; sampled; drift; error = None }
    | Failed (msg, plan_cache, result_cache) ->
        { Engine.qid; source = src; io; wal_bytes; fsyncs; latency; epoch; spans = [];
          exec_io = no_io; results = 0; profile = None; plan_cache; result_cache;
          sampled = false; drift = 0.0; error = Some msg }
  in
  count t record;
  (match t.flight with Some fr -> Storage.Flight.record_end fr (flight_record record) | None -> ());
  if record.Engine.error = None then note_slow t ~context record;
  publish record;
  match served with
  | Hit result -> Ok { result; plan_cache = `Hit; result_cache = `Hit; record }
  | Ran (result, plan_cache, result_cache, _, _) -> Ok { result; plan_cache; result_cache; record }
  | Failed (msg, _, _) -> Error msg

let query_doc ?profile t doc src = query ?profile t ~context:doc.Store.doc_key src

let plan_cache_length t = Lru.length t.plans
let result_cache_length t = match t.results with None -> 0 | Some c -> Lru.length c

let flush t =
  Lru.clear t.plans;
  (match t.results with Some c -> Lru.clear c | None -> ());
  Metrics.inc t.metrics "flushes"

let snapshot_text t = Metrics.render_text ~io:(Store.io_stats t.store) t.metrics
let snapshot_json t = Metrics.render_json ~io:(Store.io_stats t.store) t.metrics

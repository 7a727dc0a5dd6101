(* Golden tests: the exact bytes of every exported surface — the metrics
   snapshots (text, JSON, OpenMetrics), bus events as JSON and as a
   Chrome trace, flight-recorder frames, EXPLAIN, EXPLAIN ANALYZE (text
   and JSON) and the slow-query table.  Durations and wall-clock timestamps are
   replaced by a placeholder before the comparison; everything else
   (counter names and values, page counts, attribute order, float
   formats) must match byte for byte.  Stores are created on the [Mem]
   backend explicitly so a [VAMANA_BACKEND=file] run compares the same
   bytes. *)

module Store = Mass.Store
module Service = Vamana_service.Service
module Metrics = Vamana_service.Metrics
module Flight = Storage.Flight

(* ---- scrubbing ---- *)

let placeholder = "<t>"

let replace re tmpl s = Str.global_replace (Str.regexp re) tmpl s

(* a duration rendered as "<number>ms" or "<number> ms" (with any
   padding before it) *)
let scrub_ms s = replace " *-?[0-9]+\\.[0-9]+\\( ?\\)ms" (" " ^ placeholder ^ "\\1ms") s

(* JSON members whose key names a duration ("ms" or "..._ms"): the
   number (or null) *)
let scrub_json_ms s =
  replace "\"\\(\\([a-z0-9_]*_\\)?ms\\)\": *\\(-?[0-9.e+-]+\\|null\\)" ("\"\\1\": " ^ placeholder) s

(* plan operator ids come from a process-wide counter, so they depend on
   how many plans were built before: render them as "#" *)
let scrub_ids s =
  replace "\"id\": [0-9]+" "\"id\": #" (replace "\\(R\\|Φ\\|β\\|L\\)[0-9]+" "\\1#" s)

(* OpenMetrics latency histograms: bucket counts and sums depend on
   timing; only the family, the bucket bounds and _count are pinned *)
let scrub_openmetrics s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         if
           Str.string_match (Str.regexp "^vamana_[a-z_]*_seconds_\\(bucket\\|sum\\)") line 0
         then replace " [0-9.e+-]+$" (" " ^ placeholder) line
         else line)
  |> String.concat "\n"

let check_golden name expected actual =
  if expected <> actual then
    Alcotest.failf "%s differs from the golden.\n--- expected\n%s\n--- actual\n%s" name expected
      actual

(* ---- fixtures ---- *)

let doc_xml =
  "<site><people><person id=\"p1\"><name>Ada</name></person><person \
   id=\"p2\"><name>Alan</name><watch/></person></people><items><item><name>lamp</name></item></items></site>"

let with_clean_bus f =
  Obs.reset ();
  Fun.protect ~finally:Obs.reset f

(* a fixed sequence of served queries covering every disposition: a
   plan and result miss, a result hit, a normalized hit, a parse error,
   a write followed by the spared/stale re-read, a profiled run *)
let served () =
  let store = Store.create ~backend:Store.Mem ~pool_pages:64 () in
  let doc = Store.load store ~name:"g.xml" (Xml.Parser.parse doc_xml) in
  let service = Service.create ~slow_threshold:0.0 store in
  let run q =
    match Service.query service ~context:doc.Store.doc_key q with Ok _ | Error _ -> ()
  in
  List.iter run [ "//person/name"; "//person/name"; "// person / name"; "//item"; "//person[" ];
  let people =
    match Vamana.Engine.query_doc store doc "/site/people" with
    | Ok r -> List.hd r.Vamana.Engine.keys
    | Error e -> Alcotest.fail e
  in
  ignore (Store.insert_element store ~parent:people "person" [ ("id", "p3") ] (Some "Hedy"));
  List.iter run [ "//person/name"; "//item" ];
  (match Service.query ~profile:true service ~context:doc.Store.doc_key "//person" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (store, doc, service)

let golden_snapshot_text =
  {|== counters ==
adaptive_replans             0
cache_invalidations_epoch    0
cache_invalidations_footprint 1
cache_invalidations_top      0
compile_errors               1
compiles                     4
drift_checks_skipped         3
errors                       1
flushes                      0
optimizer_iterations         0
optimizer_rules_accepted     0
optimizer_rules_considered   1
optimizer_rules_property_rejected 0
optimizer_rules_rejected     1
plan_cache_evictions         0
plan_cache_hits              1
plan_cache_misses            4
plan_drift_events            0
profiled_queries             3
queries                      8
result_cache_evictions       0
result_cache_hits            3
result_cache_misses          4
result_cache_spared          1
result_cache_stale           1
result_keys                  8
sampled_executions           3
slow_profile_rerun           1
slow_profile_reused          6
slow_queries                 7
== hit rates ==
plan_cache                   20.0%
result_cache                 42.9%
== latency histograms ==
compile                      n=3 mean= <t>ms min= <t>ms max= <t>ms p50= <t>ms p95= <t>ms p99= <t>ms
execute                      n=4 mean= <t>ms min= <t>ms max= <t>ms p50= <t>ms p95= <t>ms p99= <t>ms
optimize                     n=3 mean= <t>ms min= <t>ms max= <t>ms p50= <t>ms p95= <t>ms p99= <t>ms
optimize_iteration           n=3 mean= <t>ms min= <t>ms max= <t>ms p50= <t>ms p95= <t>ms p99= <t>ms
parse                        n=3 mean= <t>ms min= <t>ms max= <t>ms p50= <t>ms p95= <t>ms p99= <t>ms
query                        n=8 mean= <t>ms min= <t>ms max= <t>ms p50= <t>ms p95= <t>ms p99= <t>ms
== page I/O ==
logical_reads                249
physical_reads               0
page_writes                  0
evictions                    0
allocations                  3
hit_ratio                    1.000
|}

let golden_snapshot_json =
  {|{"counters": {"adaptive_replans": 0, "cache_invalidations_epoch": 0, "cache_invalidations_footprint": 1, "cache_invalidations_top": 0, "compile_errors": 1, "compiles": 4, "drift_checks_skipped": 3, "errors": 1, "flushes": 0, "optimizer_iterations": 0, "optimizer_rules_accepted": 0, "optimizer_rules_considered": 1, "optimizer_rules_property_rejected": 0, "optimizer_rules_rejected": 1, "plan_cache_evictions": 0, "plan_cache_hits": 1, "plan_cache_misses": 4, "plan_drift_events": 0, "profiled_queries": 3, "queries": 8, "result_cache_evictions": 0, "result_cache_hits": 3, "result_cache_misses": 4, "result_cache_spared": 1, "result_cache_stale": 1, "result_keys": 8, "sampled_executions": 3, "slow_profile_rerun": 1, "slow_profile_reused": 6, "slow_queries": 7}, "hit_rates": {"plan_cache": 0.2, "result_cache": 0.428571}, "histograms": {"compile": {"count": 3, "sum_ms": <t>, "mean_ms": <t>, "min_ms": <t>, "max_ms": <t>, "p50_ms": <t>, "p95_ms": <t>, "p99_ms": <t>}, "execute": {"count": 4, "sum_ms": <t>, "mean_ms": <t>, "min_ms": <t>, "max_ms": <t>, "p50_ms": <t>, "p95_ms": <t>, "p99_ms": <t>}, "optimize": {"count": 3, "sum_ms": <t>, "mean_ms": <t>, "min_ms": <t>, "max_ms": <t>, "p50_ms": <t>, "p95_ms": <t>, "p99_ms": <t>}, "optimize_iteration": {"count": 3, "sum_ms": <t>, "mean_ms": <t>, "min_ms": <t>, "max_ms": <t>, "p50_ms": <t>, "p95_ms": <t>, "p99_ms": <t>}, "parse": {"count": 3, "sum_ms": <t>, "mean_ms": <t>, "min_ms": <t>, "max_ms": <t>, "p50_ms": <t>, "p95_ms": <t>, "p99_ms": <t>}, "query": {"count": 8, "sum_ms": <t>, "mean_ms": <t>, "min_ms": <t>, "max_ms": <t>, "p50_ms": <t>, "p95_ms": <t>, "p99_ms": <t>}}, "io": {"logical_reads": 249, "physical_reads": 0, "page_writes": 0, "evictions": 0, "allocations": 3, "hit_ratio": 1.0}}|}

let golden_openmetrics =
  {|# TYPE vamana_adaptive_replans counter
vamana_adaptive_replans_total 0
# TYPE vamana_compile_errors counter
vamana_compile_errors_total 1
# TYPE vamana_compiles counter
vamana_compiles_total 4
# TYPE vamana_drift_checks_skipped counter
vamana_drift_checks_skipped_total 3
# TYPE vamana_errors counter
vamana_errors_total 1
# TYPE vamana_flushes counter
vamana_flushes_total 0
# TYPE vamana_optimizer_iterations counter
vamana_optimizer_iterations_total 0
# TYPE vamana_optimizer_rules_accepted counter
vamana_optimizer_rules_accepted_total 0
# TYPE vamana_optimizer_rules_considered counter
vamana_optimizer_rules_considered_total 1
# TYPE vamana_optimizer_rules_property_rejected counter
vamana_optimizer_rules_property_rejected_total 0
# TYPE vamana_optimizer_rules_rejected counter
vamana_optimizer_rules_rejected_total 1
# TYPE vamana_plan_cache_evictions counter
vamana_plan_cache_evictions_total 0
# TYPE vamana_plan_cache_hits counter
vamana_plan_cache_hits_total 1
# TYPE vamana_plan_cache_misses counter
vamana_plan_cache_misses_total 4
# TYPE vamana_plan_drift_events counter
vamana_plan_drift_events_total 0
# TYPE vamana_profiled_queries counter
vamana_profiled_queries_total 3
# TYPE vamana_queries counter
vamana_queries_total 8
# TYPE vamana_result_cache_evictions counter
vamana_result_cache_evictions_total 0
# TYPE vamana_result_cache_hits counter
vamana_result_cache_hits_total 3
# TYPE vamana_result_cache_misses counter
vamana_result_cache_misses_total 4
# TYPE vamana_result_cache_spared counter
vamana_result_cache_spared_total 1
# TYPE vamana_result_cache_stale counter
vamana_result_cache_stale_total 1
# TYPE vamana_result_keys counter
vamana_result_keys_total 8
# TYPE vamana_sampled_executions counter
vamana_sampled_executions_total 3
# TYPE vamana_slow_profile_rerun counter
vamana_slow_profile_rerun_total 1
# TYPE vamana_slow_profile_reused counter
vamana_slow_profile_reused_total 6
# TYPE vamana_slow_queries counter
vamana_slow_queries_total 7
# TYPE vamana_cache_invalidations counter
vamana_cache_invalidations_total{reason="epoch"} 0
vamana_cache_invalidations_total{reason="footprint"} 1
vamana_cache_invalidations_total{reason="top"} 0
# TYPE vamana_plan_cache_hit_ratio gauge
vamana_plan_cache_hit_ratio 0.2
# TYPE vamana_result_cache_hit_ratio gauge
vamana_result_cache_hit_ratio 0.428571
# TYPE vamana_compile_seconds histogram
vamana_compile_seconds_bucket{le="1e-06"} <t>
vamana_compile_seconds_bucket{le="2.5e-06"} <t>
vamana_compile_seconds_bucket{le="5e-06"} <t>
vamana_compile_seconds_bucket{le="1e-05"} <t>
vamana_compile_seconds_bucket{le="2.5e-05"} <t>
vamana_compile_seconds_bucket{le="5e-05"} <t>
vamana_compile_seconds_bucket{le="0.0001"} <t>
vamana_compile_seconds_bucket{le="0.00025"} <t>
vamana_compile_seconds_bucket{le="0.0005"} <t>
vamana_compile_seconds_bucket{le="0.001"} <t>
vamana_compile_seconds_bucket{le="0.0025"} <t>
vamana_compile_seconds_bucket{le="0.005"} <t>
vamana_compile_seconds_bucket{le="0.01"} <t>
vamana_compile_seconds_bucket{le="0.025"} <t>
vamana_compile_seconds_bucket{le="0.05"} <t>
vamana_compile_seconds_bucket{le="0.1"} <t>
vamana_compile_seconds_bucket{le="0.25"} <t>
vamana_compile_seconds_bucket{le="0.5"} <t>
vamana_compile_seconds_bucket{le="1.0"} <t>
vamana_compile_seconds_bucket{le="2.5"} <t>
vamana_compile_seconds_bucket{le="5.0"} <t>
vamana_compile_seconds_bucket{le="10.0"} <t>
vamana_compile_seconds_bucket{le="+Inf"} <t>
vamana_compile_seconds_sum <t>
vamana_compile_seconds_count 3
# TYPE vamana_execute_seconds histogram
vamana_execute_seconds_bucket{le="1e-06"} <t>
vamana_execute_seconds_bucket{le="2.5e-06"} <t>
vamana_execute_seconds_bucket{le="5e-06"} <t>
vamana_execute_seconds_bucket{le="1e-05"} <t>
vamana_execute_seconds_bucket{le="2.5e-05"} <t>
vamana_execute_seconds_bucket{le="5e-05"} <t>
vamana_execute_seconds_bucket{le="0.0001"} <t>
vamana_execute_seconds_bucket{le="0.00025"} <t>
vamana_execute_seconds_bucket{le="0.0005"} <t>
vamana_execute_seconds_bucket{le="0.001"} <t>
vamana_execute_seconds_bucket{le="0.0025"} <t>
vamana_execute_seconds_bucket{le="0.005"} <t>
vamana_execute_seconds_bucket{le="0.01"} <t>
vamana_execute_seconds_bucket{le="0.025"} <t>
vamana_execute_seconds_bucket{le="0.05"} <t>
vamana_execute_seconds_bucket{le="0.1"} <t>
vamana_execute_seconds_bucket{le="0.25"} <t>
vamana_execute_seconds_bucket{le="0.5"} <t>
vamana_execute_seconds_bucket{le="1.0"} <t>
vamana_execute_seconds_bucket{le="2.5"} <t>
vamana_execute_seconds_bucket{le="5.0"} <t>
vamana_execute_seconds_bucket{le="10.0"} <t>
vamana_execute_seconds_bucket{le="+Inf"} <t>
vamana_execute_seconds_sum <t>
vamana_execute_seconds_count 4
# TYPE vamana_optimize_seconds histogram
vamana_optimize_seconds_bucket{le="1e-06"} <t>
vamana_optimize_seconds_bucket{le="2.5e-06"} <t>
vamana_optimize_seconds_bucket{le="5e-06"} <t>
vamana_optimize_seconds_bucket{le="1e-05"} <t>
vamana_optimize_seconds_bucket{le="2.5e-05"} <t>
vamana_optimize_seconds_bucket{le="5e-05"} <t>
vamana_optimize_seconds_bucket{le="0.0001"} <t>
vamana_optimize_seconds_bucket{le="0.00025"} <t>
vamana_optimize_seconds_bucket{le="0.0005"} <t>
vamana_optimize_seconds_bucket{le="0.001"} <t>
vamana_optimize_seconds_bucket{le="0.0025"} <t>
vamana_optimize_seconds_bucket{le="0.005"} <t>
vamana_optimize_seconds_bucket{le="0.01"} <t>
vamana_optimize_seconds_bucket{le="0.025"} <t>
vamana_optimize_seconds_bucket{le="0.05"} <t>
vamana_optimize_seconds_bucket{le="0.1"} <t>
vamana_optimize_seconds_bucket{le="0.25"} <t>
vamana_optimize_seconds_bucket{le="0.5"} <t>
vamana_optimize_seconds_bucket{le="1.0"} <t>
vamana_optimize_seconds_bucket{le="2.5"} <t>
vamana_optimize_seconds_bucket{le="5.0"} <t>
vamana_optimize_seconds_bucket{le="10.0"} <t>
vamana_optimize_seconds_bucket{le="+Inf"} <t>
vamana_optimize_seconds_sum <t>
vamana_optimize_seconds_count 3
# TYPE vamana_optimize_iteration_seconds histogram
vamana_optimize_iteration_seconds_bucket{le="1e-06"} <t>
vamana_optimize_iteration_seconds_bucket{le="2.5e-06"} <t>
vamana_optimize_iteration_seconds_bucket{le="5e-06"} <t>
vamana_optimize_iteration_seconds_bucket{le="1e-05"} <t>
vamana_optimize_iteration_seconds_bucket{le="2.5e-05"} <t>
vamana_optimize_iteration_seconds_bucket{le="5e-05"} <t>
vamana_optimize_iteration_seconds_bucket{le="0.0001"} <t>
vamana_optimize_iteration_seconds_bucket{le="0.00025"} <t>
vamana_optimize_iteration_seconds_bucket{le="0.0005"} <t>
vamana_optimize_iteration_seconds_bucket{le="0.001"} <t>
vamana_optimize_iteration_seconds_bucket{le="0.0025"} <t>
vamana_optimize_iteration_seconds_bucket{le="0.005"} <t>
vamana_optimize_iteration_seconds_bucket{le="0.01"} <t>
vamana_optimize_iteration_seconds_bucket{le="0.025"} <t>
vamana_optimize_iteration_seconds_bucket{le="0.05"} <t>
vamana_optimize_iteration_seconds_bucket{le="0.1"} <t>
vamana_optimize_iteration_seconds_bucket{le="0.25"} <t>
vamana_optimize_iteration_seconds_bucket{le="0.5"} <t>
vamana_optimize_iteration_seconds_bucket{le="1.0"} <t>
vamana_optimize_iteration_seconds_bucket{le="2.5"} <t>
vamana_optimize_iteration_seconds_bucket{le="5.0"} <t>
vamana_optimize_iteration_seconds_bucket{le="10.0"} <t>
vamana_optimize_iteration_seconds_bucket{le="+Inf"} <t>
vamana_optimize_iteration_seconds_sum <t>
vamana_optimize_iteration_seconds_count 3
# TYPE vamana_parse_seconds histogram
vamana_parse_seconds_bucket{le="1e-06"} <t>
vamana_parse_seconds_bucket{le="2.5e-06"} <t>
vamana_parse_seconds_bucket{le="5e-06"} <t>
vamana_parse_seconds_bucket{le="1e-05"} <t>
vamana_parse_seconds_bucket{le="2.5e-05"} <t>
vamana_parse_seconds_bucket{le="5e-05"} <t>
vamana_parse_seconds_bucket{le="0.0001"} <t>
vamana_parse_seconds_bucket{le="0.00025"} <t>
vamana_parse_seconds_bucket{le="0.0005"} <t>
vamana_parse_seconds_bucket{le="0.001"} <t>
vamana_parse_seconds_bucket{le="0.0025"} <t>
vamana_parse_seconds_bucket{le="0.005"} <t>
vamana_parse_seconds_bucket{le="0.01"} <t>
vamana_parse_seconds_bucket{le="0.025"} <t>
vamana_parse_seconds_bucket{le="0.05"} <t>
vamana_parse_seconds_bucket{le="0.1"} <t>
vamana_parse_seconds_bucket{le="0.25"} <t>
vamana_parse_seconds_bucket{le="0.5"} <t>
vamana_parse_seconds_bucket{le="1.0"} <t>
vamana_parse_seconds_bucket{le="2.5"} <t>
vamana_parse_seconds_bucket{le="5.0"} <t>
vamana_parse_seconds_bucket{le="10.0"} <t>
vamana_parse_seconds_bucket{le="+Inf"} <t>
vamana_parse_seconds_sum <t>
vamana_parse_seconds_count 3
# TYPE vamana_query_seconds histogram
vamana_query_seconds_bucket{le="1e-06"} <t>
vamana_query_seconds_bucket{le="2.5e-06"} <t>
vamana_query_seconds_bucket{le="5e-06"} <t>
vamana_query_seconds_bucket{le="1e-05"} <t>
vamana_query_seconds_bucket{le="2.5e-05"} <t>
vamana_query_seconds_bucket{le="5e-05"} <t>
vamana_query_seconds_bucket{le="0.0001"} <t>
vamana_query_seconds_bucket{le="0.00025"} <t>
vamana_query_seconds_bucket{le="0.0005"} <t>
vamana_query_seconds_bucket{le="0.001"} <t>
vamana_query_seconds_bucket{le="0.0025"} <t>
vamana_query_seconds_bucket{le="0.005"} <t>
vamana_query_seconds_bucket{le="0.01"} <t>
vamana_query_seconds_bucket{le="0.025"} <t>
vamana_query_seconds_bucket{le="0.05"} <t>
vamana_query_seconds_bucket{le="0.1"} <t>
vamana_query_seconds_bucket{le="0.25"} <t>
vamana_query_seconds_bucket{le="0.5"} <t>
vamana_query_seconds_bucket{le="1.0"} <t>
vamana_query_seconds_bucket{le="2.5"} <t>
vamana_query_seconds_bucket{le="5.0"} <t>
vamana_query_seconds_bucket{le="10.0"} <t>
vamana_query_seconds_bucket{le="+Inf"} <t>
vamana_query_seconds_sum <t>
vamana_query_seconds_count 8
# TYPE vamana_page_logical_reads counter
vamana_page_logical_reads_total 249
# TYPE vamana_page_physical_reads counter
vamana_page_physical_reads_total 0
# TYPE vamana_page_writes counter
vamana_page_writes_total 0
# TYPE vamana_page_evictions counter
vamana_page_evictions_total 0
# TYPE vamana_page_allocations counter
vamana_page_allocations_total 3
# TYPE vamana_page_write_back_bytes counter
vamana_page_write_back_bytes_total 0
# TYPE vamana_page_hit_ratio gauge
vamana_page_hit_ratio 1.0
# TYPE vamana_pool_logical_reads counter
vamana_pool_logical_reads_total{index="doc_index"} 87
vamana_pool_logical_reads_total{index="name_index"} 148
vamana_pool_logical_reads_total{index="value_index"} 14
# TYPE vamana_pool_physical_reads counter
vamana_pool_physical_reads_total{index="doc_index"} 0
vamana_pool_physical_reads_total{index="name_index"} 0
vamana_pool_physical_reads_total{index="value_index"} 0
# TYPE vamana_pool_writes counter
vamana_pool_writes_total{index="doc_index"} 0
vamana_pool_writes_total{index="name_index"} 0
vamana_pool_writes_total{index="value_index"} 0
# TYPE vamana_pool_evictions counter
vamana_pool_evictions_total{index="doc_index"} 0
vamana_pool_evictions_total{index="name_index"} 0
vamana_pool_evictions_total{index="value_index"} 0
# TYPE vamana_pool_allocations counter
vamana_pool_allocations_total{index="doc_index"} 1
vamana_pool_allocations_total{index="name_index"} 1
vamana_pool_allocations_total{index="value_index"} 1
# TYPE vamana_pool_write_back_bytes counter
vamana_pool_write_back_bytes_total{index="doc_index"} 0
vamana_pool_write_back_bytes_total{index="name_index"} 0
vamana_pool_write_back_bytes_total{index="value_index"} 0
# TYPE vamana_plan_drift_score gauge
vamana_plan_drift_score{plan="//item"} 0.0
vamana_plan_drift_score{plan="//person"} 0.0
vamana_plan_drift_score{plan="//person/name"} 0.0
vamana_plan_drift_score{plan="//person["} 0.0
# TYPE vamana_plan_replans counter
vamana_plan_replans_total{plan="//item"} 0
vamana_plan_replans_total{plan="//person"} 0
vamana_plan_replans_total{plan="//person/name"} 0
vamana_plan_replans_total{plan="//person["} 0
# TYPE vamana_plan_samples counter
vamana_plan_samples_total{plan="//item"} 1
vamana_plan_samples_total{plan="//person"} 1
vamana_plan_samples_total{plan="//person/name"} 1
vamana_plan_samples_total{plan="//person["} 0
# EOF
|}

let test_snapshots () =
  with_clean_bus @@ fun () ->
  let store, _, service = served () in
  check_golden "snapshot_text" golden_snapshot_text (scrub_ms (Service.snapshot_text service));
  check_golden "snapshot_json" golden_snapshot_json
    (scrub_json_ms (Service.snapshot_json service));
  check_golden "openmetrics" golden_openmetrics
    (scrub_openmetrics
       (Metrics.to_openmetrics ~io:(Store.io_stats store) ~pools:(Store.io_by_index store)
          ~plan_health:
            (Vamana_service.Health.openmetrics_families (Service.health service))
          (Service.metrics service)))

(* a service that has served nothing: the counter schema alone *)
let golden_fresh_openmetrics =
  {|# TYPE vamana_adaptive_replans counter
vamana_adaptive_replans_total 0
# TYPE vamana_compile_errors counter
vamana_compile_errors_total 0
# TYPE vamana_compiles counter
vamana_compiles_total 0
# TYPE vamana_drift_checks_skipped counter
vamana_drift_checks_skipped_total 0
# TYPE vamana_errors counter
vamana_errors_total 0
# TYPE vamana_flushes counter
vamana_flushes_total 0
# TYPE vamana_optimizer_iterations counter
vamana_optimizer_iterations_total 0
# TYPE vamana_optimizer_rules_accepted counter
vamana_optimizer_rules_accepted_total 0
# TYPE vamana_optimizer_rules_considered counter
vamana_optimizer_rules_considered_total 0
# TYPE vamana_optimizer_rules_property_rejected counter
vamana_optimizer_rules_property_rejected_total 0
# TYPE vamana_optimizer_rules_rejected counter
vamana_optimizer_rules_rejected_total 0
# TYPE vamana_plan_cache_evictions counter
vamana_plan_cache_evictions_total 0
# TYPE vamana_plan_cache_hits counter
vamana_plan_cache_hits_total 0
# TYPE vamana_plan_cache_misses counter
vamana_plan_cache_misses_total 0
# TYPE vamana_plan_drift_events counter
vamana_plan_drift_events_total 0
# TYPE vamana_profiled_queries counter
vamana_profiled_queries_total 0
# TYPE vamana_queries counter
vamana_queries_total 0
# TYPE vamana_result_cache_evictions counter
vamana_result_cache_evictions_total 0
# TYPE vamana_result_cache_hits counter
vamana_result_cache_hits_total 0
# TYPE vamana_result_cache_misses counter
vamana_result_cache_misses_total 0
# TYPE vamana_result_cache_spared counter
vamana_result_cache_spared_total 0
# TYPE vamana_result_cache_stale counter
vamana_result_cache_stale_total 0
# TYPE vamana_result_keys counter
vamana_result_keys_total 0
# TYPE vamana_sampled_executions counter
vamana_sampled_executions_total 0
# TYPE vamana_slow_profile_rerun counter
vamana_slow_profile_rerun_total 0
# TYPE vamana_slow_profile_reused counter
vamana_slow_profile_reused_total 0
# TYPE vamana_slow_queries counter
vamana_slow_queries_total 0
# TYPE vamana_cache_invalidations counter
vamana_cache_invalidations_total{reason="epoch"} 0
vamana_cache_invalidations_total{reason="footprint"} 0
vamana_cache_invalidations_total{reason="top"} 0
# TYPE vamana_plan_drift_score gauge
# TYPE vamana_plan_replans counter
# TYPE vamana_plan_samples counter
# EOF
|}

let test_fresh_openmetrics () =
  let store = Store.create ~backend:Store.Mem ~pool_pages:64 () in
  let service = Service.create store in
  check_golden "fresh openmetrics" golden_fresh_openmetrics
    (Metrics.to_openmetrics (Service.metrics service))

(* ---- bus events ---- *)

let fixed_events =
  let ev seq ts severity category name attrs = { Obs.seq; ts; severity; category; name; attrs } in
  [ ev 0 0.00125 Obs.Info "query" "parse"
      [ ("query", Obs.Str "//a[.=\"x\ty\"]"); ("dur_ms", Obs.Float 0.5) ];
    ev 1 0.0025 Obs.Debug "storage" "eviction"
      [ ("index", Obs.Str "name"); ("page", Obs.Int 17); ("dirty", Obs.Bool true) ];
    ev 2 0.003 Obs.Info "query" "execute"
      [ ("query", Obs.Str "back\\slash\n"); ("dur_ms", Obs.Float 1.0); ("qid", Obs.Int 7) ];
    ev 3 0.004 Obs.Warn "service" "slow_query"
      [ ("total_ms", Obs.Float 2.0); ("drift", Obs.Float nan); ("ratio", Obs.Float 1e20);
        ("share", Obs.Float 0.333333333) ];
    ev 4 0.0041 Obs.Error "service" "query_error"
      [ ("error", Obs.Str "ctl\001"); ("dur_ms", Obs.Int 3) ];
    ev 5 infinity Obs.Info "engine" "static_empty_skip" [] ]

let golden_events_json =
  {|{"seq":0,"ts":0.00125,"severity":"info","category":"query","name":"parse","attrs":{"query":"//a[.=\"x\ty\"]","dur_ms":0.5}}
{"seq":1,"ts":0.0025,"severity":"debug","category":"storage","name":"eviction","attrs":{"index":"name","page":17,"dirty":true}}
{"seq":2,"ts":0.003,"severity":"info","category":"query","name":"execute","attrs":{"query":"back\\slash\n","dur_ms":1.0,"qid":7}}
{"seq":3,"ts":0.004,"severity":"warn","category":"service","name":"slow_query","attrs":{"total_ms":2.0,"drift":null,"ratio":1e+20,"share":0.333333}}
{"seq":4,"ts":0.0041,"severity":"error","category":"service","name":"query_error","attrs":{"error":"ctl\u0001","dur_ms":3}}
{"seq":5,"ts":null,"severity":"info","category":"engine","name":"static_empty_skip","attrs":{}}|}

let golden_chrome =
  {|{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"golden"}},{"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0,"args":{"name":"query"}},{"name":"thread_name","ph":"M","pid":1,"tid":2,"ts":0,"args":{"name":"service"}},{"name":"thread_name","ph":"M","pid":1,"tid":3,"ts":0,"args":{"name":"storage"}},{"name":"parse","cat":"query","ph":"B","pid":1,"tid":1,"ts":750.000,"args":{"severity":"info","query":"//a[.=\"x\ty\"]","dur_ms":0.5}},{"name":"query_error","cat":"service","ph":"B","pid":1,"tid":2,"ts":1100.000,"args":{"severity":"error","error":"ctl\u0001","dur_ms":3}},{"name":"parse","cat":"query","ph":"E","pid":1,"tid":1,"ts":1250.000},{"name":"execute","cat":"query","ph":"B","pid":1,"tid":1,"ts":2000.000,"args":{"severity":"info","query":"back\\slash\n","dur_ms":1.0,"qid":7}},{"name":"eviction","cat":"storage","ph":"i","s":"t","pid":1,"tid":3,"ts":2500.000,"args":{"severity":"debug","index":"name","page":17,"dirty":true}},{"name":"execute","cat":"query","ph":"E","pid":1,"tid":1,"ts":3000.000},{"name":"slow_query","cat":"service","ph":"i","s":"t","pid":1,"tid":2,"ts":4000.000,"args":{"severity":"warn","total_ms":2.0,"drift":null,"ratio":1e+20,"share":0.333333}},{"name":"query_error","cat":"service","ph":"E","pid":1,"tid":2,"ts":4100.000}],"displayTimeUnit":"ms"}|}

let test_events () =
  check_golden "to_json_string" golden_events_json
    (String.concat "\n" (List.map Obs.to_json_string fixed_events));
  check_golden "to_chrome" golden_chrome
    (Obs.Trace.to_chrome ~process_name:"golden"
       (List.filter (fun e -> Float.is_finite e.Obs.ts) fixed_events))

(* ---- flight frames ---- *)

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let with_dir f =
  let dir = Filename.temp_file "vamana_golden" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let read_log dir = In_channel.with_open_bin (Filename.concat dir Flight.file_name) In_channel.input_all

(* frame = magic u32, kind u8, length u32, crc u32, payload *)
let frames log =
  let rec go pos acc =
    if pos >= String.length log then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_le log (pos + 5)) in
      go (pos + 13 + len) (String.sub log pos (13 + len) :: acc)
  in
  go 0 []

(* mask [n] bytes at [off] of a frame, for timestamps (and the CRC that
   covers them) *)
let mask frame spans =
  let b = Bytes.of_string frame in
  List.iter (fun (off, n) -> Bytes.fill b off n '\xee') spans;
  Bytes.to_string b

let golden_flight_direct =
  {|56464c540129000000eeeeeeee2a000000000000000300000000000000eeeeeeeeeeeeeeee0d0000002f2f706572736f6e2f6e616d65
56464c54036b00000076001b602a0000000000000001040000006d697373d2040000000000003800000000000000070000000000000059000000000000000100000000000000020000000000000003000000000000007b68e5cf8b0100000d0000002f2f706572736f6e2f6e616d6501b0710b0000000000|}

let golden_flight_served =
  {|56464c540129000000eeeeeeee01000000000000000100000000000000eeeeeeeeeeeeeeee0d0000002f2f706572736f6e2f6e616d65
56464c54036b000000eeeeeeee010000000000000001040000006d697373eeeeeeeeeeeeeeee300000000000000000000000000000000000000000000000000000000000000002000000000000000100000000000000eeeeeeeeeeeeeeee0d0000002f2f706572736f6e2f6e616d65010000000000000000|}

let test_flight_frames () =
  with_dir (fun dir ->
      let fr = Flight.open_dir ~dir () in
      Flight.record_begin fr ~qid:42 ~epoch:3 ~source:"//person/name";
      Flight.record_end fr
        { Flight.qid = 42; source = "//person/name"; ok = true; cache = "miss"; latency_us = 1234;
          pages_read = 56; physical_reads = 7; wal_bytes = 89; fsyncs = 1; results = 2; epoch = 3;
          at_ms = 1_700_000_000_123; sampled = true; drift = 0.75 };
      Flight.close fr;
      match frames (read_log dir) with
      | [ b; e ] ->
          (* the begin frame's start time is wall clock: mask it and the CRC *)
          check_golden "flight direct" golden_flight_direct
            (hex (mask b [ (9, 4); (13 + 16, 8) ]) ^ "\n" ^ hex e)
      | fs -> Alcotest.failf "expected 2 frames, got %d" (List.length fs));
  with_clean_bus @@ fun () ->
  with_dir (fun dir ->
      let store = Store.create ~backend:Store.Mem ~pool_pages:64 () in
      let doc = Store.load store ~name:"g.xml" (Xml.Parser.parse doc_xml) in
      let fr = Flight.open_dir ~dir () in
      let service = Service.create ~flight:fr store in
      (match Service.query service ~context:doc.Store.doc_key "//person/name" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      Flight.close fr;
      match frames (read_log dir) with
      | [ b; e ] ->
          (* end payload: qid u64, ok u8, cache str (u32 + 4 bytes
             "miss"), latency u64 at 17, ..., at_ms u64 at 73 *)
          check_golden "flight served" golden_flight_served
            (hex (mask b [ (9, 4); (13 + 16, 8) ])
            ^ "\n"
            ^ hex (mask e [ (9, 4); (13 + 17, 8); (13 + 73, 8) ]))
      | fs -> Alcotest.failf "expected 2 frames, got %d" (List.length fs))

(* ---- EXPLAIN ANALYZE ---- *)

let golden_explain_text =
  {|Query: //person[watch]/name
1 results
execution profile: <t> ms, root q-error 2, max operator q-error 2
R# est{COUNT=2 IN=2 OUT=2} act{out=1 next=2 reset=0 cursors=0 t= <t>ms io=0/0} q=2
  Φ# child::name est{COUNT=3 IN=2 OUT=2} act{out=1 next=2 reset=0 cursors=1 t= <t>ms io=3/0} q=2
    Φ# descendant::person est{COUNT=2 IN=2 OUT=2} act{out=1 next=2 reset=0 cursors=1 t= <t>ms io=4/0} q=2
      ξ exists Φ# child::watch est{COUNT=1 IN=2 OUT=1} act{out=1 next=2 reset=2 cursors=2 t= <t>ms io=4/0} q=1
spans:
  parse <t> ms
  typecheck <t> ms
  compile <t> ms
  optimize <t> ms  iteration=1 accepted=null considered=1 rejected=1 property_rejected=0
  execute <t> ms
Static properties:
R#  {unordered, distinct, nesting?, card≤3}
  Φ# child::name  {unordered, distinct, nesting?, card≤3}
    Φ# descendant::person  {doc-order, distinct, nesting?, card≤2}
      ξ
        Φ# child::watch  {doc-order, distinct, disjoint, card≤1}
Footprint: tag:name tag:person tag:watch
Attributed I/O (qid 1): pages_read=59 physical_reads=0 evictions=0 wal_bytes=0 fsyncs=0
|}

let golden_explain_json =
  {|{"query": "//person[watch]/name", "results": 1, "report": {"total_ms": <t>, "root_q_error": 2.0, "max_q_error": 2.0, "spans": [{"name": "parse", "ms": <t>}, {"name": "typecheck", "ms": <t>}, {"name": "compile", "ms": <t>}, {"name": "optimize", "ms": <t>, "iteration": 1, "accepted": null, "considered": 1, "rejected": 1, "property_rejected": 0}, {"name": "execute", "ms": <t>}], "plan": {"id": #, "op": "R#", "estimated": {"count": 2, "in": 2, "out": 2, "selectivity": 1.0}, "actual": {"tuples": 1, "next_calls": 2, "resets": 0, "cursor_opens": 0, "started": 1, "exhausted": 1, "self_ms": <t>, "logical_reads": 0, "physical_reads": 0}, "q_error": 2.0, "context": {"id": #, "op": "Φ# child::name", "estimated": {"count": 3, "in": 2, "out": 2, "selectivity": 1.0}, "actual": {"tuples": 1, "next_calls": 2, "resets": 0, "cursor_opens": 1, "started": 1, "exhausted": 1, "self_ms": <t>, "logical_reads": 3, "physical_reads": 0}, "q_error": 2.0, "context": {"id": #, "op": "Φ# descendant::person", "estimated": {"count": 2, "in": 2, "out": 2, "selectivity": 1.0}, "actual": {"tuples": 1, "next_calls": 2, "resets": 0, "cursor_opens": 1, "started": 1, "exhausted": 1, "self_ms": <t>, "logical_reads": 4, "physical_reads": 0}, "q_error": 2.0, "predicates": [{"label": "ξ exists", "plan": {"id": #, "op": "Φ# child::watch", "estimated": {"count": 1, "in": 2, "out": 1, "selectivity": 2.0}, "actual": {"tuples": 1, "next_calls": 2, "resets": 2, "cursor_opens": 2, "started": 2, "exhausted": 1, "self_ms": <t>, "logical_reads": 4, "physical_reads": 0}, "q_error": 1.0}}]}}}}, "analysis": {"statically_empty": false, "root": {"order": "unordered", "distinct": true, "no_nesting": false, "card_max": 3}, "operators": [{"id": #, "op": "R#", "order": "unordered", "distinct": true, "no_nesting": false, "card_max": 3}, {"id": #, "op": "Φ# child::name", "order": "unordered", "distinct": true, "no_nesting": false, "card_max": 3}, {"id": #, "op": "Φ# descendant::person", "order": "doc-order", "distinct": true, "no_nesting": false, "card_max": 2}, {"id": #, "op": "Φ# child::watch", "order": "doc-order", "distinct": true, "no_nesting": true, "card_max": 1}], "diagnostics": []}, "footprint": {"top": false, "tags": ["name", "person", "watch"], "kinds": [], "values": [], "cones": []}, "attribution": {"qid": 2, "pages_read": 41, "physical_reads": 0, "evictions": 0, "wal_bytes": 0, "fsyncs": 0}}|}

let test_explain_analyze () =
  with_clean_bus @@ fun () ->
  let store = Store.create ~backend:Store.Mem ~pool_pages:64 () in
  let doc = Store.load store ~name:"g.xml" (Xml.Parser.parse doc_xml) in
  let get = function Ok s -> s | Error e -> Alcotest.fail e in
  check_golden "explain analyze text" golden_explain_text
    (scrub_ids (scrub_ms (get (Vamana.Engine.explain_analyze store doc "//person[watch]/name"))));
  check_golden "explain analyze json" golden_explain_json
    (scrub_ids
       (scrub_json_ms (get (Vamana.Engine.explain_analyze ~json:true store doc "//person[watch]/name"))))

(* ---- EXPLAIN ---- *)

let golden_explain_plain =
  {|Query: //name/parent::person
Default plan:
R#  {unordered, dups?, nesting?, card≤2}  {COUNT=2 IN=2 OUT=2}
  Φ# parent::person  {unordered, dups?, nesting?, card≤2}  {COUNT=2 IN=3 OUT=2}
    Φ# child::name  {unordered, distinct, nesting?, card≤3}  {COUNT=3 IN=14 OUT=3}
      Φ# descendant-or-self::node()  {doc-order, distinct, nesting?, card≤16}  {COUNT=16 IN=16 OUT=14}

applied parent-elim at Φ# parent::person: cost 7 -> 6
Optimized plan (1 iterations):
R#  {doc-order, distinct, nesting?, card≤2}  {COUNT=2 IN=2 OUT=2}
  Φ# descendant-or-self::person  {doc-order, distinct, nesting?, card≤2}  {COUNT=2 IN=2 OUT=2}
    ξ
      Φ# child::name  {doc-order, distinct, disjoint, card≤3}  {COUNT=3 IN=2 OUT=2}

Footprint: tag:name tag:person
Query: //person/mailbox
Default plan:
R#  {doc-order, distinct, disjoint, card≤0}  {COUNT=0 IN=0 OUT=0}
  Φ# child::mailbox  {doc-order, distinct, disjoint, card≤0}  {COUNT=0 IN=2 OUT=0}
    Φ# child::person  {unordered, distinct, nesting?, card≤2}  {COUNT=2 IN=14 OUT=2}
      Φ# descendant-or-self::node()  {doc-order, distinct, nesting?, card≤16}  {COUNT=16 IN=16 OUT=14}

Executed plan (optimizer skipped: the path synopsis proves the query empty):
R#  {doc-order, distinct, disjoint, card≤0}  {COUNT=0 IN=0 OUT=0}
  Φ# child::mailbox  {doc-order, distinct, disjoint, card≤0}  {COUNT=0 IN=2 OUT=0}
    Φ# child::person  {unordered, distinct, nesting?, card≤2}  {COUNT=2 IN=14 OUT=2}
      Φ# descendant-or-self::node()  {doc-order, distinct, nesting?, card≤16}  {COUNT=16 IN=16 OUT=14}

Statically empty: execution will be skipped
Diagnostics:
  warning [empty-step] Φ# child::mailbox: no child::mailbox nodes in scope (COUNT = 0): step is provably empty
Footprint: kind:comment kind:document kind:element kind:pi kind:text tag:mailbox tag:person
Query: //person[watch]/name | //item/name
-- branch 1 of 2 --
Default plan:
R#  {unordered, distinct, nesting?, card≤3}  {COUNT=2 IN=2 OUT=2}
  Φ# child::name  {unordered, distinct, nesting?, card≤3}  {COUNT=3 IN=2 OUT=2}
    Φ# child::person  {unordered, distinct, nesting?, card≤2}  {COUNT=2 IN=14 OUT=2}
      ξ
        Φ# child::watch  {doc-order, distinct, disjoint, card≤1}  {COUNT=1 IN=2 OUT=1}
      Φ# descendant-or-self::node()  {doc-order, distinct, nesting?, card≤16}  {COUNT=16 IN=16 OUT=14}

Optimized plan (0 iterations):
R#  {unordered, distinct, nesting?, card≤3}  {COUNT=2 IN=2 OUT=2}
  Φ# child::name  {unordered, distinct, nesting?, card≤3}  {COUNT=3 IN=2 OUT=2}
    Φ# descendant::person  {doc-order, distinct, nesting?, card≤2}  {COUNT=2 IN=2 OUT=2}
      ξ
        Φ# child::watch  {doc-order, distinct, disjoint, card≤1}  {COUNT=1 IN=2 OUT=1}

-- branch 2 of 2 --
Default plan:
R#  {doc-order, distinct, disjoint, card≤3}  {COUNT=1 IN=1 OUT=1}
  Φ# child::name  {doc-order, distinct, disjoint, card≤3}  {COUNT=3 IN=1 OUT=1}
    Φ# child::item  {doc-order, distinct, disjoint, card≤1}  {COUNT=1 IN=14 OUT=1}
      Φ# descendant-or-self::node()  {doc-order, distinct, nesting?, card≤16}  {COUNT=16 IN=16 OUT=14}

Optimized plan (0 iterations):
R#  {doc-order, distinct, disjoint, card≤3}  {COUNT=1 IN=1 OUT=1}
  Φ# child::name  {doc-order, distinct, disjoint, card≤3}  {COUNT=3 IN=1 OUT=1}
    Φ# descendant::item  {doc-order, distinct, disjoint, card≤1}  {COUNT=1 IN=1 OUT=1}

Footprint: tag:item tag:name tag:person tag:watch
|}

(* a rewrite trace, a schema-empty query and a union's branches *)
let test_explain () =
  let store = Store.create ~backend:Store.Mem ~pool_pages:64 () in
  let doc = Store.load store ~name:"g.xml" (Xml.Parser.parse doc_xml) in
  let explain q =
    match Vamana.Engine.explain store doc q with
    | Ok text -> "Query: " ^ q ^ "\n" ^ text
    | Error e -> Alcotest.fail e
  in
  check_golden "explain" golden_explain_plain
    (scrub_ids
       (scrub_ms
          (String.concat ""
             (List.map explain
                [ "//name/parent::person"; "//person/mailbox"; "//person[watch]/name | //item/name" ]))))

(* ---- slow-query table ---- *)

let golden_slow_log =
  {|query                                          qid         ms  results   plan result   pages wal_bytes fsyncs  drift
//person/name                                    1        <t>        2   miss   miss      48         0      0   0.00
//person/name                                    2        <t>        2    hit    hit       0         0      0   0.00
// person / name                                 3        <t>        2    hit    hit       0         0      0   0.00
//item                                           4        <t>        1   miss   miss      11         0      0   0.00
//person/name                                    7        <t>        2    hit  stale      17         0      0   0.00
//item                                           8        <t>        1    hit    hit       0         0      0   0.00
//person                                         9        <t>        3   miss      -      34         0      0   0.00|}

let test_slow_log () =
  with_clean_bus @@ fun () ->
  let _, _, service = served () in
  (* the ms column (11 characters after the 50-character query/qid
     prefix) is the run's latency *)
  let row sq =
    let r = Service.slow_log_row sq in
    String.sub r 0 50 ^ Printf.sprintf " %10s" placeholder ^ String.sub r 61 (String.length r - 61)
  in
  check_golden "slow log" golden_slow_log
    (String.concat "\n" (Service.slow_log_header :: List.map (fun (_, r) -> row r) (Service.slow_queries service)))

let suite =
  ( "golden",
    [ Alcotest.test_case "metrics snapshots" `Quick test_snapshots;
      Alcotest.test_case "fresh openmetrics" `Quick test_fresh_openmetrics;
      Alcotest.test_case "bus events" `Quick test_events;
      Alcotest.test_case "flight frames" `Quick test_flight_frames;
      Alcotest.test_case "explain analyze" `Quick test_explain_analyze;
      Alcotest.test_case "explain" `Quick test_explain;
      Alcotest.test_case "slow-query table" `Quick test_slow_log ] )

(* Tests for the plan-health subsystem: sampler cadence and its
   allocation-free hot path, silence on unsampled executions, the
   drift-detection -> adaptive-replan loop end to end, replan backoff,
   and sampled-profile determinism against an explicit profiled run. *)

module Store = Mass.Store
module Service = Vamana_service.Service
module Metrics = Vamana_service.Metrics
module Health = Vamana_service.Health

let counter service = Metrics.counter (Service.metrics service)

let base_doc =
  "<site><people><person id='p1'><name>Ada</name><address><city>Turin</city></address></person>\
   <person id='p2'><name>Grace</name><address><city>Arlington</city></address></person>\
   </people></site>"

let setup ?sample_every ?drift_threshold () =
  let store = Store.create () in
  let doc = Store.load_string store ~name:"t.xml" base_doc in
  (* result cache off: a served answer skips execution and the sampler
     counts real executions only *)
  let service =
    Service.create ~result_cache_capacity:0 ?sample_every ?drift_threshold store
  in
  (store, doc, service)

let run service doc q =
  match Service.query_doc service doc q with
  | Ok o -> o
  | Error e -> Alcotest.failf "query %s failed: %s" q e

let people_key store doc =
  match Vamana.Engine.query_doc store doc "/site/people" with
  | Ok r -> List.hd r.Vamana.Engine.keys
  | Error e -> Alcotest.fail e

(* ---- sampler ---- *)

let test_sampler_cadence () =
  let h = Health.create ~sample_every:4 () in
  let r = Health.record h ~key:"k" ~query:"q" ~scope:"" ~optimized:true in
  let picks = List.init 12 (fun _ -> Health.note_execution h r) in
  Alcotest.(check (list bool)) "first always, then every 4th"
    [ true; false; false; false; true; false; false; false; true; false; false; false ]
    picks;
  Alcotest.(check int) "executions counted" 12 r.Health.hr_executions;
  let off = Health.create ~sample_every:0 () in
  let r0 = Health.record off ~key:"k" ~query:"q" ~scope:"" ~optimized:true in
  Alcotest.(check bool) "sample_every 0 disables" false (Health.note_execution off r0)

let test_sampler_zero_alloc () =
  let h = Health.create ~sample_every:16 () in
  let r = Health.record h ~key:"k" ~query:"q" ~scope:"" ~optimized:true in
  ignore (Health.note_execution h r);
  (* the unsampled hot path must not allocate: integer countdown in
     mutable fields only.  Minor-heap words are a direct allocation
     meter; the slack covers Gc.minor_words's own boxing. *)
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Health.note_execution h r)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10k executions allocated %.0f minor words" words)
    true (words <= 256.0)

let test_unsampled_executions_are_silent () =
  let _, doc, service = setup ~sample_every:1000 () in
  Obs.reset ();
  Obs.attach_ring ~capacity:256 ();
  Fun.protect
    ~finally:(fun () ->
      Obs.detach_ring ();
      Obs.reset ())
    (fun () ->
      for _ = 1 to 5 do
        ignore (run service doc "//person")
      done;
      let last = run service doc "//person" in
      Alcotest.(check bool) "unsampled run carries no profile" true
        (last.Service.result.Vamana.Engine.record.Vamana.Engine.profile = None);
      Alcotest.(check int) "only the baseline was sampled" 1
        (counter service "sampled_executions");
      let health_events =
        List.filter (fun (e : Obs.event) -> e.Obs.category = "health") (Obs.drain ())
      in
      Alcotest.(check int) "no health events without drift" 0 (List.length health_events))

(* ---- drift detection -> adaptive replan, end to end ---- *)

let test_drift_detection_and_replan () =
  let store, doc, service = setup ~sample_every:1 () in
  Obs.reset ();
  Obs.attach_ring ~capacity:256 ();
  Fun.protect
    ~finally:(fun () ->
      Obs.detach_ring ();
      Obs.reset ())
    (fun () ->
      let q = "//person/address" in
      (* baseline: estimates are honest, drift stays 0 *)
      ignore (run service doc q);
      (* churn: 7x the person/address population, every newcomer carrying
         an address so the refreshed synopsis prices the plan exactly *)
      let people = people_key store doc in
      for i = 1 to 12 do
        let p =
          Store.insert_element store ~parent:people "person"
            [ ("id", Printf.sprintf "n%d" i) ] None
        in
        ignore (Store.insert_element store ~parent:p "address" [] (Some "somewhere"))
      done;
      (* sampled run against stale estimates: actual 14 vs estimated 2
         crosses the default threshold in one sample *)
      let drifted = run service doc q in
      Alcotest.(check bool) "plan served from cache" true
        (drifted.Service.plan_cache = `Hit);
      Alcotest.(check int) "drift event fired" 1 (counter service "plan_drift_events");
      (* next request transparently re-prepares *)
      let replanned = run service doc q in
      Alcotest.(check bool) "adaptive replan surfaced as `Stale" true
        (replanned.Service.plan_cache = `Stale);
      Alcotest.(check int) "replan counted" 1 (counter service "adaptive_replans");
      Alcotest.(check int) "all results found" 14
        (List.length replanned.Service.result.Vamana.Engine.keys);
      (* the replan schedules an immediate verification sample; fresh
         statistics price every operator within 1.5x *)
      (match replanned.Service.result.Vamana.Engine.record.Vamana.Engine.profile with
      | None -> Alcotest.fail "replanned run was not sampled"
      | Some rep ->
          Alcotest.(check bool)
            (Printf.sprintf "post-replan per-op q-error %.2f <= 1.5"
               rep.Vamana.Profile.max_q_error)
            true
            (rep.Vamana.Profile.max_q_error <= 1.5));
      let events = Obs.drain () in
      let names (c : string) =
        List.filter_map
          (fun (e : Obs.event) -> if e.Obs.category = c then Some e.Obs.name else None)
          events
      in
      Alcotest.(check (list string)) "bus saw the state machine"
        [ "plan_drift"; "adaptive_replan" ] (names "health");
      (* record state after recovery *)
      match Health.records (Service.health service) with
      | [ r ] ->
          Alcotest.(check bool) "no longer stale" false (Health.stale r);
          Alcotest.(check int) "one replan on the record" 1 r.Health.hr_replans;
          Alcotest.(check bool) "drift decayed below threshold" true
            (r.Health.hr_drift < Health.default_drift_threshold)
      | rs -> Alcotest.failf "expected one health record, got %d" (List.length rs))

let test_replan_backoff () =
  (* a record whose drift a replan cannot cure must not replan on every
     sample: each replan doubles the cooldown *)
  let h = Health.create ~sample_every:1 ~drift_threshold:0.5 () in
  let r = Health.record h ~key:"k" ~query:"q" ~scope:"" ~optimized:true in
  let node =
    { Vamana.Profile.id = 0; label = "op"; est = None; act = None;
      q_error = Some 16.0; preds = []; context = None }
  in
  let rep =
    { Vamana.Profile.plan = node; spans = []; total_time = 0.0;
      root_q_error = 16.0; max_q_error = 16.0 }
  in
  let run =
    Vamana.Engine.measure (Mass.Store.create ()) ignore
    @@ fun () ~qid ~latency:_ ~io ~wal_bytes ~fsyncs ->
    { Vamana.Engine.qid; source = "q"; spans = []; exec_io = io; io; wal_bytes; fsyncs;
      latency = 0.0; results = 0; profile = Some rep; plan_cache = `Miss; result_cache = `Miss;
      sampled = true; drift = 0.0; epoch = 1; error = None }
  in
  let observe () = ignore (Health.observe h r run) in
  let replans_after n =
    for _ = 1 to n do
      observe ();
      if Health.stale r then Health.note_replan h r ~epoch:1
    done;
    r.Health.hr_replans
  in
  (* 20 bad samples: without backoff that would be ~20 replans; the
     exponential cooldown (2, 4, 8, 16 samples) admits at most 5 *)
  let total = replans_after 20 in
  Alcotest.(check bool) (Printf.sprintf "%d replans over 20 bad samples" total) true
    (total <= 5 && total >= 2)

(* ---- sampled profile = explicit profile (EXPLAIN ANALYZE parity) ---- *)

(* operator labels embed per-compile plan ids, so parity is judged on
   tree shape and collected tuple counts, not display strings *)
let rec actuals (n : Vamana.Profile.node) =
  let own =
    match n.Vamana.Profile.act with
    | Some s -> s.Vamana.Profile.tuples
    | None -> -1
  in
  (own :: List.concat_map (fun (_, p) -> actuals p) n.Vamana.Profile.preds)
  @ (match n.Vamana.Profile.context with Some c -> actuals c | None -> [])

let test_sampled_profile_matches_explain_analyze () =
  let store, doc, service = setup ~sample_every:1 () in
  let q = "//person/address" in
  let sampled = run service doc q in
  let service_rep =
    match sampled.Service.result.Vamana.Engine.record.Vamana.Engine.profile with
    | Some rep -> rep
    | None -> Alcotest.fail "sample_every 1 must profile every execution"
  in
  let explicit_rep =
    match Vamana.Engine.query store ~context:doc.Store.doc_key ~profile:true q with
    | Ok r -> Option.get r.Vamana.Engine.record.Vamana.Engine.profile
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list int)) "same per-operator actuals"
    (actuals explicit_rep.Vamana.Profile.plan)
    (actuals service_rep.Vamana.Profile.plan);
  Alcotest.(check (float 1e-9)) "same per-operator q-errors"
    explicit_rep.Vamana.Profile.max_q_error service_rep.Vamana.Profile.max_q_error

let suite =
  ( "health",
    [ Alcotest.test_case "sampler cadence" `Quick test_sampler_cadence;
      Alcotest.test_case "sampler hot path allocates nothing" `Quick test_sampler_zero_alloc;
      Alcotest.test_case "unsampled executions are silent" `Quick
        test_unsampled_executions_are_silent;
      Alcotest.test_case "drift detection and adaptive replan" `Quick
        test_drift_detection_and_replan;
      Alcotest.test_case "replan backoff" `Quick test_replan_backoff;
      Alcotest.test_case "sampled profile matches explain analyze" `Quick
        test_sampled_profile_matches_explain_analyze ] )

module Store = Mass.Store

let log_src = Logs.Src.create "vamana.engine" ~doc:"VAMANA engine facade"

module Log = (val Logs.src_log log_src)

type cache = [ `Hit | `Miss | `Stale | `Bypass ]

type record = {
  qid : int;
  source : string;
  spans : Profile.span list;
  exec_io : Storage.Stats.t;
  io : Storage.Stats.t;
  wal_bytes : int;
  fsyncs : int;
  latency : float;
  results : int;
  profile : Profile.report option;
  plan_cache : cache;
  result_cache : cache;
  sampled : bool;
  drift : float;
  epoch : int;
  error : string option;
}

type result = {
  keys : Flex.t list;
  default_plan : Plan.op;
  executed_plan : Plan.op;
  optimizer : Optimizer.outcome option;
  compile_time : float;
  optimize_time : float;
  execute_time : float;
  analysis : Analysis.t;
  record : record;
}

(* ---- the query window ----

   Every query runs under an [Obs] context carrying its query id, so
   events emitted anywhere below (pager evictions, WAL appends, fsyncs)
   attribute to the query that caused them.  A caller that already
   established a qid context (the service does) wins; otherwise a fresh
   id is minted here. *)

(* the qid of the enclosing query context; 0 when there is none (ids
   start at 1) *)
let rec context_qid = function
  | ("qid", Obs.Int q) :: _ -> q
  | _ :: rest -> context_qid rest
  | [] -> 0

(* The one place a query is measured: clock, aggregate buffer-pool I/O
   and disk I/O over [f], under the query's qid.  [k] receives [f]'s
   value with the window's figures and builds the query's record from
   them — once, so no default record is allocated and copied.  The
   execute phase is measured by the same function nested inside the
   query's window; its I/O becomes the record's [exec_io]. *)
let rec measure store f k =
  match context_qid (Obs.context ()) with
  | 0 ->
      let qid = Obs.fresh_query_id () in
      Obs.with_context [ ("qid", Obs.Int qid) ] (fun () -> measure store f k)
  | qid -> (
      let io0 = Storage.Stats.copy (Store.io_stats store) in
      let disk0 = Option.map Storage.Disk.copy_io (Store.disk_io store) in
      let t0 = Obs.clock () in
      let x = f () in
      let latency = Obs.clock () -. t0 in
      let io = Storage.Stats.diff (Store.io_stats store) io0 in
      match (disk0, Store.disk_io store) with
      | Some before, Some live ->
          let d = Storage.Disk.diff_io live before in
          k x ~qid ~latency ~io ~wal_bytes:d.Storage.Disk.wal_bytes_written
            ~fsyncs:d.Storage.Disk.fsyncs
      | _ -> k x ~qid ~latency ~io ~wal_bytes:0 ~fsyncs:0)

let scope_of_context context = if Flex.depth context = 0 then None else Some (Flex.prefix context 1)

(* [scope = scope_of_context context], without building the scope *)
let in_scope scope context =
  match scope with
  | None -> Flex.depth context = 0
  | Some s -> Flex.depth s = 1 && Flex.is_ancestor_or_self s context

(* a top-level union evaluates as independent plans whose result sets
   merge; each branch is optimized separately *)
let rec union_branches (e : Xpath.Ast.expr) =
  match e with
  | Xpath.Ast.Binop (Xpath.Ast.Union, a, b) -> (
      match (union_branches a, union_branches b) with
      | Some xs, Some ys -> Some (xs @ ys)
      | _ -> None)
  | Xpath.Ast.Path p -> Some [ p ]
  | _ -> None

type prepared = {
  source : string;
  default_plans : Plan.op list;  (** one per union branch *)
  executed_plans : Plan.op list;
  outcomes : Optimizer.outcome list option;
  analyses : Analysis.t list;
  prep_report : Xpath.Typecheck.report;
  prep_footprint : Footprint.t;
  prep_scope : Flex.t option;
  prep_epoch : int;
  prep_compile_time : float;
  prep_optimize_time : float;
  prep_spans : Profile.span list;
}

(* one span per optimizer iteration, carrying the accepted rule and the
   considered/rejected counts of that iteration's search *)
let iteration_spans (o : Optimizer.outcome) =
  List.mapi
    (fun i (s : Optimizer.iteration_stat) ->
      Profile.span "optimize"
        ~meta:
          [ ("iteration", Profile.Json.Int (i + 1));
            ( "accepted",
              match s.Optimizer.accepted with
              | Some rule -> Profile.Json.Str rule
              | None -> Profile.Json.Null );
            ("considered", Profile.Json.Int s.Optimizer.considered);
            ("rejected", Profile.Json.Int s.Optimizer.rejected);
            ("property_rejected", Profile.Json.Int s.Optimizer.property_rejected) ]
        s.Optimizer.duration)
    o.Optimizer.iteration_stats

let prepare ?(optimize = true) store ~scope src =
  (* each phase's duration is the difference of successive clock
     readings at the phase boundaries *)
  let t_parse = Obs.clock () in
  match Xpath.Parser.parse_spanned src with
  | exception (Xpath.Parser.Error _ as exn) ->
      Error (Option.value ~default:"parse error" (Xpath.Parser.error_to_string exn))
  | ast, spans -> (
      let t_check = Obs.clock () in
      (* source-level static check against the path synopsis: runs before
         plan construction, so a schema-level emptiness proof suppresses
         the optimizer search and (context permitting) execution *)
      let prep_report =
        let schema = Mass.Synopsis.schema (Mass.Synopsis.for_store store) ~scope in
        Xpath.Typecheck.check ~schema ~spans ast
      in
      let t_compile = Obs.clock () in
      let compiled =
        match ast with
        | Xpath.Ast.Path p -> Ok [ Compile.compile_path p ]
        | ast -> (
            (* not a single path: try a union of paths *)
            match union_branches ast with
            | Some paths -> Ok (List.map Compile.compile_path paths)
            | None -> Error "expression is not a location path or union of paths")
      in
      let t_done = Obs.clock () in
      let parse_time = t_check -. t_parse
      and check_time = t_compile -. t_check
      and compile_only_time = t_done -. t_compile in
      match compiled with
      | Error msg -> Error msg
      | Ok default_plans ->
          let outcomes, optimize_time =
            if optimize && not prep_report.Xpath.Typecheck.rep_empty then
              let stats = Cost.synopsis_statistics store in
              let t_optimize = Obs.clock () in
              let os = List.map (Optimizer.optimize ~stats store ~scope) default_plans in
              (Some os, Obs.clock () -. t_optimize)
            else (None, 0.0)
          in
          let executed_plans =
            match outcomes with
            | Some os -> List.map (fun (o : Optimizer.outcome) -> o.Optimizer.plan) os
            | None -> default_plans
          in
          let prep_spans =
            [ Profile.span "parse" parse_time;
              Profile.span "typecheck" check_time;
              Profile.span "compile" compile_only_time ]
            @ (match outcomes with
              | Some (o :: _) -> iteration_spans o
              | Some [] | None -> [])
          in
          let analyses = List.map (Analysis.analyze store ~scope) executed_plans in
          let prep_footprint = Footprint.of_plans executed_plans in
          Ok
            { source = src; default_plans; executed_plans; outcomes; analyses; prep_report;
              prep_footprint; prep_scope = scope; prep_epoch = Store.epoch store;
              prep_compile_time = parse_time +. check_time +. compile_only_time;
              prep_optimize_time = optimize_time; prep_spans })

(* telemetry: primitive span metadata rides along as event attributes *)
let attrs_of_meta meta =
  List.filter_map
    (fun (k, v) ->
      match (v : Profile.Json.t) with
      | Profile.Json.Int i -> Some (k, Obs.Int i)
      | Profile.Json.Float f -> Some (k, Obs.Float f)
      | Profile.Json.Str s -> Some (k, Obs.Str s)
      | Profile.Json.Bool b -> Some (k, Obs.Bool b)
      | Profile.Json.Null | Profile.Json.Arr _ | Profile.Json.Obj _ -> None)
    meta

(* the bus fold of an executed query: one [query/<phase>] event per
   span, then the per-index I/O of the run *)
let emit_query_events store ~context (r : record) by_index_before =
  let doc_name =
    match Store.document_of_key store context with
    | Some d -> d.Store.doc_name
    | None -> ""
  in
  List.iter
    (fun (s : Profile.span) ->
      Obs.emit ~category:"query" s.Profile.name
        (("query", Obs.Str r.source)
         :: ("dur_ms", Obs.Float (s.Profile.dur *. 1000.))
         :: attrs_of_meta s.Profile.meta))
    r.spans;
  List.iter2
    (fun (name, before) (name', live) ->
      assert (String.equal name name');
      let d = Storage.Stats.diff live before in
      if d.Storage.Stats.logical_reads > 0 || d.Storage.Stats.physical_reads > 0 then
        Obs.emit ~category:"storage" "query_io"
          [ ("index", Obs.Str name);
            ("doc", Obs.Str doc_name);
            ("query", Obs.Str r.source);
            ("logical_reads", Obs.Int d.Storage.Stats.logical_reads);
            ("physical_reads", Obs.Int d.Storage.Stats.physical_reads);
            ("evictions", Obs.Int d.Storage.Stats.evictions);
            ("hit_ratio", Obs.Float (Storage.Stats.hit_ratio d)) ])
    by_index_before (Store.io_by_index store)

(* a statically-empty plan is skipped without instantiating the executor *)
let skip p plan a =
  if Analysis.statically_empty a then begin
    if Obs.active () then
      Obs.emit ~category:"engine" "static_empty_skip"
        [ ("query", Obs.Str p.source); ("plan", Obs.Str (Plan.kind_to_string (Plan.leaf plan))) ];
    true
  end
  else false

let execute_prepared ?(profile = false) store ~context p =
  let pctx = if profile then Some (Profile.create store) else None in
  let observed = Obs.active () in
  let by_index_before =
    if observed then
      List.map (fun (n, s) -> (n, Storage.Stats.copy s)) (Store.io_by_index store)
    else []
  in
  (* prepared analyses are statistics snapshots: reusable exactly while
     the store reports the preparation epoch and the context stays in the
     analyzed scope; otherwise re-derive (cheap, index-count probes) *)
  let analyses =
    if p.prep_epoch = Store.epoch store && in_scope p.prep_scope context then p.analyses
    else
      List.map (Analysis.analyze store ~scope:(scope_of_context context)) p.executed_plans
  in
  (* The typecheck walk interprets the query with the document node as
     context, so its emptiness proof only transfers when this execution
     really starts there (and the store hasn't moved since preparation). *)
  let schema_skip =
    p.prep_report.Xpath.Typecheck.rep_empty
    && p.prep_epoch = Store.epoch store
    && (match p.prep_scope with
       | Some dk -> Flex.equal dk context
       | None -> Flex.depth context = 0)
  in
  measure store
    (fun () ->
      if schema_skip then begin
        if Obs.active () then
          Obs.emit ~category:"engine" "static_empty_skip"
            [ ("query", Obs.Str p.source); ("source", Obs.Str "synopsis") ];
        []
      end
      else
        match (p.executed_plans, analyses) with
        | [ plan ], [ a ] ->
            if skip p plan a then []
            else
              let rp = a.Analysis.root_props in
              if rp.Analysis.order = Analysis.Doc && rp.Analysis.distinct then
                (* the analyzer proved the raw stream sorted and
                   duplicate-free: the final sort_uniq is a no-op *)
                Exec.run_raw ?profile:pctx store ~context plan
              else Exec.run ?profile:pctx store ~context plan
        | plans, analyses ->
            (* union branches execute independently; the result sets merge *)
            List.sort_uniq Flex.compare
              (List.concat
                 (List.map2
                    (fun plan a ->
                      if skip p plan a then [] else Exec.run ?profile:pctx store ~context plan)
                    plans analyses)))
  @@ fun keys ~qid ~latency ~io ~wal_bytes ~fsyncs ->
  let spans = p.prep_spans @ [ Profile.span "execute" latency ] in
  let profile =
    Option.map
      (fun ctx ->
        (* a union profiles every branch into one context; the annotated
           tree reports the first branch (matching the plan fields) *)
        let plan = List.hd p.executed_plans in
        let cost =
          match p.outcomes with
          | Some (o :: _) -> o.Optimizer.cost
          | Some [] | None -> Cost.estimate store ~scope:(scope_of_context context) plan
        in
        Profile.make ctx ~cost ~spans ~total_time:latency plan)
      pctx
  in
  let record =
    { qid; source = p.source; spans; exec_io = io; io; wal_bytes; fsyncs; latency;
      results = List.length keys; profile; plan_cache = `Bypass; result_cache = `Bypass;
      sampled = false; drift = 0.0; epoch = Store.epoch store; error = None }
  in
  if observed then emit_query_events store ~context record by_index_before;
  Log.debug (fun m ->
      m "%s: %d results, compile %.3fms opt %.3fms exec %.3fms, %d page reads" p.source
        record.results (p.prep_compile_time *. 1000.) (p.prep_optimize_time *. 1000.)
        (latency *. 1000.) io.Storage.Stats.logical_reads);
  { keys;
    default_plan = List.hd p.default_plans;
    executed_plan = List.hd p.executed_plans;
    optimizer = Option.map List.hd p.outcomes;
    compile_time = p.prep_compile_time;
    optimize_time = p.prep_optimize_time;
    execute_time = latency;
    analysis = List.hd analyses;
    record }

let query ?optimize ?profile store ~context src =
  (* one window over prepare + execute: optimizer and synopsis probe
     reads belong to the query that triggered them, so a single query's
     record sums to the Stats globals *)
  measure store
    (fun () ->
      match prepare ?optimize store ~scope:(scope_of_context context) src with
      | Error _ as e -> e
      | Ok p -> Ok (execute_prepared ?profile store ~context p))
  @@ fun r ~qid:_ ~latency ~io ~wal_bytes ~fsyncs ->
  match r with
  | Ok r -> Ok { r with record = { r.record with io; wal_bytes; fsyncs; latency } }
  | Error _ as e -> e

let query_doc ?optimize ?profile store doc src =
  query ?optimize ?profile store ~context:doc.Store.doc_key src

let query_store ?optimize store src =
  (* one pipeline per document; results concatenate in store order because
     document roots are ordered FLEX components *)
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | doc :: rest -> (
        match query_doc ?optimize store doc src with
        | Ok r -> go ((doc, r) :: acc) rest
        | Error msg ->
            Error
              (Printf.sprintf "document %S (doc %d, %d of %d succeeded): %s"
                 doc.Store.doc_name doc.Store.doc_id (List.length acc)
                 (List.length (Store.documents store)) msg))
  in
  go [] (Store.documents store)

let eval store ~context src =
  match Xpath.Parser.parse src with
  | exception (Xpath.Parser.Error _ as exn) ->
      Error (Option.value ~default:"parse error" (Xpath.Parser.error_to_string exn))
  | ast -> (
      match Mass.Nav.E.eval store ~context ast with
      | v -> Ok v
      | exception Xpath.Eval.Unsupported msg -> Error msg)

let materialize store keys = List.filter_map (Store.get store) keys

(* EXPLAIN renders what [prepare] built — the plans that execute — costed
   with the synopsis statistics the optimizer saw, one block per union
   branch *)
let explain ?(optimize = true) store doc src =
  let scope = Some doc.Store.doc_key in
  match prepare ~optimize store ~scope src with
  | Error _ as e -> e
  | Ok p ->
      let stats = Cost.synopsis_statistics store in
      let buf = Buffer.create 512 in
      let ppf = Format.formatter_of_buffer buf in
      let branches = List.length p.default_plans in
      List.iteri
        (fun i default_plan ->
          let executed_plan = List.nth p.executed_plans i and a = List.nth p.analyses i in
          if branches > 1 then Format.fprintf ppf "-- branch %d of %d --@." (i + 1) branches;
          let costed = Cost.estimate ~stats store ~scope default_plan in
          Format.fprintf ppf "Default plan:@.%a@."
            (Analysis.pp_annotated ~costed (Analysis.analyze store ~scope default_plan))
            default_plan;
          (match p.outcomes with
          | Some os ->
              let o = List.nth os i in
              List.iter
                (fun (t : Optimizer.trace_entry) ->
                  Format.fprintf ppf "applied %s at %s: cost %d -> %d@." t.Optimizer.rule
                    t.Optimizer.target t.Optimizer.cost_before t.Optimizer.cost_after)
                o.Optimizer.trace;
              Format.fprintf ppf "Optimized plan (%d iterations):@.%a@." o.Optimizer.iterations
                (Analysis.pp_annotated ~costed:o.Optimizer.cost a) executed_plan
          | None ->
              Format.fprintf ppf "Executed plan (%s):@.%a@."
                (if optimize then "optimizer skipped: the path synopsis proves the query empty"
                 else "optimizer off")
                (Analysis.pp_annotated ~costed a) executed_plan);
          if Analysis.statically_empty a then
            Format.fprintf ppf "Statically empty: execution will be skipped@.";
          match a.Analysis.diagnostics with
          | [] -> ()
          | ds ->
              Format.fprintf ppf "Diagnostics:@.";
              List.iter
                (fun d -> Format.fprintf ppf "  %s@." (Analysis.diagnostic_to_string d))
                ds)
        p.default_plans;
      Format.fprintf ppf "Footprint: %s@." (Footprint.to_string p.prep_footprint);
      Format.pp_print_flush ppf ();
      Ok (Buffer.contents buf)

let explain_analyze ?(optimize = true) ?(json = false) store doc src =
  match query ~optimize ~profile:true store ~context:doc.Store.doc_key src with
  | Error _ as e -> e
  | Ok r -> (
      match r.record.profile with
      | None -> Error "profiling produced no report"
      | Some rep ->
          if json then
            Ok
              (Profile.Json.to_string
                 (Profile.Json.Obj
                    [ ("query", Profile.Json.Str src);
                      ("results", Profile.Json.Int (List.length r.keys));
                      ("report", Profile.render_json rep);
                      ("analysis", Analysis.to_json r.analysis r.executed_plan);
                      ("footprint", Footprint.to_json (Footprint.of_plan r.executed_plan));
                      ( "attribution",
                        let a = r.record in
                        Profile.Json.Obj
                          [ ("qid", Profile.Json.Int a.qid);
                            ("pages_read", Profile.Json.Int a.io.Storage.Stats.logical_reads);
                            ("physical_reads", Profile.Json.Int a.io.Storage.Stats.physical_reads);
                            ("evictions", Profile.Json.Int a.io.Storage.Stats.evictions);
                            ("wal_bytes", Profile.Json.Int a.wal_bytes);
                            ("fsyncs", Profile.Json.Int a.fsyncs) ] ) ]))
          else
            let props_section =
              Format.asprintf "Static properties:@.%a"
                (Analysis.pp_annotated ?costed:None r.analysis)
                r.executed_plan
            in
            let diag_section =
              match r.analysis.Analysis.diagnostics with
              | [] -> ""
              | ds ->
                  "Diagnostics:\n"
                  ^ String.concat "\n"
                      (List.map (fun d -> "  " ^ Analysis.diagnostic_to_string d) ds)
                  ^ "\n"
            in
            let footprint_section =
              Printf.sprintf "Footprint: %s\n"
                (Footprint.to_string (Footprint.of_plan r.executed_plan))
            in
            let attr_section =
              let a = r.record in
              Printf.sprintf
                "Attributed I/O (qid %d): pages_read=%d physical_reads=%d evictions=%d wal_bytes=%d fsyncs=%d\n"
                a.qid a.io.Storage.Stats.logical_reads a.io.Storage.Stats.physical_reads
                a.io.Storage.Stats.evictions a.wal_bytes a.fsyncs
            in
            Ok
              (Printf.sprintf "Query: %s\n%d results\n%s%s%s%s%s" src (List.length r.keys)
                 (Profile.render_text rep) props_section diag_section footprint_section
                 attr_section))

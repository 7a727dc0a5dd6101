(* Tests for EXPLAIN ANALYZE: per-operator actuals, q-error joins against
   the cost model, trace spans, JSON round-tripping, and the guarantee
   that the profile-off path stays free of profile structures. *)

open Vamana
module Store = Mass.Store
module J = Profile.Json

let doc_src =
  {xml|<root>
  <a><b>one</b><b>two</b><c/></a>
  <a><b>three</b></a>
  <a><c/></a>
</root>|xml}

let setup () =
  let store = Store.create () in
  let doc = Store.load_string store ~name:"t.xml" doc_src in
  (store, doc)

let compile src =
  match Compile.compile_query src with Ok p -> p | Error e -> Alcotest.fail e

(* profile a plan without the optimizer so operator shapes are known *)
let profile_run store ~context plan =
  let ctx = Profile.create store in
  let keys = Exec.run ~profile:ctx store ~context plan in
  let cost = Cost.estimate store ~scope:(Vamana.Engine.scope_of_context context) plan in
  (keys, Profile.make ctx ~cost ~total_time:0.0 plan)

let rec collect node acc =
  let acc = node :: acc in
  let acc = List.fold_left (fun acc (_, sub) -> collect sub acc) acc node.Profile.preds in
  match node.Profile.context with Some c -> collect c acc | None -> acc

let actual_of node =
  match node.Profile.act with Some s -> s | None -> Alcotest.fail "operator has no actuals"

let test_operator_tuple_counts () =
  let store, doc = setup () in
  let ctx = doc.Store.doc_key in
  (* default plan for //a/b: R -> child::b -> descendant::a *)
  let keys, report = profile_run store ~context:ctx (compile "//a/b") in
  Alcotest.(check int) "three b results" 3 (List.length keys);
  let root = report.Profile.plan in
  let step_b = Option.get root.Profile.context in
  let step_a = Option.get step_b.Profile.context in
  Alcotest.(check int) "root emits 3 tuples" 3 (actual_of root).Profile.tuples;
  Alcotest.(check int) "child::b emits 3 tuples" 3 (actual_of step_b).Profile.tuples;
  Alcotest.(check int) "descendant::a emits 3 tuples" 3 (actual_of step_a).Profile.tuples;
  (* child::b opens one cursor per context tuple from descendant::a; the
     descendant leaf re-seeks as it walks the subtree, so only > 0 there *)
  Alcotest.(check int) "child::b opens 3 cursors" 3 (actual_of step_b).Profile.cursor_opens;
  Alcotest.(check bool) "descendant::a opened cursors" true
    ((actual_of step_a).Profile.cursor_opens > 0);
  (* every operator was pulled one call past its last tuple *)
  List.iter
    (fun n ->
      let s = actual_of n in
      Alcotest.(check bool)
        (Printf.sprintf "%s: next_calls > tuples" s.Profile.label)
        true
        (s.Profile.next_calls > s.Profile.tuples))
    (collect root [])

let test_predicate_rerooting_counts () =
  let store, doc = setup () in
  (* //a[b]: the exists sub-plan is re-rooted once per candidate a *)
  let _, report = profile_run store ~context:doc.Store.doc_key (compile "//a[b]") in
  let step_a = Option.get report.Profile.plan.Profile.context in
  match step_a.Profile.preds with
  | [ (label, sub) ] ->
      Alcotest.(check string) "predicate label" "ξ exists" label;
      let s = actual_of sub in
      Alcotest.(check int) "re-rooted per candidate" 3 s.Profile.resets;
      (* two of the three a elements have a b child; the sub-plan stops at
         the first witness so it emits exactly one tuple per success *)
      Alcotest.(check int) "one witness per passing candidate" 2 s.Profile.tuples
  | _ -> Alcotest.fail "expected exactly one predicate sub-plan"

let test_exact_count_q_error_is_one () =
  let store, doc = setup () in
  (* descendant::b from the root: the estimate is the exact name-index
     COUNT (the paper's case 1), so est = act and q-error = 1 everywhere *)
  let keys, report = profile_run store ~context:doc.Store.doc_key (compile "//b") in
  Alcotest.(check int) "three b elements" 3 (List.length keys);
  Alcotest.(check (float 0.0)) "root q-error exactly 1" 1.0 report.Profile.root_q_error;
  Alcotest.(check (float 0.0)) "max q-error exactly 1" 1.0 report.Profile.max_q_error

let test_q_error_definition () =
  Alcotest.(check (float 0.0)) "both zero" 1.0 (Profile.q_error ~est:0 ~act:0);
  Alcotest.(check (float 0.0)) "exact" 1.0 (Profile.q_error ~est:7 ~act:7);
  Alcotest.(check (float 1e-9)) "over-estimate" 2.5 (Profile.q_error ~est:5 ~act:2);
  Alcotest.(check (float 1e-9)) "under-estimate" 2.5 (Profile.q_error ~est:2 ~act:5);
  Alcotest.(check bool) "one-sided zero" true
    (Float.is_finite (Profile.q_error ~est:3 ~act:0) = false)

let test_profile_off_no_structures () =
  let store, doc = setup () in
  let plain =
    match Engine.query store ~context:doc.Store.doc_key "//a/b" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "no report without ~profile" true (plain.Engine.record.Engine.profile = None);
  let profiled =
    match Engine.query ~profile:true store ~context:doc.Store.doc_key "//a/b" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "report present with ~profile" true (profiled.Engine.record.Engine.profile <> None);
  Alcotest.(check (list string))
    "instrumentation does not change results"
    (List.map Flex.to_string plain.Engine.keys)
    (List.map Flex.to_string profiled.Engine.keys)

let test_spans () =
  let store, doc = setup () in
  let r =
    match Engine.query store ~context:doc.Store.doc_key "//a/b" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let names = List.map (fun (s : Profile.span) -> s.Profile.name) r.Engine.record.Engine.spans in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("span " ^ expected) true (List.mem expected names))
    [ "parse"; "compile"; "optimize"; "execute" ];
  (* the final optimize iteration is the fixpoint pass: accepted = null *)
  let optimize_spans =
    List.filter (fun (s : Profile.span) -> s.Profile.name = "optimize") r.Engine.record.Engine.spans
  in
  let last = List.nth optimize_spans (List.length optimize_spans - 1) in
  Alcotest.(check bool) "fixpoint iteration accepted nothing" true
    (List.assoc_opt "accepted" last.Profile.meta = Some J.Null);
  let o = Option.get r.Engine.optimizer in
  Alcotest.(check int) "one span per iteration stat"
    (List.length o.Optimizer.iteration_stats)
    (List.length optimize_spans);
  Alcotest.(check int) "iterations = admitted rewrites" o.Optimizer.iterations
    (List.length o.Optimizer.trace)

let test_json_round_trip () =
  let store, doc = setup () in
  let r =
    match Engine.query ~profile:true store ~context:doc.Store.doc_key "//a[b = 'two']" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let rep = Option.get r.Engine.record.Engine.profile in
  let v = Profile.render_json rep in
  let text = J.to_string v in
  (match J.of_string text with
  | Ok v' -> Alcotest.(check bool) "parse(render) = value" true (J.equal v v')
  | Error e -> Alcotest.fail ("rendered JSON failed to parse: " ^ e));
  (* spot-check the joined numbers survive the trip *)
  match J.of_string text with
  | Error e -> Alcotest.fail e
  | Ok v' -> (
      match J.member "plan" v' with
      | Some plan -> (
          match J.member "actual" plan with
          | Some actual ->
              Alcotest.(check bool) "root tuples in JSON" true
                (J.member "tuples" actual = Some (J.Int (List.length r.Engine.keys)))
          | None -> Alcotest.fail "plan.actual missing")
      | None -> Alcotest.fail "plan missing")

let test_json_parser_edges () =
  let round s =
    match J.of_string s with
    | Ok v -> J.to_string v
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd"|} (round {|"a\"b\\c\nd"|});
  Alcotest.(check string) "unicode escape" "\"\xc3\xa9\"" (round {|"é"|});
  Alcotest.(check string) "nested" {|{"a": [1, 2.5, null, true]}|}
    (round {| { "a" : [ 1 , 2.5 , null , true ] } |});
  (match J.of_string "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed object");
  (match J.of_string "[1, 2] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage");
  (* floats round-trip exactly, including awkward reprs *)
  List.iter
    (fun f ->
      match J.of_string (J.to_string (J.Float f)) with
      | Ok (J.Float f') -> Alcotest.(check (float 0.0)) (string_of_float f) f f'
      | Ok _ -> Alcotest.fail "float re-parsed as non-float"
      | Error e -> Alcotest.fail e)
    [ 0.1; 1.0 /. 3.0; 1e-9; 6.02e23; 0.70905685424804688 ];
  (* non-finite floats must not leak into the output *)
  Alcotest.(check string) "infinity renders as null" "null" (J.to_string (J.Float infinity));
  Alcotest.(check string) "nan renders as null" "null" (J.to_string (J.Float Float.nan))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_explain_analyze_render () =
  let store, doc = setup () in
  (match Engine.explain_analyze store doc "//a/b" with
  | Error e -> Alcotest.fail e
  | Ok text -> Alcotest.(check bool) "mentions q-error" true (contains ~sub:"q-error" text));
  match Engine.explain_analyze ~json:true store doc "//a/b" with
  | Error e -> Alcotest.fail e
  | Ok text -> (
      match J.of_string text with
      | Ok v ->
          Alcotest.(check bool) "results field" true
            (J.member "results" v = Some (J.Int 3))
      | Error e -> Alcotest.fail ("explain_analyze --json not valid JSON: " ^ e))

let suite =
  ( "profile",
    [ Alcotest.test_case "operator tuple counts" `Quick test_operator_tuple_counts;
      Alcotest.test_case "predicate re-rooting counts" `Quick test_predicate_rerooting_counts;
      Alcotest.test_case "exact counts give q-error 1.0" `Quick test_exact_count_q_error_is_one;
      Alcotest.test_case "q-error definition" `Quick test_q_error_definition;
      Alcotest.test_case "profile off leaves no structures" `Quick test_profile_off_no_structures;
      Alcotest.test_case "trace spans" `Quick test_spans;
      Alcotest.test_case "JSON report round-trips" `Quick test_json_round_trip;
      Alcotest.test_case "JSON parser edge cases" `Quick test_json_parser_edges;
      Alcotest.test_case "explain --analyze rendering" `Quick test_explain_analyze_render ] )

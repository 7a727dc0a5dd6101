(* Tests of the benchmark's own helpers: order statistics (checked
   against Python's statistics module on the same vectors), self time of
   nested spans, page attribution, and the correctness gate. *)

open Perfbench_core

let close = Alcotest.float 1e-9
let floats = Alcotest.(array (float 1e-9))

let test_median () =
  Alcotest.check close "odd" 3.0 (Quantile.median [| 5.0; 3.0; 1.0 |]);
  Alcotest.check close "even" 2.5 (Quantile.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check close "single" 7.0 (Quantile.median [| 7.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Quantile.median: no samples") (fun () ->
      ignore (Quantile.median [||]))

(* expected values: statistics.quantiles(xs, n=4) in Python 3 *)
let test_quartiles () =
  Alcotest.check floats "1..10" [| 2.75; 5.5; 8.25 |]
    (Quantile.quantiles ~n:4 (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check floats "unsorted three" [| 1.0; 2.0; 3.5 |]
    (Quantile.quantiles ~n:4 [| 3.5; 1.0; 2.0 |]);
  Alcotest.check floats "two points extrapolate" [| 0.0; 3.0; 6.0 |]
    (Quantile.quantiles ~n:4 [| 5.0; 1.0 |])

let test_p99 () =
  (* statistics.quantiles(range(1, 201), n=100)[98] = 198.99 *)
  Alcotest.check close "1..200" 198.99
    (Quantile.p99 (Array.init 200 (fun i -> float_of_int (i + 1))));
  let xs = Array.make 1000 1.0 in
  xs.(3) <- 50.0;
  Alcotest.check close "one outlier in 1000 stays below p99" 1.0 (Quantile.p99 xs)

let test_samples () =
  let s = Quantile.Samples.create () in
  for i = 1 to 5000 do
    Quantile.Samples.add s (float_of_int i)
  done;
  Alcotest.(check int) "length" 5000 (Quantile.Samples.length s);
  Alcotest.check close "last" 5000.0 (Quantile.Samples.to_array s).(4999)

let test_floors () =
  let f = Quantile.Floors.create () in
  Alcotest.check close "empty" 0.0 (Quantile.Floors.weighted f);
  List.iter (fun (c, x) -> Quantile.Floors.add f c x) [ ("a", 3.0); ("b", 10.0); ("a", 1.0); ("a", 2.0) ];
  Alcotest.(check int) "count" 4 (Quantile.Floors.count f);
  (* a: 3 of 4 samples, fastest 1; b: 1 of 4, fastest 10 *)
  Alcotest.check close "share-weighted minima" 3.25 (Quantile.Floors.weighted f)

let span ~id ~parent ~start ~stop ~reads =
  { Trace.id; name = Printf.sprintf "s%d" id; parent; request = 0; label = "";
    start_ns = Int64.of_int start; stop_ns = Int64.of_int stop; counters = [| reads |];
    minor_words = 0.0 }

let test_self_time () =
  (* op [0,100] has children a [10,40] and b [30,60] (overlapping) and c
     [90,120] (spilling past the parent); a has a grandchild [15,25] *)
  let spans =
    [| span ~id:0 ~parent:(-1) ~start:0 ~stop:100 ~reads:10;
       span ~id:1 ~parent:0 ~start:10 ~stop:40 ~reads:4;
       span ~id:2 ~parent:1 ~start:15 ~stop:25 ~reads:1;
       span ~id:3 ~parent:0 ~start:30 ~stop:60 ~reads:6;
       span ~id:4 ~parent:0 ~start:90 ~stop:120 ~reads:0 |]
  in
  let self = Trace.self_ns spans in
  Alcotest.(check (array int64)) "self" [| 40L; 20L; 10L; 30L; 30L |] self;
  Alcotest.(check int) "all pages attributed" 0 (Trace.unattributed spans);
  spans.(3) <- { (spans.(3)) with counters = [| 3 |] };
  Alcotest.(check int) "three pages outside any child" 3 (Trace.unattributed spans)

let test_recorder () =
  let reads = ref 0 in
  let tr = Trace.create ~counter_names:[| "reads" |] ~sample:(fun () -> [| !reads |]) in
  let v =
    Trace.root tr ~label:"Q1" "op" (fun () ->
        let p =
          Trace.span tr "prepare"
            ~sub:(fun n -> [ ("parse", 0.0); ("compile", float_of_int n *. 1e-9) ])
            (fun () ->
              reads := !reads + 2;
              7)
        in
        let e =
          Trace.span tr "execute" (fun () ->
              reads := !reads + 5;
              1)
        in
        p + e)
  in
  Alcotest.(check int) "value" 8 v;
  let spans = Trace.spans tr in
  Alcotest.(check (list string)) "names in opening order"
    [ "op"; "prepare"; "parse"; "compile"; "execute" ]
    (Array.to_list (Array.map (fun s -> s.Trace.name) spans));
  Alcotest.(check (list int)) "parents" [ -1; 0; 1; 1; 0 ]
    (Array.to_list (Array.map (fun s -> s.Trace.parent) spans));
  Alcotest.(check (list string)) "label inherited" [ "Q1"; "Q1"; "Q1"; "Q1"; "Q1" ]
    (Array.to_list (Array.map (fun s -> s.Trace.label) spans));
  Alcotest.(check int) "op reads" 7 spans.(0).Trace.counters.(0);
  Alcotest.(check int) "attributed" 0 (Trace.unattributed spans);
  Alcotest.check_raises "raising thunk" Exit (fun () ->
      Trace.root tr ~label:"x" "op" (fun () -> Trace.span tr "execute" (fun () -> raise Exit)));
  Alcotest.(check int) "spans closed on raise" 7 (Array.length (Trace.spans tr))

let keys = List.map Flex.of_components [ [ "b" ]; [ "b"; "c" ]; [ "d" ] ]

let test_gate () =
  let g = Gate.create () in
  let reference = Gate.digest keys in
  Gate.expect_digest g ~what:"Q1" ~expected:reference keys;
  Alcotest.(check bool) "matching digest passes" true (Gate.ok g);
  Gate.expect_digest g ~what:"Q1" ~expected:reference (List.tl keys);
  Alcotest.(check bool) "injected mismatch trips" false (Gate.ok g);
  Gate.expect_rows g ~what:"lookup" ~expected:1 [];
  Alcotest.(check int) "attempted" 3 (Gate.attempted g);
  Alcotest.(check int) "failed" 2 (Gate.failed g);
  Alcotest.check close "error rate" (2.0 /. 3.0) (Gate.error_rate g);
  Alcotest.(check int) "messages kept" 2 (List.length (Gate.failures g));
  Alcotest.(check bool) "order matters" false
    (String.equal reference (Gate.digest (List.rev keys)))

let () =
  Alcotest.run "perfbench"
    [ ( "quantile",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "p99" `Quick test_p99;
          Alcotest.test_case "samples buffer" `Quick test_samples;
          Alcotest.test_case "per-class floors" `Quick test_floors ] );
      ( "trace",
        [ Alcotest.test_case "self time of nested spans" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder ] );
      ("gate", [ Alcotest.test_case "digest mismatch trips the gate" `Quick test_gate ]) ]

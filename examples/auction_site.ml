(* Auction-site analytics: the paper's motivating workload.

   Generates an XMark-style auction document, then answers the kinds of
   questions the paper's benchmark queries model — comparing the default
   (VQP) and optimized (VQP-OPT) plans on each and showing page I/O.

     dune exec examples/auction_site.exe -- [megabytes] *)

module Store = Mass.Store

let () =
  let megabytes =
    if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 2.0
  in
  let store = Store.create ~pool_pages:8192 () in
  Printf.printf "Generating a %.1f MB-scale auction site...\n%!" megabytes;
  let doc = Xmark.load store megabytes in
  let stats = Store.statistics store in
  Printf.printf "%d records, %d index pages, %.1f tuples/page\n\n"
    stats.Store.record_count
    (stats.Store.doc_index_pages + stats.Store.name_index_pages + stats.Store.value_index_pages)
    stats.Store.tuples_per_page;

  let report label query =
    Printf.printf "%s\n  %s\n" label query;
    let run optimize =
      Store.reset_io_stats store;
      match Vamana.Engine.query ~optimize store ~context:doc.Store.doc_key query with
      | Ok r ->
          Printf.printf "  %-8s %6d results  %8.2f ms exec  %6d page reads%s\n"
            (if optimize then "VQP-OPT" else "VQP")
            (List.length r.Vamana.Engine.keys)
            (r.Vamana.Engine.execute_time *. 1000.)
            r.Vamana.Engine.record.Vamana.Engine.exec_io.Storage.Stats.logical_reads
            (if optimize then
               Printf.sprintf "  (optimizer: %.3f ms)" (r.Vamana.Engine.optimize_time *. 1000.)
             else "")
      | Error e -> Printf.printf "  error: %s\n" e
    in
    run false;
    run true;
    print_newline ()
  in

  report "People and where they live (paper Q1)" "//person/address";
  report "Who watches auctions? (paper Q2)" "//watches/watch/ancestor::person";
  report "Persons via their name elements (paper Q3)"
    "/descendant::name/parent::*/self::person/address";
  report "Auctions with their prices (paper Q4)"
    "//itemref/following-sibling::price/parent::*";
  report "Vermont residents (paper Q5)" "//province[text()='Vermont']/ancestor::person";
  report "High-value open auctions" "//open_auction[current > 300]/itemref";
  report "People without an address" "//person[not(address)]/name";

  (* a business question that is not a bare path *)
  match
    Vamana.Engine.eval store ~context:doc.Store.doc_key
      "count(//person[watches]) div count(//person)"
  with
  | Ok (Xpath.Eval.Num ratio) ->
      Printf.printf "Share of people watching at least one auction: %.1f%%\n" (ratio *. 100.)
  | Ok _ | Error _ -> ()

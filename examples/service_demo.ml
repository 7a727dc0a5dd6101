(* Service demo: the cached, metered query-service layer.

   Shows the three service features end to end: a warm plan cache
   (repeat queries skip parse/compile/optimize), the epoch-invalidated
   result cache (a store update between identical queries always yields
   fresh results), and the metrics snapshot.

     dune exec examples/service_demo.exe *)

module Store = Mass.Store
module Service = Vamana_service.Service

let document =
  {xml|<site><people>
  <person id="p1"><name>Ada</name><address><city>Turin</city></address></person>
  <person id="p2"><name>Grace</name><address><city>Arlington</city></address></person>
</people></site>|xml}


let run service doc q =
  match Service.query_doc service doc q with
  | Error msg -> Printf.printf "  %-12s error: %s\n" q msg
  | Ok o ->
      Printf.printf "  %-12s %d results  (plan %s, result %s, %.3f ms)\n" q
        (List.length o.Service.result.Vamana.Engine.keys)
        (Service.cache_cell o.Service.plan_cache) (Service.cache_cell o.Service.result_cache)
        (o.Service.record.Vamana.Engine.latency *. 1000.)

let () =
  let store = Store.create () in
  let doc = Store.load_string store ~name:"site.xml" document in
  let service = Service.create store in

  Printf.printf "1. cold query, then a warm repeat (plan + result cache hits):\n";
  run service doc "//person";
  run service doc "//person";

  Printf.printf "\n2. mutate the store: the epoch bump invalidates the cached result\n";
  let people =
    match Vamana.Engine.query_doc store doc "/site/people" with
    | Ok r -> List.hd r.Vamana.Engine.keys
    | Error e -> failwith e
  in
  ignore (Store.insert_element store ~parent:people "person" [ ("id", "p3") ] (Some "Hedy"));
  Printf.printf "   (inserted person p3; store epoch is now %d)\n" (Store.epoch store);
  run service doc "//person";
  run service doc "//person";

  Printf.printf "\n3. metrics snapshot:\n\n%s" (Service.snapshot_text service)

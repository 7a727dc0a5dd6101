type span = {
  id : int;
  name : string;
  parent : int;
  request : int;
  label : string;
  start_ns : int64;
  stop_ns : int64;
  counters : int array;
  minor_words : float;
}

type frame = { f_id : int; f_request : int; f_label : string }

type t = {
  counter_names : string array;
  sample : unit -> int array;
  mutable next_id : int;
  mutable next_request : int;
  mutable stack : frame list;
  mutable closed : span list;
}

let create ~counter_names ~sample =
  { counter_names; sample; next_id = 0; next_request = 0; stack = []; closed = [] }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* durations reported by the layer itself, laid end to end from the
   enclosing span's start and clipped to its end; they carry no counters *)
let attach_sub t ~parent ~request ~label ~start_ns ~stop_ns sub =
  let zero = Array.make (Array.length t.counter_names) 0 in
  ignore
    (List.fold_left
       (fun at (name, seconds) ->
         let stop = Int64.add at (Int64.of_float (seconds *. 1e9)) in
         let stop = if Int64.compare stop stop_ns > 0 then stop_ns else stop in
         t.closed <-
           { id = fresh_id t; name; parent; request; label; start_ns = at; stop_ns = stop;
             counters = zero; minor_words = 0.0 }
           :: t.closed;
         stop)
       start_ns sub)

let enter t ~request ~label ?sub name f =
  let parent = match t.stack with [] -> -1 | fr :: _ -> fr.f_id in
  let id = fresh_id t in
  let before = t.sample () in
  t.stack <- { f_id = id; f_request = request; f_label = label } :: t.stack;
  let w0 = Gc.minor_words () in
  let start_ns = Clock.now_ns () in
  let finish outcome =
    let stop_ns = Clock.now_ns () in
    let words = Gc.minor_words () -. w0 in
    let after = t.sample () in
    t.stack <- List.tl t.stack;
    t.closed <-
      { id; name; parent; request; label; start_ns; stop_ns;
        counters = Array.map2 ( - ) after before; minor_words = words }
      :: t.closed;
    match (sub, outcome) with
    | Some sub, Some v -> attach_sub t ~parent:id ~request ~label ~start_ns ~stop_ns (sub v)
    | _ -> ()
  in
  match f () with
  | v ->
      finish (Some v);
      v
  | exception e ->
      finish None;
      raise e

let root t ~label name f =
  let request = t.next_request in
  t.next_request <- request + 1;
  enter t ~request ~label name f

let span t ?sub name f =
  match t.stack with
  | [] -> root t ~label:"" name f
  | fr :: _ -> enter t ~request:fr.f_request ~label:fr.f_label ?sub name f

let spans t =
  let a = Array.of_list t.closed in
  Array.sort (fun x y -> Int.compare x.id y.id) a;
  a

let duration_ns s = Int64.sub s.stop_ns s.start_ns

(* children of each span, by index into [spans] *)
let children spans =
  let index = Hashtbl.create (Array.length spans) in
  Array.iteri (fun i s -> Hashtbl.replace index s.id i) spans;
  let kids = Array.make (Array.length spans) [] in
  Array.iteri
    (fun i s ->
      match Hashtbl.find_opt index s.parent with
      | Some p -> kids.(p) <- i :: kids.(p)
      | None -> ())
    spans;
  kids

let self_ns spans =
  let kids = children spans in
  Array.mapi
    (fun i s ->
      let clipped =
        List.filter_map
          (fun k ->
            let c = spans.(k) in
            let lo = if Int64.compare c.start_ns s.start_ns < 0 then s.start_ns else c.start_ns in
            let hi = if Int64.compare c.stop_ns s.stop_ns > 0 then s.stop_ns else c.stop_ns in
            if Int64.compare hi lo > 0 then Some (lo, hi) else None)
          kids.(i)
      in
      let sorted = List.sort (fun (a, _) (b, _) -> Int64.compare a b) clipped in
      (* union of the child intervals: sweep, extending the current run *)
      let covered, last =
        List.fold_left
          (fun (acc, run) (lo, hi) ->
            match run with
            | None -> (acc, Some (lo, hi))
            | Some (rlo, rhi) when Int64.compare lo rhi <= 0 ->
                (acc, Some (rlo, if Int64.compare hi rhi > 0 then hi else rhi))
            | Some (rlo, rhi) -> (Int64.add acc (Int64.sub rhi rlo), Some (lo, hi)))
          (0L, None) sorted
      in
      let covered =
        match last with Some (lo, hi) -> Int64.add covered (Int64.sub hi lo) | None -> covered
      in
      Int64.sub (duration_ns s) covered)
    spans

let unattributed spans =
  let kids = children spans in
  let total = ref 0 in
  Array.iteri
    (fun i s ->
      if s.parent < 0 then
        Array.iteri
          (fun c own ->
            let below = List.fold_left (fun acc k -> acc + spans.(k).counters.(c)) 0 kids.(i) in
            total := !total + abs (own - below))
          s.counters)
    spans;
  !total

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_json t oc =
  let all = spans t in
  let self = self_ns all in
  output_string oc "[\n";
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"name\":%s,\"parent\":%d,\"request\":%d,\"label\":%s,\"start_ns\":%Ld,\"stop_ns\":%Ld,\"self_ns\":%Ld,\"minor_words\":%.0f"
        (if i = 0 then "" else ",\n")
        s.id (json_string s.name) s.parent s.request (json_string s.label) s.start_ns s.stop_ns
        self.(i) s.minor_words;
      Array.iteri
        (fun c name -> Printf.fprintf oc ",%s:%d" (json_string name) s.counters.(c))
        t.counter_names;
      output_string oc "}")
    all;
  output_string oc "\n]\n"

(* ---- JSON values ---- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  (* shortest decimal form that re-parses to the same float *)
  let float_repr f =
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    (* a bare integer form would re-parse as Int; force a float marker *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n' || c = 'i') s then s
    else s ^ ".0"

  let rec write buf v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        Buffer.add_string buf (if Float.is_finite f then float_repr f else "null")
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (Obs.json_escape s);
        Buffer.add_char buf '"'
    | Arr xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ", ";
            write buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string buf ", ";
            Buffer.add_char buf '"';
            Buffer.add_string buf (Obs.json_escape k);
            Buffer.add_string buf "\": ";
            write buf x)
          fields;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    write buf v;
    Buffer.contents buf

  exception Parse_error of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let expect c =
      if !pos < n && s.[!pos] = c then advance ()
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let add_utf8 buf code =
      (* BMP code points only; lone surrogates are kept as-is *)
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= n then fail "unterminated escape");
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
              in
              add_utf8 buf code
          | _ -> fail "bad escape");
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      if text = "" then fail "expected a value";
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (items [])
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              (k, parse_value ())
            in
            let rec fields acc =
              let f = field () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields (f :: acc)
              | Some '}' ->
                  advance ();
                  List.rev (f :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (fields [])
          end
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let rec equal a b =
    match (a, b) with
    | Null, Null -> true
    | Bool x, Bool y -> x = y
    | Int x, Int y -> x = y
    | Float x, Float y -> x = y || (Float.is_nan x && Float.is_nan y)
    | Str x, Str y -> String.equal x y
    | Arr xs, Arr ys -> List.equal equal xs ys
    | Obj xs, Obj ys ->
        List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) xs ys
    | (Null | Bool _ | Int _ | Float _ | Str _ | Arr _ | Obj _), _ -> false

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* ---- collection ---- *)

type slot = {
  op_id : int;
  label : string;
  mutable tuples : int;
  mutable next_calls : int;
  mutable resets : int;
  mutable cursor_opens : int;
  mutable started : int;
  mutable exhausted : int;
  mutable self_time : float;
  mutable self_reads : int;
  mutable self_phys : int;
}

type ctx = {
  read_io : unit -> int * int;
      (** current (logical, physical) read totals of the profiled store
          ({!Mass.Store.io_stats} recomputes a snapshot per call) *)
  table : (int, slot) Hashtbl.t;
  (* inclusive time/reads of completed callee frames inside the frame
     currently on the stack; saved/restored around each frame so every
     slot ends up with exact exclusive figures *)
  mutable child_time : float;
  mutable child_reads : int;
  mutable child_phys : int;
}

let create store =
  { read_io =
      (fun () ->
        let s = Mass.Store.io_stats store in
        (s.Storage.Stats.logical_reads, s.Storage.Stats.physical_reads));
    table = Hashtbl.create 16;
    child_time = 0.0;
    child_reads = 0;
    child_phys = 0 }

let slot ctx ~op_id ~label =
  match Hashtbl.find_opt ctx.table op_id with
  | Some s -> s
  | None ->
      let s =
        { op_id; label; tuples = 0; next_calls = 0; resets = 0; cursor_opens = 0;
          started = 0; exhausted = 0; self_time = 0.0; self_reads = 0; self_phys = 0 }
      in
      Hashtbl.add ctx.table op_id s;
      s

let frame ctx s f =
  s.next_calls <- s.next_calls + 1;
  let saved_t = ctx.child_time and saved_r = ctx.child_reads and saved_p = ctx.child_phys in
  ctx.child_time <- 0.0;
  ctx.child_reads <- 0;
  ctx.child_phys <- 0;
  let t0 = Obs.clock () in
  let r0, p0 = ctx.read_io () in
  match f () with
  | result ->
      let dt = Obs.clock () -. t0 in
      let r1, p1 = ctx.read_io () in
      let dr = r1 - r0 in
      let dp = p1 - p0 in
      s.self_time <- s.self_time +. dt -. ctx.child_time;
      s.self_reads <- s.self_reads + dr - ctx.child_reads;
      s.self_phys <- s.self_phys + dp - ctx.child_phys;
      ctx.child_time <- saved_t +. dt;
      ctx.child_reads <- saved_r + dr;
      ctx.child_phys <- saved_p + dp;
      (match result with Some _ -> s.tuples <- s.tuples + 1 | None -> ());
      result
  | exception e ->
      ctx.child_time <- saved_t;
      ctx.child_reads <- saved_r;
      ctx.child_phys <- saved_p;
      raise e

let slots ctx =
  Hashtbl.fold (fun _ s acc -> s :: acc) ctx.table []
  |> List.sort (fun a b -> compare a.op_id b.op_id)

(* ---- spans ---- *)

type span = { name : string; dur : float; meta : (string * Json.t) list }

let span ?(meta = []) name dur = { name; dur; meta }

(* ---- reports ---- *)

type node = {
  id : int;
  label : string;
  est : Cost.stats option;
  act : slot option;
  q_error : float option;
  preds : (string * node) list;
  context : node option;
}

type report = {
  plan : node;
  spans : span list;
  total_time : float;
  root_q_error : float;
  max_q_error : float;
}

let q_error ~est ~act =
  if est = act then 1.0
  else if est = 0 || act = 0 then Float.infinity
  else
    let e = float_of_int est and a = float_of_int act in
    Float.max (e /. a) (a /. e)

let rec node_of ctx ~cost (op : Plan.op) =
  let act = Hashtbl.find_opt ctx.table op.Plan.id in
  let est = Hashtbl.find_opt cost op.Plan.id in
  let q_error =
    match est with
    | Some e -> Some (q_error ~est:e.Cost.output ~act:(match act with Some s -> s.tuples | None -> 0))
    | None -> None
  in
  { id = op.Plan.id;
    label = Plan.kind_to_string op;
    est;
    act;
    q_error;
    preds = List.concat_map (pred_nodes ctx ~cost) op.Plan.predicates;
    context = Option.map (node_of ctx ~cost) op.Plan.context }

and pred_nodes ctx ~cost (pred : Plan.pred) =
  match pred with
  | Plan.Exists sub -> [ ("ξ exists", node_of ctx ~cost sub) ]
  | Plan.Binary (_, cmp, a, b) ->
      let operand o =
        match o with
        | Plan.Path_operand sub ->
            [ ("β " ^ Plan.binop_symbol cmp, node_of ctx ~cost sub) ]
        | Plan.Literal _ | Plan.Number_operand _ -> []
      in
      operand a @ operand b
  | Plan.And (a, b) | Plan.Or (a, b) -> pred_nodes ctx ~cost a @ pred_nodes ctx ~cost b
  | Plan.Not a -> pred_nodes ctx ~cost a
  | Plan.Position _ | Plan.Generic _ -> []

let rec fold_nodes f acc node =
  let acc = f acc node in
  let acc = List.fold_left (fun acc (_, sub) -> fold_nodes f acc sub) acc node.preds in
  match node.context with Some c -> fold_nodes f acc c | None -> acc

let make ctx ~cost ?(spans = []) ~total_time (plan : Plan.op) =
  let tree = node_of ctx ~cost plan in
  let root_q_error = match tree.q_error with Some q -> q | None -> 1.0 in
  let max_q_error =
    fold_nodes
      (fun acc n -> match n.q_error with Some q when q > acc -> q | _ -> acc)
      1.0 tree
  in
  { plan = tree; spans; total_time; root_q_error; max_q_error }

(* ---- rendering ---- *)

let q_string q = if Float.is_finite q then Printf.sprintf "%.3g" q else "∞"

let line_of_node n =
  let est =
    match n.est with
    | Some e ->
        Printf.sprintf " est{COUNT=%d IN=%d OUT=%d}" e.Cost.count e.Cost.input e.Cost.output
    | None -> ""
  in
  let act =
    match n.act with
    | Some s ->
        Printf.sprintf " act{out=%d next=%d reset=%d cursors=%d t=%.3fms io=%d/%d}" s.tuples
          s.next_calls s.resets s.cursor_opens (s.self_time *. 1000.) s.self_reads
          s.self_phys
    | None -> " act{not executed}"
  in
  let q = match n.q_error with Some q -> Printf.sprintf " q=%s" (q_string q) | None -> "" in
  Printf.sprintf "%s%s%s%s" n.label est act q

let render_text r =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "execution profile: %.3f ms, root q-error %s, max operator q-error %s"
    (r.total_time *. 1000.) (q_string r.root_q_error) (q_string r.max_q_error);
  let rec render ~indent ~prefix n =
    line "%s%s%s" (String.make indent ' ') prefix (line_of_node n);
    List.iter (fun (label, sub) -> render ~indent:(indent + 2) ~prefix:(label ^ " ") sub) n.preds;
    match n.context with Some c -> render ~indent:(indent + 2) ~prefix:"" c | None -> ()
  in
  render ~indent:0 ~prefix:"" r.plan;
  if r.spans <> [] then begin
    line "spans:";
    List.iter
      (fun s ->
        let meta =
          if s.meta = [] then ""
          else
            "  "
            ^ String.concat " "
                (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Json.to_string v)) s.meta)
        in
        line "  %-10s %10.3f ms%s" s.name (s.dur *. 1000.) meta)
      r.spans
  end;
  Buffer.contents buf

let jfloat f = if Float.is_finite f then Json.Float f else Json.Null

let json_of_slot s =
  Json.Obj
    [ ("tuples", Json.Int s.tuples);
      ("next_calls", Json.Int s.next_calls);
      ("resets", Json.Int s.resets);
      ("cursor_opens", Json.Int s.cursor_opens);
      ("started", Json.Int s.started);
      ("exhausted", Json.Int s.exhausted);
      ("self_ms", jfloat (s.self_time *. 1000.));
      ("logical_reads", Json.Int s.self_reads);
      ("physical_reads", Json.Int s.self_phys) ]

let json_of_est (e : Cost.stats) =
  Json.Obj
    [ ("count", Json.Int e.Cost.count);
      ("in", Json.Int e.Cost.input);
      ("out", Json.Int e.Cost.output);
      ("selectivity", jfloat e.Cost.selectivity) ]

let rec json_of_node n =
  let fields =
    [ ("id", Json.Int n.id);
      ("op", Json.Str n.label);
      ("estimated", match n.est with Some e -> json_of_est e | None -> Json.Null);
      ("actual", match n.act with Some s -> json_of_slot s | None -> Json.Null);
      ("q_error", match n.q_error with Some q -> jfloat q | None -> Json.Null) ]
  in
  let fields =
    if n.preds = [] then fields
    else
      fields
      @ [ ( "predicates",
            Json.Arr
              (List.map
                 (fun (label, sub) ->
                   Json.Obj [ ("label", Json.Str label); ("plan", json_of_node sub) ])
                 n.preds) ) ]
  in
  let fields =
    match n.context with
    | Some c -> fields @ [ ("context", json_of_node c) ]
    | None -> fields
  in
  Json.Obj fields

let json_of_span s =
  Json.Obj
    ([ ("name", Json.Str s.name); ("ms", jfloat (s.dur *. 1000.)) ] @ s.meta)

let render_json r =
  Json.Obj
    [ ("total_ms", jfloat (r.total_time *. 1000.));
      ("root_q_error", jfloat r.root_q_error);
      ("max_q_error", jfloat r.max_q_error);
      ("spans", Json.Arr (List.map json_of_span r.spans));
      ("plan", json_of_node r.plan) ]

let render_json_string r = Json.to_string (render_json r)

type t = { mutable attempted : int; mutable failed : int; mutable failures : string list }

let create () = { attempted = 0; failed = 0; failures = [] }

let digest keys =
  let b = Buffer.create 4096 in
  List.iter
    (fun k ->
      Buffer.add_string b (Flex.to_string k);
      Buffer.add_char b '\n')
    keys;
  Digest.to_hex (Digest.string (Buffer.contents b))

let kept_failures = 20

let fail t ~what msg =
  t.failed <- t.failed + 1;
  if t.failed <= kept_failures then t.failures <- (what ^ ": " ^ msg) :: t.failures

let check t ~what ok msg =
  t.attempted <- t.attempted + 1;
  if not ok then fail t ~what msg

let expect_digest t ~what ~expected keys =
  let got = digest keys in
  check t ~what (String.equal got expected)
    (Printf.sprintf "key digest %s, reference %s (%d rows)" got expected (List.length keys))

let expect_rows t ~what ~expected keys =
  let got = List.length keys in
  check t ~what (got = expected) (Printf.sprintf "%d rows, expected %d" got expected)

let attempted t = t.attempted
let failed t = t.failed
let ok t = t.failed = 0
let failures t = List.rev t.failures

let error_rate t =
  if t.attempted = 0 then 0.0 else float_of_int t.failed /. float_of_int t.attempted

(* The flight recorder: a bounded append-only log of per-query records
   under the store's data directory.

   Framing per record: magic u32, kind u8, payload-length u32, CRC-32
   of the payload u32, payload bytes.  Appends are buffered and flushed
   (not fsynced) per record — the budget is "survive a process crash",
   not "survive power loss", and the OS page cache delivers that
   without a disk round-trip per query.  Readers stop at the first
   short or checksum-failing record, so a torn tail costs at most the
   record being written when the process died.

   Bounding is by rotation: when [flight.log] outgrows [max_bytes] it
   is renamed to [flight.log.1] (replacing the previous generation) and
   a fresh log is started, so the pair holds between one and two
   generations of history. *)

let magic = 0x544C4656 (* "VFLT" little-endian *)
let kind_begin = 1
let kind_end = 2 (* original End layout; still decoded, no longer written *)
let kind_end2 = 3 (* End + plan-health fields (sampled flag, drift score) *)
let file_name = "flight.log"
let rotated_name = "flight.log.1"
let default_max_bytes = 1 lsl 20

type begin_record = { b_qid : int; b_epoch : int; b_source : string; b_at_ms : int }

type query_record = {
  qid : int;
  source : string;
  ok : bool;
  cache : string;
  latency_us : int;
  pages_read : int;
  physical_reads : int;
  wal_bytes : int;
  fsyncs : int;
  results : int;
  epoch : int;
  at_ms : int;
  sampled : bool;
  drift : float;
}

type entry = Begin of begin_record | End of query_record

type t = {
  dir : string;
  max_bytes : int;
  mutable oc : out_channel;
  mutable size : int;
  mutable closed : bool;
}

let log_path dir = Filename.concat dir file_name
let rotated_path dir = Filename.concat dir rotated_name

let open_log dir =
  open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 (log_path dir)

let open_dir ?(max_bytes = default_max_bytes) ~dir () =
  if max_bytes < 4096 then invalid_arg "Flight.open_dir: max_bytes < 4096";
  if not (Sys.file_exists dir) then invalid_arg ("Flight.open_dir: no such directory: " ^ dir);
  let size = try (Unix.stat (log_path dir)).st_size with Unix.Unix_error _ -> 0 in
  { dir; max_bytes; oc = open_log dir; size; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_out_noerr t.oc
  end

let rotate t =
  close_out_noerr t.oc;
  Sys.rename (log_path t.dir) (rotated_path t.dir);
  t.oc <- open_log t.dir;
  t.size <- 0

let append t kind payload =
  if t.closed then invalid_arg "Flight.append: recorder closed";
  let frame = Buffer.create (String.length payload + 16) in
  Binio.w_u32 frame magic;
  Binio.w_u8 frame kind;
  Binio.w_u32 frame (String.length payload);
  Binio.w_u32 frame (Int32.to_int (Crc32.string payload) land 0xFFFFFFFF);
  Buffer.add_string frame payload;
  Buffer.output_buffer t.oc frame;
  flush t.oc;
  t.size <- t.size + Buffer.length frame;
  if t.size > t.max_bytes then rotate t

let now_ms () = int_of_float (Obs.wall_clock () *. 1000.)

let record_begin t ~qid ~epoch ~source =
  let b = Buffer.create 64 in
  Binio.w_u64 b qid;
  Binio.w_u64 b epoch;
  Binio.w_u64 b (now_ms ());
  Binio.w_str b source;
  append t kind_begin (Buffer.contents b)

let record_end t (r : query_record) =
  let b = Buffer.create 128 in
  Binio.w_u64 b r.qid;
  Binio.w_u8 b (if r.ok then 1 else 0);
  Binio.w_str b r.cache;
  Binio.w_u64 b r.latency_us;
  Binio.w_u64 b r.pages_read;
  Binio.w_u64 b r.physical_reads;
  Binio.w_u64 b r.wal_bytes;
  Binio.w_u64 b r.fsyncs;
  Binio.w_u64 b r.results;
  Binio.w_u64 b r.epoch;
  Binio.w_u64 b r.at_ms;
  Binio.w_str b r.source;
  Binio.w_u8 b (if r.sampled then 1 else 0);
  (* drift in micro-units: scores are small (doublings of q-error), so
     micro precision loses nothing and keeps the frame all-integer *)
  Binio.w_u64 b (int_of_float (Float.max 0.0 r.drift *. 1e6));
  append t kind_end2 (Buffer.contents b)

let decode_begin payload =
  let r = Binio.reader payload in
  let b_qid = Binio.r_u64 r in
  let b_epoch = Binio.r_u64 r in
  let b_at_ms = Binio.r_u64 r in
  let b_source = Binio.r_str r in
  { b_qid; b_epoch; b_source; b_at_ms }

let decode_end ~v2 payload =
  let r = Binio.reader payload in
  let qid = Binio.r_u64 r in
  let ok = Binio.r_u8 r = 1 in
  let cache = Binio.r_str r in
  let latency_us = Binio.r_u64 r in
  let pages_read = Binio.r_u64 r in
  let physical_reads = Binio.r_u64 r in
  let wal_bytes = Binio.r_u64 r in
  let fsyncs = Binio.r_u64 r in
  let results = Binio.r_u64 r in
  let epoch = Binio.r_u64 r in
  let at_ms = Binio.r_u64 r in
  let source = Binio.r_str r in
  let sampled, drift =
    if v2 then
      let s = Binio.r_u8 r = 1 in
      let d = float_of_int (Binio.r_u64 r) /. 1e6 in
      (s, d)
    else (false, 0.0)
  in
  { qid; source; ok; cache; latency_us; pages_read; physical_reads; wal_bytes; fsyncs;
    results; epoch; at_ms; sampled; drift }

(* parse one file's records, stopping quietly at the first torn or
   corrupt frame: everything before it is intact by CRC *)
let parse_file path =
  if not (Sys.file_exists path) then []
  else begin
    let contents = In_channel.with_open_bin path In_channel.input_all in
    let len = String.length contents in
    let out = ref [] in
    let pos = ref 0 in
    (try
       while !pos + 13 <= len do
         let r = Binio.reader ~pos:!pos contents in
         if Binio.r_u32 r <> magic then raise Exit;
         let kind = Binio.r_u8 r in
         let plen = Binio.r_u32 r in
         let crc = Binio.r_u32 r in
         if r.pos + plen > len then raise Exit;
         let payload = String.sub contents r.pos plen in
         if Int32.to_int (Crc32.string payload) land 0xFFFFFFFF <> crc then raise Exit;
         (if kind = kind_begin then out := Begin (decode_begin payload) :: !out
          else if kind = kind_end then out := End (decode_end ~v2:false payload) :: !out
          else if kind = kind_end2 then out := End (decode_end ~v2:true payload) :: !out);
         pos := r.pos + plen
       done
     with Exit | Binio.Short -> ());
    List.rev !out
  end

let read_dir ~dir = parse_file (rotated_path dir) @ parse_file (log_path dir)

let in_flight entries =
  let ended = Hashtbl.create 64 in
  List.iter (function End e -> Hashtbl.replace ended e.qid () | Begin _ -> ()) entries;
  List.filter_map
    (function Begin b when not (Hashtbl.mem ended b.b_qid) -> Some b | _ -> None)
    entries

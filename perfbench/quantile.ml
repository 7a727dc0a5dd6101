let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.median: no samples";
  let a = sorted_copy xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles, default 'exclusive' method: cut points
   at i*(len+1)/n, linearly interpolated, index clamped to 1..len-1 *)
let quantiles ~n xs =
  let len = Array.length xs in
  if n < 1 then invalid_arg "Quantile.quantiles: n < 1";
  if len < 2 then invalid_arg "Quantile.quantiles: fewer than two samples";
  let a = sorted_copy xs in
  let m = len + 1 in
  Array.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (len - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n)

let p99 xs = (quantiles ~n:100 xs).(98)

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
end

module Floors = struct
  type t = (string, int * float) Hashtbl.t (* class -> samples, minimum *)

  let create () : t = Hashtbl.create 16

  let add t cls x =
    match Hashtbl.find_opt t cls with
    | None -> Hashtbl.replace t cls (1, x)
    | Some (n, m) -> Hashtbl.replace t cls (n + 1, Float.min m x)

  let count t = Hashtbl.fold (fun _ (n, _) acc -> acc + n) t 0

  let weighted t =
    let total = float_of_int (count t) in
    Hashtbl.fold (fun _ (n, m) acc -> acc +. (float_of_int n /. total *. m)) t 0.0
end

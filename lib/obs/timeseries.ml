(* Deterministic fixed-interval time series.

   A recorder with a fixed column set and integer samples keyed on
   simulated time: the driver (Runner / Openloop / an experiment)
   samples cumulative counters at interval boundaries, so the series is
   a pure function of (configuration, seed) and its exported bytes are
   identical across workers and replays.  Columns hold cumulative
   values; [delta] recovers per-interval increments for rate columns
   (goodput, abort rates), while gauge columns (queue depth, live
   speculation depth) read directly. *)

type t = {
  interval_us : int;
  cols : string array;
  mutable times : int array;
  mutable rows : int array array;
  mutable n : int;
}

let create ~interval_us ~cols =
  if interval_us <= 0 then invalid_arg "Timeseries.create: interval_us <= 0";
  if cols = [] then invalid_arg "Timeseries.create: no columns";
  { interval_us; cols = Array.of_list cols; times = [||]; rows = [||]; n = 0 }

let interval_us t = t.interval_us
let cols t = Array.to_list t.cols
let n_rows t = t.n

let sample t ~time row =
  if Array.length row <> Array.length t.cols then
    invalid_arg "Timeseries.sample: row width mismatch";
  if Array.length t.times = 0 then begin
    t.times <- Array.make 64 time;
    t.rows <- Array.make 64 row
  end
  else if t.n = Array.length t.times then begin
    let ts = Array.make (2 * t.n) time and rs = Array.make (2 * t.n) row in
    Array.blit t.times 0 ts 0 t.n;
    Array.blit t.rows 0 rs 0 t.n;
    t.times <- ts;
    t.rows <- rs
  end;
  t.times.(t.n) <- time;
  t.rows.(t.n) <- Array.copy row;
  t.n <- t.n + 1

let time t i = t.times.(i)

let iter t f =
  for i = 0 to t.n - 1 do
    f ~time:t.times.(i) t.rows.(i)
  done

let value t ~row ~col = t.rows.(row).(col)

(* Per-interval increments of a cumulative column; element 0 is the
   first sample itself (increment from an implicit zero at t=0). *)
let delta t ~col =
  Array.init t.n (fun i ->
      if i = 0 then t.rows.(0).(col) else t.rows.(i).(col) - t.rows.(i - 1).(col))

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "t_us";
  Array.iter
    (fun c ->
      Buffer.add_char buf ',';
      Buffer.add_string buf c)
    t.cols;
  Buffer.add_char buf '\n';
  for i = 0 to t.n - 1 do
    Buffer.add_string buf (string_of_int t.times.(i));
    Array.iter
      (fun v ->
        Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int v))
      t.rows.(i);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let to_jsonl t =
  let buf = Buffer.create 4096 in
  for i = 0 to t.n - 1 do
    Buffer.add_string buf "{\"t_us\":";
    Buffer.add_string buf (string_of_int t.times.(i));
    Array.iteri
      (fun j v ->
        Buffer.add_string buf ",\"";
        Buffer.add_string buf t.cols.(j);
        Buffer.add_string buf "\":";
        Buffer.add_string buf (string_of_int v))
      t.rows.(i);
    Buffer.add_string buf "}\n"
  done;
  Buffer.contents buf

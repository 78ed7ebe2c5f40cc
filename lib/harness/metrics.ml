(** Latency recording and summary statistics. *)

type summary = {
  count : int;
  mean_us : float;
  p50_us : int;
  p95_us : int;
  p99_us : int;
  max_us : int;
}

let empty_summary = { count = 0; mean_us = 0.; p50_us = 0; p95_us = 0; p99_us = 0; max_us = 0 }

type t = {
  mutable samples : int array;
  mutable n : int;
  (* Summary of [samples.(0..n-1)], built (sort + scan) lazily by
     [summarize] and invalidated by [record].  Callers that summarize
     repeatedly between records — the self-tuner sampling a window, a
     report touching several percentiles — would otherwise re-copy and
     re-sort the full buffer on every call. *)
  mutable cache : summary option;
}

let create () =
  { samples = Array.make 1024 0; n = 0; cache = None }

let record t v =
  if t.n = Array.length t.samples then begin
    let bigger = Array.make (2 * t.n) 0 in
    Array.blit t.samples 0 bigger 0 t.n;
    t.samples <- bigger
  end;
  t.samples.(t.n) <- v;
  t.n <- t.n + 1;
  t.cache <- None

let summarize t =
  match t.cache with
  | Some s -> s
  | None ->
    if t.n = 0 then empty_summary
    else begin
      let data = Array.sub t.samples 0 t.n in
      Array.sort Int.compare data;
      let pct p =
        let idx = int_of_float (p *. float_of_int (t.n - 1)) in
        data.(idx)
      in
      let total = Array.fold_left ( + ) 0 data in
      let s =
        {
          count = t.n;
          mean_us = float_of_int total /. float_of_int t.n;
          p50_us = pct 0.50;
          p95_us = pct 0.95;
          p99_us = pct 0.99;
          max_us = data.(t.n - 1);
        }
      in
      t.cache <- Some s;
      s
    end

let ms_of_us us = float_of_int us /. 1000.

let pp_summary ppf s =
  if s.count = 0 then Format.pp_print_string ppf "(no samples)"
  else
    Format.fprintf ppf "n=%d mean=%.1fms p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms"
      s.count (s.mean_us /. 1000.) (ms_of_us s.p50_us) (ms_of_us s.p95_us)
      (ms_of_us s.p99_us) (ms_of_us s.max_us)

(* Log-scale fixed-bucket histogram: values in [0, 16) are exact, above
   that each power-of-two octave splits into 8 sub-buckets (HDR-style),
   so percentile quantization error is bounded by 1/8 relative. *)

(* Highest set bit index of v > 0. *)
let msb v =
  let k = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then begin k := !k + 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin k := !k + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin k := !k + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin k := !k + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin k := !k + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then incr k;
  !k

(* Buckets 0..15 hold values 0..15 exactly; octave k >= 4 contributes 8
   buckets starting at 16 + (k-4)*8.  OCaml ints top out at bit 62. *)
let n_buckets = 16 + ((62 - 4 + 1) * 8)

let bucket_of v =
  if v < 16 then v
  else begin
    let k = msb v in
    16 + ((k - 4) * 8) + ((v lsr (k - 3)) land 7)
  end

(* Inclusive upper bound of a bucket's value range. *)
let bucket_hi b =
  if b < 16 then b
  else begin
    let k = 4 + ((b - 16) / 8) and sub = (b - 16) mod 8 in
    (1 lsl k) + ((sub + 1) lsl (k - 3)) - 1
  end

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : int;
  mutable max_exact : int;
}

let create () = { counts = Array.make n_buckets 0; n = 0; sum = 0; max_exact = 0 }

(* Cap tracked values so [bucket_hi] arithmetic can never overflow a
   63-bit int (simulated times are microseconds; 2^60 us is ~36k
   years). *)
let max_tracked = 1 lsl 60

let record t v =
  let v = if v < 0 then 0 else if v > max_tracked then max_tracked else v in
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v > t.max_exact then t.max_exact <- v

let percentile t p =
  if t.n = 0 then 0
  else begin
    let rank = int_of_float (p *. float_of_int (t.n - 1)) in
    let rank = if rank < 0 then 0 else if rank >= t.n then t.n - 1 else rank in
    let b = ref 0 and cum = ref 0 in
    while !cum + t.counts.(!b) <= rank do
      cum := !cum + t.counts.(!b);
      incr b
    done;
    min (bucket_hi !b) t.max_exact
  end

type summary = {
  count : int;
  mean_us : float;
  p50_us : int;
  p90_us : int;
  p99_us : int;
  p999_us : int;
  max_us : int;
}

let empty_summary =
  { count = 0; mean_us = 0.; p50_us = 0; p90_us = 0; p99_us = 0; p999_us = 0; max_us = 0 }

let summary t =
  if t.n = 0 then empty_summary
  else
    {
      count = t.n;
      mean_us = float_of_int t.sum /. float_of_int t.n;
      p50_us = percentile t 0.50;
      p90_us = percentile t 0.90;
      p99_us = percentile t 0.99;
      p999_us = percentile t 0.999;
      max_us = t.max_exact;
    }

(* Splitmix64: tiny, fast, and with good statistical quality for
   simulation purposes.  State is a single 64-bit counter, kept unboxed
   in an 8-byte buffer: a mutable [int64] field would box a fresh
   counter on every draw, where a read and a write of the buffer
   allocate nothing once [next64] is inlined. *)

type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let[@inline] next64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Keep 62 bits so the value always fits OCaml's native int, positive. *)
let next t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let split t = of_state (next64 t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod n

let int_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t = Int64.to_float (Int64.shift_right_logical (next64 t) 11) *. 0x1.p-53

let exponential t ~mean =
  let u = float t in
  (* Guard against log 0. *)
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u

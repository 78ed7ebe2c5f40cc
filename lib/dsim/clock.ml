type t = {
  sim : Sim.t;
  skew_us : int;
  drift_ppm : float;
  mutable last : int;
}

let create ~sim ~skew_us ~drift_ppm = { sim; skew_us; drift_ppm; last = min_int }


let raw t s = s + t.skew_us + int_of_float (t.drift_ppm *. float_of_int s /. 1_000_000.)

let now t =
  let v = raw t (Sim.now t.sim) in
  (* Never negative (a negatively skewed clock simply starts at 0), and
     never regressing. *)
  let v = if v < 0 then 0 else v in
  let v = if v > t.last then v else t.last in
  t.last <- v;
  v

let delay_until t target =
  let current = now t in
  if current >= target then 0
  else begin
    (* Invert the (monotone) affine clock map; round up and re-check. *)
    let rate = 1. +. (t.drift_ppm /. 1_000_000.) in
    let s_target =
      int_of_float (ceil (float_of_int (target - t.skew_us) /. rate))
    in
    let d = s_target - Sim.now t.sim in
    let d = if d < 1 then 1 else d in
    (* Guard against rounding: ensure the clock really catches up. *)
    if raw t (Sim.now t.sim + d) >= target then d else d + 1
  end

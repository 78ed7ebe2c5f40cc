(** Open-loop arrival processes.

    A closed-loop workload paces itself: each client issues its next
    transaction only after the previous one finished (plus think time),
    so offered load shrinks exactly when the system slows down.  The
    open-loop harness ({!Harness.Openloop}) instead injects transactions
    at an externally fixed rate per data center, which is what exposes
    the latency cliff as offered load approaches capacity.

    This module is only the rate spec: a Poisson process at a per-DC
    rate.  Draws are made against a caller-supplied {!Dsim.Rng.t}, so
    arrival times are deterministic in the experiment seed like every
    other stochastic component. *)

type t = { rate_per_dc : float  (** transactions per second injected into each DC *) }

let poisson ~rate_per_dc =
  if not (rate_per_dc > 0.) then invalid_arg "Arrival.poisson: rate must be positive";
  { rate_per_dc }

(* Mean gap in simulated microseconds.  Clamped to >= 1us per draw below
   so an arrival chain always advances simulated time (the clamp caps a
   single DC's injection rate at 1M tx/s, far above anything the engine
   sustains). *)
let mean_gap_us t = 1e6 /. t.rate_per_dc

let interarrival_us t rng =
  max 1 (int_of_float (Dsim.Rng.exponential rng ~mean:(mean_gap_us t)))

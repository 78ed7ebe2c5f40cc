(** Open-loop arrival-rate spec: how fast a Poisson process injects
    transactions into each data center.  Consumed by
    {!Harness.Openloop}; draws go through a caller-supplied RNG so
    arrival times are deterministic in the experiment seed. *)

type t = { rate_per_dc : float  (** transactions per second injected into each DC *) }

(** Exponential interarrival gaps (memoryless).
    @raise Invalid_argument unless [rate_per_dc > 0]. *)
val poisson : rate_per_dc:float -> t

(** Next gap in simulated microseconds; always [>= 1] so an arrival
    chain advances time. *)
val interarrival_us : t -> Dsim.Rng.t -> int

(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the simulator owns its own [Rng.t],
    seeded from the experiment seed, so that runs are reproducible and
    independent of evaluation order. *)

type t

val create : seed:int -> t

(** Derive an independent stream; deterministic in the parent state. *)
val split : t -> t

(** Raw next 64-bit value (as an OCaml int, 63 bits retained). *)
val next : t -> int

(** [int t n] is uniform in [0, n). @raise Invalid_argument if [n <= 0]. *)
val int : t -> int -> int

(** Uniform in [lo, hi] inclusive. *)
val int_range : t -> lo:int -> hi:int -> int

(** Uniform float in [0, 1). *)
val float : t -> float

(** Exponentially distributed float with the given [mean]. *)
val exponential : t -> mean:float -> float


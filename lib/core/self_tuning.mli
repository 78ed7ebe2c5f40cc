(** Feedback-driven self-tuning of speculation (§5.5 of the paper).

    A centralized controller periodically samples cluster throughput,
    runs an A/B exploration — one window with speculative reads enabled,
    one with them disabled — and locks in the better configuration,
    optionally re-exploring later.  Black-box (it only looks at the
    committed-transaction counters) and transparent to applications. *)

type t

(** What the controller optimizes.  [Throughput] is the paper's
    criterion; [Throughput_bounded_misspec m] additionally requires the
    explored misspeculation share of attempts to stay below [m] (a
    multi-KPI variant of the future work sketched in §7). *)
type criterion = Throughput | Throughput_bounded_misspec of float

(** Spawn the controller fiber.  Exploration starts after [warmup_us];
    each measurement lasts [window_us] (the paper samples every 10 s).
    With [reexplore_every > 0], the A/B comparison re-runs after that
    many exploit windows. *)
val install :
  Engine.t ->
  window_us:int ->
  ?warmup_us:int ->
  ?reexplore_every:int ->
  ?criterion:criterion ->
  unit ->
  t

(** The current decision: [Some true] = speculation enabled, [None] =
    still exploring. *)
val decision : t -> bool option

val rounds : t -> int

(** Misspeculation share observed in the last SR-enabled explore window. *)
val explored_misspec : t -> float

val stop : t -> unit

(** Safety and liveness oracles for terminal (quiescent) model-checking
    states: the SPSI suite plus deadlock-freedom ([MC-deadlock]), no
    lost local commits ([MC-lost-lc]), per-node snapshot monotonicity
    ([MC-monotonic-rs]) and store invariants ([MC-store]). *)

val check_deadlock : Spsi.History.t -> Spsi.Checker.violation list
val check_lost_local_commit : Spsi.History.t -> Spsi.Checker.violation list
val check_monotonic_rs : Spsi.History.t -> Spsi.Checker.violation list

(** All of the above plus {!Spsi.Checker.check_spsi}. *)
val check : Scenario.world -> Spsi.Checker.violation list

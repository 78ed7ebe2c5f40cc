(** Lightweight cooperative fibers over the simulation engine,
    implemented with OCaml 5 effect handlers.

    Fibers give protocol coordinators and emulated clients a direct,
    Erlang-process-like style: they block on {!Ivar.t}s ([await]) and on
    simulated timers ([sleep]) while the single-threaded engine advances
    virtual time.  All fiber resumptions go through the event queue, so
    execution remains deterministic. *)

(** [spawn sim f] schedules fiber [f] to start at the current instant.
    Exceptions escaping [f] propagate out of {!Sim.run} (fail fast). *)
val spawn : Sim.t -> (unit -> unit) -> unit

(** Fibers spawned on [sim] that have not finished: running, scheduled
    to start, or blocked in {!await} or {!sleep}.  A fiber counts from
    its [spawn] until [f] returns or raises. *)
val live : Sim.t -> int

(** Block the current fiber until the ivar is filled; returns its value.
    Must be called from within a fiber. *)
val await : 'a Ivar.t -> 'a

(** Block the current fiber for [delay] simulated microseconds. *)
val sleep : Sim.t -> int -> unit

(** Lightweight cooperative fibers over the simulation engine,
    implemented with OCaml 5 effect handlers.

    Fibers give protocol coordinators and emulated clients a direct,
    Erlang-process-like style: they block on {!Ivar.t}s ([await]) and on
    simulated timers ([sleep]) while the single-threaded engine advances
    virtual time.  All fiber resumptions go through the event queue, so
    execution remains deterministic.

    A blocked fiber is parked as data, not wrapped in closures: an
    [await] stores the continuation in the ivar ({!Ivar.park}), and the
    fill queues its resume ({!Sim.resume}); a [sleep] queues a timer
    entry holding the continuation ({!Sim.wake_at}), which queues the
    resume when it fires.  Either wake-up takes two hops, fill or timer
    then resume, so a resumed fiber runs behind the events already
    queued for its instant. *)

(** [spawn sim f] schedules fiber [f] to start at the current instant.
    Exceptions escaping [f] propagate out of {!Sim.run} (fail fast). *)
val spawn : Sim.t -> (unit -> unit) -> unit

(** Fibers spawned on [sim] that have not finished: running, scheduled
    to start, or blocked in {!await} or {!sleep}.  A fiber counts from
    its [spawn] until [f] returns or raises. *)
val live : Sim.t -> int

(** Block the current fiber until the ivar is filled; returns its value.
    On a full ivar the fiber still yields, resuming behind the events
    already queued for the current instant.  Must be called from within
    a fiber. *)
val await : 'a Ivar.t -> 'a

(** [sleep sim delay] blocks the current fiber for [delay] simulated
    microseconds.  [sim] is the simulator the fiber was spawned on.
    @raise Invalid_argument if [delay < 0]. *)
val sleep : Sim.t -> int -> unit

(** Discrete-event simulation engine.

    Simulated time is an [int] count of microseconds since the start of
    the run.  The engine is single-threaded and deterministic: events
    scheduled for the same instant fire in scheduling order.

    A {e controlled} mode ({!set_chooser}) additionally exposes the
    scheduling nondeterminism of an asynchronous network to an external
    scheduler: events are partitioned into lanes (one per directed
    network channel, plus one internal lane), each lane stays FIFO, and
    the chooser picks which lane's head event fires next.  Reordering
    deliveries across channels is equivalent to assigning each message
    an arbitrary finite latency; the bounded model checker in
    [lib/check] enumerates these choices exhaustively.

    A queue entry is one of four kinds: a network delivery's payload
    ({!msg}, run by the delivery hook), a closure ({!schedule} and
    friends), a fiber resume ({!resume}: the continuation and its
    value) or a fiber timer ({!wake_at}: the continuation, which pushes
    its resume when it fires).  The last two hold no closure, so a
    fiber blocked in [Fiber.sleep], a CPU charge or an await costs one
    small block. *)

type t

(** [create ?queue ()] makes a simulator backed by the given
    single-queue structure: the binary heap (default, [`Heap]) or the
    hierarchical timer wheel ([`Wheel], see {!Wheel}).  The two are
    pop-for-pop identical — strict [(time, seq)] order with FIFO ties —
    so the choice affects performance only: the wheel wins on
    arrival-heavy workloads with deep queues, the heap on small or
    far-scattered ones.  {!set_chooser} supersedes either with the
    model checker's lane structure. *)
val create : ?queue:[ `Heap | `Wheel ] -> unit -> t

(** Payload of a network delivery ({!schedule_delivery}): immutable
    data, extended with constructors by the protocol engine.  The queue
    entry holds the payload and the endpoints, nothing else, so one
    payload can be scheduled to every destination of a fan-out. *)
type msg = ..

(** Install the delivery gate: called as [gate ~src ~dst] just before a
    delivery fires; returning [false] drops it (the event is consumed,
    nothing runs).  The protocol engine uses this to drop messages
    to/from crashed nodes at delivery time.  Internal events
    ({!schedule} / {!schedule_at}) bypass the gate. *)
val set_delivery_gate : t -> (src:int -> dst:int -> bool) -> unit

(** Install the delivery hook: called as [hook ~src ~dst m] for every
    {!schedule_delivery} payload that passes the gate.  One hook per
    simulator, installed by the protocol engine; it picks the handler
    from the payload's constructor.  Until one is installed, a payload
    delivery raises [Invalid_argument]. *)
val set_delivery_hook : t -> (src:int -> dst:int -> msg -> unit) -> unit

(** {1 Controlled scheduling (model-checker hook)} *)

(** Event-lane identity: [Internal] covers timers, CPU completions and
    fiber wake-ups (always FIFO); [Fault] carries planned fault-injection
    actions ({!schedule_fault}); [Chan] is one directed network
    channel. *)
type tag = Internal | Fault | Chan of { src : int; dst : int }

val compare_tag : tag -> tag -> int
val pp_tag : Format.formatter -> tag -> unit

(** Head event of a lane, as offered to the chooser.  [seq] is the
    lane-local insertion counter: deterministic across replays of the
    same choice sequence, hence a stable event identity. *)
type candidate = { tag : tag; time : int; seq : int }

(** Switch this simulator into controlled mode.  The chooser receives
    the head events of all non-empty lanes (sorted by {!compare_tag})
    and returns the index to fire; it is only consulted when at least
    two lanes are non-empty.  Firing an event from the future advances
    [now] to its timestamp; firing a deferred event does not move time
    backwards.  Must be called before any event is scheduled.
    @raise Invalid_argument if events are already pending. *)
val set_chooser : t -> (candidate array -> int) -> unit

(** [schedule_delivery t ~time ~src ~dst m] schedules the delivery of
    payload [m] on channel [src -> dst] ([0 <= src, dst < 2^20]); at
    [time] it passes the gate and goes to the delivery hook.  In
    controlled mode the event lands in the channel's own lane. *)
val schedule_delivery : t -> time:int -> src:int -> dst:int -> msg -> unit

(** [schedule_msg t ~time ~src ~dst f] schedules a delivery on channel
    [src -> dst] that runs [f] itself (past the gate) instead of the
    hook: a delivery for callers with no payload type of their own. *)
val schedule_msg : t -> time:int -> src:int -> dst:int -> (unit -> unit) -> unit

(** Current simulated time in microseconds. *)
val now : t -> int

(** [schedule t ~delay f] runs [f ()] at [now t + delay].
    @raise Invalid_argument if [delay < 0]. *)
val schedule : t -> delay:int -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f ()] at absolute [time]; a time in the
    past fires at the current instant. *)
val schedule_at : t -> time:int -> (unit -> unit) -> unit

(** {1 Fiber wake-ups}

    Entries that carry a suspended fiber's continuation instead of a
    closure; {!Fiber} and {!Ivar} are their only callers.  Both are
    internal events. *)

(** [resume t k v] continues [k] with [v] at the current instant,
    after the events already queued for it. *)
val resume : t -> ('a, unit) Effect.Deep.continuation -> 'a -> unit

(** [wake_at t ~time k] is a fiber's timer: at [time] it pushes a
    {!resume} of [k] with [()], so the fiber runs one hop later at the
    same instant, behind what that instant already holds.
    @raise Invalid_argument if [time < now t]. *)
val wake_at : t -> time:int -> (unit, unit) Effect.Deep.continuation -> unit

(** [schedule_fault t ~time f] schedules a planned fault action.
    Identical to {!schedule_at} in the single-queue modes; in controlled
    mode the event lands in the dedicated [Fault] lane, making each
    action a first-class transition the chooser orders freely against
    deliveries and internal events (plan order within the lane is
    preserved). *)
val schedule_fault : t -> time:int -> (unit -> unit) -> unit

(** Run until the queue is empty or [until] (inclusive) is passed.
    Returns the number of events processed. *)
val run : ?until:int -> t -> int

(** Number of pending events. *)
val pending : t -> int

(** {1 Lifetime queue accounting}

    Aggregated over the backing queues (the single heap in default mode,
    all lanes in controlled mode); reported in observability run
    summaries.  [queue_max_depth] is the per-queue high-water mark,
    maxed over queues. *)

val queue_pushes : t -> int
val queue_pops : t -> int
val queue_max_depth : t -> int

(** Hash of the pending-event multiset: FNV-1a over the ascending
    [(time, seq)] key stream (in controlled mode: per lane, in lane
    order, mixed with the lane tag).  Every backing structure exposes
    the same sorted enumeration, so the fingerprint is independent of
    heap/wheel internals.  Part of the model checker's state
    fingerprint. *)
val pending_fingerprint : t -> int

(** {1 Fiber accounting}

    Fibers ({!Fiber}) spawned on this simulator that have not finished
    yet, whether running, scheduled to start or blocked.  {!Fiber}
    keeps the count; a harness reads it through {!Fiber.live}. *)

val live_fibers : t -> int
val fiber_spawned : t -> unit
val fiber_finished : t -> unit

(** [fiber_handler t make] is the effect handler {!Fiber} runs every
    fiber of [t] under: [make t] on the first call, the same handler
    after, so a spawn allocates none of it. *)
val fiber_handler :
  t -> (t -> (unit, unit) Effect.Deep.handler) -> (unit, unit) Effect.Deep.handler

(** Render a simulated timestamp as seconds for reporting. *)
val to_sec : int -> float

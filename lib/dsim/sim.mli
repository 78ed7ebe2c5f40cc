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
    [lib/check] enumerates these choices exhaustively. *)

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

(** Install the delivery gate: called as [gate ~src ~dst] just before a
    {!schedule_msg} event fires; returning [false] drops the delivery
    (the event is consumed, its callback never runs).  The protocol
    engine uses this to drop messages to/from crashed nodes at
    delivery time — the gate replaces the per-message guard closure the
    engine used to allocate around every send.  Internal events
    ({!schedule} / {!schedule_at}) bypass the gate. *)
val set_delivery_gate : t -> (src:int -> dst:int -> bool) -> unit

(** {1 Controlled scheduling (model-checker hook)} *)

(** Event-lane identity: [Internal] covers timers, CPU completions and
    fiber wakeups (always FIFO); [Fault] carries planned fault-injection
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

(** [schedule_msg t ~time ~src ~dst f] schedules a network delivery on
    channel [src -> dst].  Identical to {!schedule_at} in default mode;
    in controlled mode the event lands in the channel's own lane. *)
val schedule_msg : t -> time:int -> src:int -> dst:int -> (unit -> unit) -> unit

(** Current simulated time in microseconds. *)
val now : t -> int

(** [schedule t ~delay f] runs [f ()] at [now t + delay].
    @raise Invalid_argument if [delay < 0]. *)
val schedule : t -> delay:int -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f ()] at absolute [time]; a time in the
    past fires at the current instant. *)
val schedule_at : t -> time:int -> (unit -> unit) -> unit

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

(** Render a simulated timestamp as seconds for reporting. *)
val to_sec : int -> float

(** Priority queue of timed events for the discrete-event engine.

    Events are ordered by [(time, seq)] where [seq] is a monotonically
    increasing insertion counter, so events scheduled for the same instant
    fire in FIFO order.  This guarantees deterministic replay. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

(** [push q ~time ev] enqueues [ev] to fire at [time] (microseconds). *)
val push : 'a t -> time:int -> 'a -> unit

(** [push_msg q ~time ~src ~dst ev] enqueues a network delivery and
    records its endpoints unboxed in the queue entry; the run loop reads
    them back through {!popped_src}/{!popped_dst} to gate the delivery
    and to hand the destination to the delivery hook, so the payload
    itself holds neither.  [0 <= src, dst < 2^20]. *)
val push_msg : 'a t -> time:int -> src:int -> dst:int -> 'a -> unit

(** [push_keyed q ~time ~seq ~meta ev] enqueues with a caller-supplied
    sequence number and packed routing word (see {!pack_meta}).  This is
    the timer wheel's overflow hook: the wheel numbers every event from
    one global counter, and far-horizon events parked in a heap must
    keep those numbers so a [(time, seq)] comparison across the two
    structures reproduces exact heap order.  Callers must supply
    distinct [seq] values; the queue-local counter is bypassed. *)
val push_keyed : 'a t -> time:int -> seq:int -> meta:int -> 'a -> unit

(** Packed routing word: [-1] when [src < 0] (internal event), else
    [(src lsl 20) lor dst]. *)
val pack_meta : src:int -> dst:int -> int

val meta_src : int -> int
val meta_dst : int -> int

(** Earliest event time, if any. *)
val min_time : 'a t -> int option

(** Earliest event time, or [max_int] when the queue is empty — the
    allocation-free {!min_time} for the simulator's run loop. *)
val head_time : 'a t -> int

(** [(time, seq)] of the earliest event, if any.  [seq] is the
    queue-local insertion counter: deterministic across replayed runs,
    which makes it a stable event identity for controlled schedulers. *)
val peek_key : 'a t -> (int * int) option

(** Fold over the [(time, seq)] keys of all queued events, in
    unspecified (heap-internal) order — combine commutatively. *)
val fold_keys : (int * int -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

(** [fold_keys_sorted f q acc] folds [f time seq] over all queued keys
    in ascending [(time, seq)] order, independent of the backing
    structure's internal layout.  {!Sim.pending_fingerprint} uses this
    so fingerprints agree between the heap and the timer wheel. *)
val fold_keys_sorted : (int -> int -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

(** Remove and return the earliest event as [(time, ev)].
    @raise Not_found if the queue is empty. *)
val pop : 'a t -> int * 'a

(** Remove and return the earliest event's payload alone — the hot-loop
    variant of {!pop}; the key is read back via {!popped_time} /
    {!popped_src} / {!popped_dst} without allocating a tuple.
    @raise Not_found if the queue is empty. *)
val pop_payload : 'a t -> 'a

(** Time of the most recently popped event. *)
val popped_time : 'a t -> int

(** Source node of the most recently popped event, [-1] if internal. *)
val popped_src : 'a t -> int

(** Destination node of the most recently popped event, [-1] if
    internal. *)
val popped_dst : 'a t -> int

(** Packed routing word of the most recently popped event. *)
val popped_meta : 'a t -> int

(** {1 Lifetime accounting}

    O(1) counters maintained by {!push}/{!pop}; the observability layer
    reports them in run summaries. *)

val pushes : 'a t -> int
(** Total events ever pushed. *)

val pops : 'a t -> int
(** Total events ever popped. *)

val max_depth : 'a t -> int
(** High-water mark of {!length} over the queue's lifetime. *)

(** Hierarchical timer wheel: a drop-in alternative to {!Event_queue}
    for the simulator's single-queue mode.

    4 levels x 1024 slots at 1 us granularity cover ~2^40 us ahead of
    the wheel's base; pushes and pops of near-horizon events (the bulk
    of an arrival-driven workload) are O(1) amortized.  Far timers and
    events pushed behind an advanced base park in a binary-heap
    overflow and are merged at pop time by key comparison.

    Equivalence contract: all events are numbered by one global push
    counter, and pops come out in ascending [(time, seq)] order — the
    exact order {!Event_queue} produces for the same push/pop sequence,
    including FIFO ties at equal times.  The qcheck differential oracle
    in the test suite holds the two structures to this bit-for-bit. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

(** [push w ~time ev] enqueues [ev] to fire at [time] (microseconds). *)
val push : 'a t -> time:int -> 'a -> unit

(** Network-delivery push carrying packed endpoints, as
    {!Event_queue.push_msg}. *)
val push_msg : 'a t -> time:int -> src:int -> dst:int -> 'a -> unit

(** Earliest event time, if any.  May advance the wheel's base (never
    past the earliest pending event). *)
val min_time : 'a t -> int option

(** Earliest event time, or [max_int] when the wheel is empty; the
    allocation-free {!min_time}, with the same effect on the base. *)
val head_time : 'a t -> int

(** [(time, seq)] of the earliest event, if any; [seq] is the global
    push counter, so keys are comparable with heap keys. *)
val peek_key : 'a t -> (int * int) option

(** Remove and return the earliest event as [(time, ev)].
    @raise Not_found if the wheel is empty. *)
val pop : 'a t -> int * 'a

(** Tuple-free {!pop}; read the key back via {!popped_time} /
    {!popped_src} / {!popped_dst}.
    @raise Not_found if the wheel is empty. *)
val pop_payload : 'a t -> 'a

val popped_time : 'a t -> int
val popped_src : 'a t -> int
val popped_dst : 'a t -> int

(** Fold over all pending [(time, seq)] keys in ascending order,
    independent of internal placement; agrees with
    {!Event_queue.fold_keys_sorted} on equal pending sets. *)
val fold_keys_sorted : (int -> int -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

(** {1 Lifetime accounting} — as {!Event_queue}. *)

val pushes : 'a t -> int
val pops : 'a t -> int
val max_depth : 'a t -> int

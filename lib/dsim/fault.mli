(** Declarative fault injection for the simulated cluster.

    A fault layer sits between the network and the delivery gate: it
    owns a per-link cut matrix (blackholes), a per-link loss
    probability matrix, and callbacks into the protocol engine for
    crash-stop / crash-recover node failures.  Faults are driven by a
    declarative {!plan} — a list of [(time, action)] pairs — installed
    into the simulator's event queue, so a faulted run is exactly as
    deterministic and replayable as a fault-free one, on the heap and
    wheel queues alike and under the model checker's controlled mode
    (where each planned action becomes one first-class internal
    transition the chooser orders against message deliveries).

    Probabilistic loss draws from the layer's own {!Rng} stream, and
    only when a link actually has a nonzero loss probability: a plan
    with no [Drop] action consumes no randomness, so installing the
    layer leaves fault-free runs bit-identical. *)

type action =
  | Crash of int  (** node fails (crash-stop until a matching [Recover]) *)
  | Recover of int  (** crashed node restarts from its persistent state *)
  | Link_down of int * int  (** blackhole the directed link [src -> dst] *)
  | Link_up of int * int  (** restore the directed link *)
  | Isolate of int  (** cut every link to and from the node (both ways) *)
  | Partition of int list * int list
      (** cut every link between the two groups, in both directions *)
  | Drop of int * int * float
      (** lose each delivery on the directed link with probability [p] *)
  | Drop_all of float  (** loss probability on every inter-node link *)
  | Heal  (** restore every cut link and clear every loss probability *)

(** [(time_us, action)] pairs; absolute simulated time, any order. *)
type plan = (int * action) list

type t

(** [create ~n ()] makes an inert fault layer for an [n]-node cluster:
    no cuts, no loss, handlers unset.  [seed] feeds the layer's private
    loss RNG (default 7). *)
val create : ?seed:int -> n:int -> unit -> t

(** Wire the layer to the protocol engine: [crash]/[recover] run when a
    [Crash]/[Recover] action fires. *)
val set_handlers : t -> crash:(int -> unit) -> recover:(int -> unit) -> unit

(** [validate ~n plan] checks every action against an [n]-node cluster:
    each action time must be at least 0, each node id must lie in
    [0..n-1] and each loss probability in [\[0, 1)].  Raises
    [Invalid_argument] naming the first offending value.  Pure: it draws
    no randomness and schedules nothing. *)
val validate : n:int -> plan -> unit

(** Apply one action immediately (plans go through {!install}); raises
    [Invalid_argument] like {!validate} on a malformed action, before
    changing anything. *)
val apply : t -> action -> unit

(** Schedule every planned action into [sim]'s event queue (the
    dedicated [Fault] lane under controlled mode, so a chooser orders
    each action against deliveries and wakeups as its own transition).
    The whole plan is {!validate}d first, so a malformed plan schedules
    nothing. *)
val install : t -> sim:Sim.t -> plan -> unit

(** Delivery-gate predicate: false when the directed link is cut, or
    when it is lossy and the loss draw fires.  Composed with the
    engine's own liveness gate. *)
val deliverable : t -> src:int -> dst:int -> bool

(** Any cut link or nonzero loss probability currently in effect? *)
val active : t -> bool

(** Directed links currently cut. *)
val cut_links : t -> int

(** Messages dropped on cut links so far. *)
val blackholed : t -> int

(** Messages lost to probabilistic drops so far. *)
val dropped : t -> int

(** Plan actions applied so far. *)
val actions_applied : t -> int

(** Structural hash of the installed link state (cut + loss matrices);
    consumers mix it into their own state fingerprints so model-checker
    dedup distinguishes states that differ only in active faults. *)
val fingerprint : t -> int

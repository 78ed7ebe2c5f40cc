(** Single-assignment variables used as the synchronization primitive
    between simulator fibers.

    An empty ivar holds the fibers parked on it ({!park}, which
    {!Fiber.await} uses) in registration order, each stored as its
    continuation, with no closure.  A fill pushes each parked fiber's
    resume ({!Sim.resume}) onto the event queue in that order, so a
    fiber never runs on the filler's stack. *)

type 'a t

val create : unit -> 'a t

val is_full : 'a t -> bool

(** [fill iv v] sets the value and queues every parked fiber, in
    registration order, to resume with [v] at the current instant.
    @raise Invalid_argument if already full. *)
val fill : 'a t -> 'a -> unit

(** Like [fill] but a no-op when already full; returns whether it filled. *)
val fill_if_empty : 'a t -> 'a -> bool

(** Read the value if present. *)
val peek : 'a t -> 'a option

(** [park iv sim k] registers the suspended fiber [k] to be resumed on
    [sim] with the ivar's value; if the ivar is already full, the
    resume is queued at once, behind the events already queued for the
    current instant.  {!Fiber.await}'s effect handler is the caller. *)
val park : 'a t -> Sim.t -> ('a, unit) Effect.Deep.continuation -> unit

(** Causal message-edge store: the per-delivery half of the causal DAG.

    Every traced protocol send — solo or riding a coalesced wire
    message — records one {!edge} at delivery time, stamped with the
    emitting transaction's context ([ea]/[eb], the same (origin,
    number) identity the span recorder uses).  Together with the span
    events of {!Trace}, the edges of one transaction link into its
    causal DAG; {!Critpath} walks that DAG to decompose observed
    latency.

    Same contracts as {!Trace}: all timestamps are simulated-time
    microseconds, recording never schedules simulator events, and a
    disabled store costs one branch per site. *)

type edge = {
  ekind : int;  (** [Trace.msg_index] of the payload kind *)
  ea : int;  (** sender transaction identity, [min_int] when none *)
  eb : int;
  esrc : int;
  edst : int;
  et_enq : int;  (** payload handed to the send path *)
  et_wire : int;  (** wire message departs ([= et_enq] unless batched) *)
  et_deliver : int;  (** delivery instant at [edst] *)
  equeue : int;  (** destination CPU backlog at delivery (queue wait) *)
  ecost : int;  (** dispatch CPU cost charged for this payload *)
}

type t

val create : unit -> t
val disabled : unit -> t

val record : t -> edge -> unit
(** Append one edge (no-op when off). *)

val adopt : t -> from:t -> unit
(** Replace [t]'s edges with [from]'s (see {!Trace.adopt}). *)

val n_edges : t -> int
val iter : t -> (edge -> unit) -> unit

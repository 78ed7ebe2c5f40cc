(** Message-passing substrate between simulated nodes.

    Each node lives in a data center of the {!Topology}; delivering a
    message costs the one-way DC-to-DC latency, optionally perturbed by
    multiplicative jitter.  Messages between distinct nodes of the same
    DC cost the intra-DC latency; a node messaging itself costs a small
    fixed loopback latency. *)

type t

(** [create ~sim ~topology ~node_dc ~jitter ~rng] wires [n] nodes where
    node [i] lives in data center [node_dc.(i)].  [jitter] is the
    relative half-width of the uniform latency perturbation (e.g. 0.05
    for +/-5%); pass 0. for fully deterministic latencies. *)
val create :
  sim:Sim.t ->
  topology:Topology.t ->
  node_dc:int array ->
  jitter:float ->
  rng:Rng.t ->
  t

val topology : t -> Topology.t
val node_count : t -> int
val dc_of_node : t -> int -> int

(** One-way latency in microseconds between two nodes (mean, before jitter). *)
val latency_us : t -> src:int -> dst:int -> int

(** Deliver payload [m] at the destination after the network latency,
    through the simulator's delivery gate and hook
    ({!Sim.schedule_delivery}).  Per-channel FIFO: a message never
    overtakes an earlier one on the same (src, dst) pair. *)
val send_msg : t -> src:int -> dst:int -> Sim.msg -> unit

(** {!send_msg} for a delivery that runs [f] itself
    ({!Sim.schedule_msg}); [f] runs as a fresh event (never inline). *)
val send : t -> src:int -> dst:int -> (unit -> unit) -> unit

(** Deliver [m] as ONE wire message carrying [n] coalesced logical
    payloads: one latency draw, one FIFO slot, one delivery event.
    {!messages_sent} still grows by [n] (logical count, comparable
    across batched and unbatched runs) while {!wan_messages} and the
    FIFO channel see a single message — which is the point of
    coalescing. *)
val send_coalesced : t -> src:int -> dst:int -> n:int -> Sim.msg -> unit

(** Total logical messages sent so far (includes loopback sends; every
    payload inside a coalesced flush counts). *)
val messages_sent : t -> int

(** Wire messages whose source and destination DCs differ (a coalesced
    flush counts once). *)
val wan_messages : t -> int

(** Coalesced flushes sent via {!send_coalesced}. *)
val batches_sent : t -> int

(** Sends whose delivery time was pushed back to preserve per-channel
    FIFO order (a proxy for channel congestion). *)
val fifo_delays : t -> int

val reset_counters : t -> unit

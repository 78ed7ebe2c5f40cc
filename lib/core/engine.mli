(** The STR protocol engine: a whole geo-distributed cluster inside the
    simulator, exposing the transactional API of the paper's coordinator
    (Algorithm 1) over partition servers (Algorithm 2).

    Clients call {!begin_tx} / {!read} / {!write} / {!commit} from
    inside a {!Dsim.Fiber} fiber.  [commit] returns the final commit
    timestamp; any abort (certification conflict, eviction, cascading
    misspeculation) surfaces as {!Types.Tx_abort} from whichever
    operation the client is in — the transparent-retry contract of the
    paper. *)

type t

val create :
  sim:Dsim.Sim.t ->
  net:Dsim.Network.t ->
  placement:Store.Placement.t ->
  config:Config.t ->
  ?seed:int ->
  ?trace:Obs.Trace.t ->
  unit ->
  t
(** Wire one node per network endpoint, with partition replicas placed
    per [placement].  [seed] drives per-node clock skews.  [trace]
    attaches a span/counter recorder (default: a disabled one, whose
    entire overhead is one branch per potential record); when enabled
    the engine emits the full transaction lifecycle — [tx]/[read]/
    [olc-wait]/[local-cert]/[repl-wait]/[dep-wait] spans plus commit and
    abort instants — alongside per-message-type counters and the abort
    taxonomy.  Tracing never schedules events, so it cannot perturb the
    simulation. *)

(** {1 Introspection} *)

val sim : t -> Dsim.Sim.t
val net : t -> Dsim.Network.t
val config : t -> Config.t

val placement : t -> Store.Placement.t
val n_nodes : t -> int

val server : t -> node:int -> partition:int -> Partition_server.t
(** The replica of [partition] hosted by [node].
    @raise Invalid_argument if the node does not replicate it. *)

val cache_of : t -> int -> Partition_server.t
(** The node's cache partition (§5.2). *)

val set_observer : t -> (Types.event -> unit) -> unit
(** Install an execution-event observer (e.g. {!Spsi.History.record}). *)

(** {1 Data loading} *)

val load : t -> Store.Keyspace.Key.t -> Store.Keyspace.Value.t -> unit
(** Install an initial committed version (timestamp 0) of the key,
    bypassing the protocol.  It goes into the partition's loaded
    dataset, stored once and shared by every replica of the partition
    until a replica writes the key; a key loaded with a row the
    partition already holds shares that row's version.
    @raise Invalid_argument naming the key if it is already loaded or a
    replica has already written it. *)

(** {1 Transactional API (fiber context)} *)

val begin_tx : t -> origin:int -> Types.tx
(** Start a transaction at [origin]; its read snapshot is the node's
    current physical time. *)

val read : t -> Types.tx -> Store.Keyspace.Key.t -> Store.Keyspace.Value.t option
(** Snapshot read.  May serve from the private write buffer, a local
    replica, the cache partition (speculatively) or the nearest remote
    replica; blocks as required by Clock-SI and by the SPSI OLC/FFC
    guard.  [None] means the key does not exist in the snapshot.
    @raise Types.Tx_abort if the transaction was aborted meanwhile. *)

val write : t -> Types.tx -> Store.Keyspace.Key.t -> Store.Keyspace.Value.t -> unit
(** Buffer a write (read-your-writes visible to later {!read}s).
    @raise Types.Tx_abort if the transaction was aborted meanwhile. *)

val commit : t -> Types.tx -> int
(** Run local certification, local commit, global certification with
    synchronous master-slave replication, dependency resolution, and
    final commit; returns the final commit timestamp.
    @raise Types.Tx_abort on any certification conflict or cascading
    abort (the client should retry with a fresh transaction). *)

val abort_tx : t -> Types.tx -> Types.abort_reason -> unit
(** Force-abort (test support); idempotent, cascades to dependents. *)

(** {1 Fault injection, fail-over and recovery (§5.6)} *)

(** Crash a node: its messages (including in-flight ones) are dropped,
    its transactions abort cluster-wide, survivors' transactions that
    were awaiting its replies abort with [Node_failure] and get retried
    by their clients, and the closest live slave of each partition it
    mastered is promoted.  Without the recovery protocol its remote
    pre-commits are also purged at the survivors (crash-stop presumed
    abort); with it they are held in doubt for recovery-time resolution
    against the coordinator's persistent decision log.  Idempotent. *)
val crash : t -> int -> unit

(** Attach a declarative fault layer: [Crash] actions drive {!crash},
    [Recover] actions restart the node from its persistent state
    (committed and pre-committed store state plus the decision log),
    and the layer's link state (cuts, probabilistic loss) composes with
    the liveness delivery gate.  [recovery] (default [true])
    additionally switches on the atomic-commitment recovery protocol —
    decision logging, in-doubt holds across crashes and
    decision-carrying commit upserts — independent of the config's
    detection periods; pass [false] to keep legacy crash-stop semantics
    while using the layer as a pure transport harness (an installed but
    never-activated layer then leaves runs bit-identical). *)
val install_fault : ?recovery:bool -> t -> Dsim.Fault.t -> unit

val is_alive : t -> int -> bool

(** {1 Cluster-wide accounting} *)

val total_stats : t -> Stats.t
val total_commits : t -> int

(** {2 Batching counters} (all zero when [Config.batch_window_us = 0]) *)

val batch_flushes : t -> int
(** Coalesced flushes sent (also the sweep-token generator). *)

val batch_payloads : t -> int
(** Logical payloads those flushes carried. *)

val batch_occupancy : t -> int array
(** Flush-size histogram; index [min n 16], index 0 always empty. *)

val live_spec_depth : t -> int
(** Transactions currently in [Local_committed] — locally committed,
    globally undecided.  The time-series "speculation depth" gauge. *)

val cert_sweep_stats : t -> int * int * int array
(** Batched-certification sweeps summed over every partition server:
    [(sweeps, swept prepares, occupancy histogram)] — see
    {!Partition_server.sweep_stats}. *)

val storage_breakdown : t -> int * int
(** [(data_bytes, last_reader_metadata_bytes)] summed over all replicas
    — the Precise Clocks storage-overhead measurement of §6.1. *)

(** Every replica's and cache partition's {!Store.Mvstore.check_invariants}:
    chain order, and no cache entry without a version. *)
val check_invariants : t -> (unit, string) result
(** Validate every version chain in the cluster (test support). *)

val fingerprint : t -> int
(** Structural hash of the protocol-visible cluster state (transaction
    records, version chains, masterships), independent of hash-table
    iteration order.  Model-checker support: equal fingerprints mean
    (modulo hash collisions) the interleavings converged to the same
    state. *)

(** One partition replica: the server side of Algorithm 2.

    A passive, message-driven state machine invoked by the engine either
    directly (same node) or from a network-delivery event.  It owns the
    replica's multi-versioned store, serves (possibly blocking) reads,
    certifies prepares under the write-write conflict rule with
    speculative stacking, applies lifecycle transitions, and computes
    prepare-timestamp proposals under Physical or Precise clocks.

    The node's {e cache partition} (§5.2) is the same machinery created
    with [is_cache:true]: final commit then drops the cached versions
    (the authoritative copies live on the key's real replicas). *)

open Store

type t

val create :
  sim:Dsim.Sim.t ->
  clock:Dsim.Clock.t ->
  cpu:Dsim.Cpu.t ->
  config:Config.t ->
  node_id:int ->
  partition:int ->
  ?is_cache:bool ->
  ?stats:Stats.t ->
  ?dataset:Mvstore.dataset ->
  ?trace:Obs.Trace.t ->
  ?pid:int ->
  unit ->
  t
(** [dataset] is the partition's loaded dataset, shared with its other
    replicas (default: a private, empty one).  [trace]/[pid] attach the
    replica to a span recorder (default: a disabled one); [pid] is the
    trace process id of the node's data center.  When tracing is on the
    replica emits [lock-wait] spans for reads blocked on uncommitted
    versions and [lock-hold] spans from a successful prepare to the
    releasing commit/abort. *)

val store : t -> Mvstore.t
val node_id : t -> int
val partition : t -> int
val blocked_reads : t -> int
val pending_keys : t -> Txid.t -> Keyspace.Key.t list

(** Number of keys held uncommitted for the transaction; O(1) (cost
    expressions in the engine use this instead of walking the list). *)
val pending_key_count : t -> Txid.t -> int

val has_tx : t -> Txid.t -> bool

(** Transactions with uncommitted state at this replica. *)
val pending_txids : t -> Txid.t list

(** {1 Reads} *)

type read_reply = {
  value : Keyspace.Value.t option;
  src : [ `Committed of int  (** final commit timestamp *) | `Speculative | `Missing ];
  writer : Txid.t option;
}

(** Serve a read at snapshot [rs] for a transaction originated at
    [reader_origin]; [reply] fires (possibly much later) with the
    result.  Implements Alg. 2 [readFrom]: bumps [LastReader], blocks on
    pre-committed versions and on local-committed versions the reader
    may not observe speculatively, and delays reads from the future
    (Clock-SI).  [reader] (the reading transaction's [(origin, number)]
    identity, default anonymous) stamps lock-wait spans so the blocked
    transaction's critical path owns the convoy time. *)
val read :
  ?allow_spec:bool ->
  ?reader:int * int ->
  t ->
  rs:int ->
  reader_origin:int ->
  Keyspace.Key.t ->
  (read_reply -> unit) ->
  unit

(** Does any version (any state) exist at snapshot [rs]?  Used to route
    non-local keys through the cache partition. *)
val has_visible : t -> rs:int -> Keyspace.Key.t -> bool

(** {1 Certification} *)

type prepare_outcome =
  | Prepared of { ts : int; wdeps : Txid.t list }
      (** [wdeps]: local-committed transactions this prepare
          speculatively stacked upon (write-write dependencies) *)
  | Conflict of Keyspace.Key.t

(** Write-write certification over [writes] (Alg. 2 [prepare]); inserts
    pre-committed versions and registers the pending set on success.
    [stack_over] (remote replicas only) lists the transactions the
    incoming one declares as dependencies: only their uncommitted
    versions may be stacked upon. *)
val prepare :
  ?stack_over:Txid.Set.t ->
  ?origin_spec:bool ->
  t ->
  txid:Txid.t ->
  origin:int ->
  rs:int ->
  writes:(Keyspace.Key.t * Keyspace.Value.t) list ->
  prepare_outcome

(** Local speculative transactions of {e this} node whose uncommitted
    versions conflict with an incoming remote prepare; the engine aborts
    them (and their dependents) before installing the prepare (Alg. 2,
    replicate handler). *)
val evict_candidates :
  t -> writes:(Keyspace.Key.t * Keyspace.Value.t) list -> except:Txid.t -> Txid.t list

(** {1 Batched certification}

    When the engine coalesces the commit pipeline
    ([Config.batch_window_us > 0]), the prepares of one flush are
    certified back-to-back in a single CPU event — an ordered sweep over
    the lock table. *)

(** A prepare carried inside a coalesced flush: the argument bundle of
    {!prepare}, reified so the engine can queue it at the sender and the
    server can certify it at delivery without re-marshalling. *)
type batch_req = {
  btxid : Txid.t;
  borigin : int;
  brs : int;
  bwrites : (Keyspace.Key.t * Keyspace.Value.t) list;
  bstack_over : Txid.Set.t;
}

(** Exactly [prepare ~stack_over:r.bstack_over t ~txid:r.btxid ...] —
    the solo (unbatched) delivery path, with no sweep accounting, so a
    run with batching off is bit-identical to the historical model. *)
val prepare_req : t -> batch_req -> prepare_outcome

(** Certify one entry of an ordered batch sweep.  [sweep] identifies the
    flush; consecutive calls sharing a token are accounted as one
    lock-table sweep.  Semantics are exactly {!prepare_req}: a later
    prepare of the batch may stack over versions an earlier one just
    installed, because the sweep runs in enqueue order. *)
val certify_batch : t -> sweep:int -> batch_req -> prepare_outcome

(** [(sweeps, swept prepares, occupancy histogram)] — histogram index is
    [min sweep_size 16]; index 0 is always empty. *)
val sweep_stats : t -> int * int * int array

(** {1 Lifecycle transitions} *)

(** Pre-committed -> local-committed at timestamp [lc]; wakes blocked
    readers (local ones may now read speculatively). *)
val local_commit : t -> Txid.t -> lc:int -> unit

(** Final commit at timestamp [ct]; the cache partition instead drops
    the versions (Alg. 1, line 44). *)
val commit : t -> Txid.t -> ct:int -> unit

(** Remove the transaction's versions and wake blocked readers.
    [tombstone] must be true only for aborts delivered over the network,
    where the abort can race a prepare forwarded through the partition
    master: a later prepare for a tombstoned transaction is refused
    instead of installing zombie versions. *)
val abort : ?tombstone:bool -> t -> Txid.t -> unit

(** Multi-version GC (also runs amortized inside [prepare]). *)
val prune : t -> horizon:int -> int

(** {1 Atomic-commitment recovery support} *)

(** Prepare timestamp of an in-doubt transaction at this replica (the
    timestamp on its pre-committed versions); [None] when nothing is
    pending for it. *)
val pending_ts : t -> Txid.t -> int option

(** Peer evidence about [txid], asked over its [keys] during
    cooperative termination: [`Committed ct] when a committed version
    by [txid] exists, [`Pending] when this replica also holds it in
    doubt, [`None] when no trace remains (which, under presumed abort,
    rules out an applied commit here). *)
val status_of :
  t -> Txid.t -> keys:Keyspace.Key.t list -> [ `Committed of int | `Pending | `None ]

(** Install a decided transaction's committed versions directly,
    bypassing prepare — how a commit decision is applied at a replica
    that lost the corresponding prepare across a crash window (the
    decision message carries the write set).  Skips keys that already
    hold a version by [txid]; the cache partition installs nothing. *)
val install_committed :
  t -> txid:Txid.t -> ct:int -> (Keyspace.Key.t * Keyspace.Value.t) list -> unit

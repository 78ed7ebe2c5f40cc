(** Deterministic span/event recorder for one simulation run.

    Everything is keyed on {e simulated} time (microsecond ints from
    [Dsim.Sim.now]) — never wall-clock — so a trace is a pure function
    of (configuration, seed) and byte-identical across replays and
    across parallel sweep workers.

    {b Off mode.}  A trace is created {!create} (recording) or
    {!disabled} (off).  Every emission entry point checks the [on] flag
    first and returns immediately when off, so the per-site hot-path
    cost of a disabled trace is a single branch; call sites whose
    arguments would allocate (key strings, reason labels) additionally
    guard on {!enabled} so the off path evaluates nothing.

    {b Identity scheme} (Chrome trace-event mapping): one "process" per
    data center ([pid_base + dc + 1]), one "thread" per protocol actor —
    the coordinator, the cache partition and each partition-server
    replica of a node get distinct tids from {!coord_tid} /
    {!cache_tid} / {!server_tid}.  [pid_base] namespaces multiple
    traced cells of one sweep into disjoint pid ranges. *)

(** Span kinds: the transaction lifecycle and its sub-phases. *)
type span_kind =
  | S_tx  (** whole transaction attempt, begin to final commit/abort *)
  | S_read  (** one read attempt, issue to value-return *)
  | S_olc_wait  (** blocked on the SPSI OLC/FFC snapshot-safety guard *)
  | S_lock_wait  (** server-side read blocked on an uncommitted version *)
  | S_lock_hold  (** pre-commit lock: prepare installed until commit/abort *)
  | S_local_cert  (** local certification + local commit *)
  | S_repl_wait  (** global certification: prepares in flight *)
  | S_dep_wait  (** SPSI-4: waiting on speculative dependees *)
  | S_batch_flush  (** coalescing queue open on a link: first enqueue to flush *)

val span_name : span_kind -> string

(** Point events. *)
type instant_kind = I_local_commit | I_spec_commit | I_commit | I_abort

val instant_name : instant_kind -> string

(** Protocol message classes, counted per trace.  [M_status_req] /
    [M_status_reply] are the atomic-commitment recovery protocol's
    in-doubt resolution queries (only ever sent on faulted runs).
    [M_prepare_batch] / [M_replicate_batch] are coalesced wire messages
    carrying several logical payloads (only ever sent when
    [Config.batch_window_us > 0]); the logical payloads inside are still
    counted under their own kinds. *)
type msg_kind =
  | M_read_req
  | M_read_reply
  | M_prepare
  | M_prepare_reply
  | M_replicate
  | M_commit
  | M_abort
  | M_status_req
  | M_status_reply
  | M_prepare_batch
  | M_replicate_batch

val msg_index : msg_kind -> int
(** Dense index in [msg_kind] declaration order (stable across
    schema-compatible additions, which only ever append). *)

(** One recorded event.  [t1 = -1] marks a still-open span; instants
    have [t1 = t0].  [a]/[b] carry the transaction identity (origin,
    number) when meaningful, [min_int] otherwise. *)
type ev = {
  kind : [ `Span of span_kind | `Instant of instant_kind ];
  pid : int;
  tid : int;
  t0 : int;
  mutable t1 : int;
  a : int;
  b : int;
  note : string;
}

type t

val create : ?pid_base:int -> ?causal:bool -> unit -> t
(** A recording trace.  [pid_base] (default 0) offsets every pid.
    [causal] (default true) controls the causal-edge store: when false,
    spans and instants record as usual but {!edge} is a single branch,
    so the critical-path decomposition is unavailable for the run. *)

val disabled : unit -> t
(** An off sink: every emission is a single branch and records nothing. *)

val enabled : t -> bool
val pid_base : t -> int

(** {1 Identity helpers} *)

val coord_tid : int -> int
(** Coordinator thread id of a node. *)

val cache_tid : int -> int
(** Cache-partition thread id of a node. *)

val server_tid : node:int -> partition:int -> int
(** Partition-server thread id of a replica. *)

(** {1 Emission (no-ops when off)} *)

val span_begin :
  t ->
  kind:span_kind ->
  pid:int ->
  tid:int ->
  t0:int ->
  ?a:int ->
  ?b:int ->
  ?note:string ->
  unit ->
  int
(** Open a span; returns a handle for {!span_end} ([-1] when off). *)

val span_end : t -> int -> t1:int -> unit
(** Close a span by handle.  Ignores [-1] and already-closed spans. *)

val instant :
  t ->
  kind:instant_kind ->
  pid:int ->
  tid:int ->
  time:int ->
  ?a:int ->
  ?b:int ->
  ?note:string ->
  unit ->
  unit

val count_abort : t -> Taxonomy.t -> unit
val count_msg : t -> msg_kind -> unit

val edge :
  t ->
  kind:msg_kind ->
  ?a:int ->
  ?b:int ->
  src:int ->
  dst:int ->
  t_enq:int ->
  t_wire:int ->
  t_deliver:int ->
  queue:int ->
  cost:int ->
  unit ->
  unit
(** Record one causal message edge (see {!Causal.edge}); [a]/[b] carry
    the emitting transaction's identity.  Recorded at delivery time,
    when the destination's queue backlog and dispatch cost are known. *)

val causal : t -> Causal.t
(** The trace's causal-edge store (disabled iff the trace is). *)

val set_timeseries : t -> Timeseries.t -> unit
(** Seal a run's time series into the trace (no-op when off); exported
    alongside the cell's aggregates. *)

val timeseries : t -> Timeseries.t option

val adopt : t -> from:t -> unit
(** [adopt t ~from] makes [t] hold exactly what [from] recorded (events,
    counters, causal edges, time series, declarations, stats) — [from]
    being [t]'s copy that ran in a worker process and was marshalled
    back.  [t] keeps its own on/off flag and pid base. *)

val declare_process : t -> pid:int -> name:string -> unit
val declare_thread : t -> pid:int -> tid:int -> name:string -> unit

val set_stat : t -> string -> int -> unit
(** Record/replace a named run-summary statistic (queue depths, message
    totals, RTT bounds ...); exported sorted by name. *)

val close_open_spans : t -> t1:int -> unit
(** End-of-run: close every span still open (abandoned clients,
    transactions in flight at the horizon). *)

(** {1 Introspection (export and tests)} *)

val n_events : t -> int
val iter : t -> (ev -> unit) -> unit
val processes : t -> (int * string) list  (** declaration order *)

val threads : t -> (int * int * string) list
(** [(pid, tid, name)], declaration order. *)

val abort_counts : t -> (string * int) list
(** Taxonomy buckets in {!Taxonomy.index} order.  v1-schema buckets are
    always present; buckets added since appear only when nonzero, so
    fault-free traces keep the exact v1 bytes. *)

val msg_counts : t -> (string * int) list
(** Message kinds in declaration order, with the same v1-compatibility
    rule as {!abort_counts}. *)

val stats : t -> (string * int) list  (** sorted by name *)

val find_stat : t -> string -> int option

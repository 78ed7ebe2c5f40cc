(** Per-node protocol counters feeding the evaluation's throughput,
    abort-rate and misspeculation metrics, and the self-tuner's feedback
    signal.  Latency distributions are recorded by the harness. *)

type t = {
  mutable started : int;  (** transaction attempts begun *)
  mutable commits : int;
  mutable read_only_commits : int;
  mutable aborts_local : int;
  mutable aborts_remote : int;
  mutable aborts_evicted : int;
  mutable aborts_dependency : int;
  mutable aborts_stale_snapshot : int;
  mutable aborts_node_failure : int;
  mutable aborts_prepare_timeout : int;
      (** global certification timed out with prepares outstanding *)
  mutable spec_reads : int;  (** reads served from local-committed versions *)
  mutable cache_reads : int;  (** speculative reads served by the cache partition *)
  mutable reads : int;
  mutable remote_reads : int;
  mutable spec_commits : int;  (** Ext-Spec speculative commits externalized *)
  mutable ext_misspec : int;  (** externalized then finally aborted *)
  mutable olc_blocks : int;  (** reads delayed by the OLC/FFC guard (Fig. 2) *)
  mutable server_blocks : int;  (** reads blocked on an unresolved version *)
  mutable in_doubt_commits : int;
      (** recovery: in-doubt prepared transactions resolved to commit *)
  mutable in_doubt_aborts : int;
      (** recovery: in-doubt prepared transactions resolved to abort *)
}

val create : unit -> t
val record_abort : t -> Types.abort_reason -> unit
val aborts : t -> int

(** Aborts attributable to failed internal speculation. *)
val misspeculations : t -> int

(** All rates are fractions of attempts (commits + aborts), in [0, 1]. *)
val abort_rate : t -> float

val misspeculation_rate : t -> float
val ext_misspeculation_rate : t -> float

(** Field-wise sum, into a fresh record ({!create}'s zeros for []). *)
val sum : t list -> t

val copy : t -> t

(** [diff a b]: field-wise [a - b], e.g. the counters accrued between
    two snapshots. *)
val diff : t -> t -> t

val pp : Format.formatter -> t -> unit

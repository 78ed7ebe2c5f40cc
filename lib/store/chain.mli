(** Per-key multi-version chain, ordered by decreasing timestamp.

    The chain accepts speculative "stacks": uncommitted versions sit
    above the committed history; state transitions only increase a
    version's timestamp and {!reposition} restores ordering.

    Backed by a growable array sorted by timestamp: appending the
    newest version (the protocol's common case) is O(1) amortized, the
    snapshot lookups are binary searches, and {!length}/{!newest}/
    {!exists_newer_than} are O(1).  {!newest_committed} scans down the
    speculative stack above the committed history.  A chain is also
    the node of its {!Tbl} bucket.

    A chain is a stable handle: once added to a {!Tbl} it is never
    removed from it, so a caller may keep the chain of a key (the
    partition server keeps each pending transaction's) instead of
    finding it again.  A committed version may sit in many chains at
    once (every replica that committed it holds the same value); it is
    never mutated after it is installed. *)

type t

(** A chain outside any table. *)
val create : unit -> t

(** The key a {!Tbl} chain was added under (meaningless for a chain
    from {!create}). *)
val key : t -> Keyspace.Key.t

val is_empty : t -> bool

(** O(1). *)
val length : t -> int

(** Versions, newest timestamp first (allocates a fresh list;
    introspection and test support). *)
val versions : t -> Version.t list

(** Fold over the versions newest-first without allocating. *)
val fold_newest : ('a -> Version.t -> 'a) -> 'a -> t -> 'a

(** The [i]-th newest version ([0] is the newest; [0 <= i < length]).
    O(1); scans that must not allocate walk the chain with it. *)
val nth_newest : t -> int -> Version.t

(** Insert keeping descending-timestamp order; among equal timestamps
    the newly inserted version is considered newer.  O(1) amortized
    when the version is the newest of the chain. *)
val insert : t -> Version.t -> unit

val newest : t -> Version.t option
val newest_committed : t -> Version.t option

(** Latest version with [ts <= rs], any state — what a reader with read
    snapshot [rs] lands on (Alg. 2 [latest_before]).  Binary search. *)
val latest_before : t -> rs:int -> Version.t option

(** Latest committed version with [ts <= rs].  Binary search plus a
    walk over the speculative stack. *)
val latest_committed_before : t -> rs:int -> Version.t option

val find_writer : t -> Txid.t -> Version.t option

(** Remove the writer's version, returning it so callers can keep
    storage accounting incremental. *)
val remove_writer : t -> Txid.t -> Version.t option

(** Re-sort one version after its timestamp was bumped by a state
    transition.  Any external mutation of a version's [ts] or [state]
    must be followed by a [reposition] of that version. *)
val reposition : t -> Version.t -> unit

(** Swap [old] (found by physical identity; nothing is removed if it is
    absent) for [v], inserted as {!insert} does: the position
    {!reposition} would give [old] had it been mutated into [v].  How a
    replica trades its private uncommitted version for the shared
    committed one. *)
val replace : t -> old:Version.t -> Version.t -> unit

(** Uncommitted versions, newest first. *)
val uncommitted : t -> Version.t list

(** Any version with [ts > after] (write-write certification).  O(1). *)
val exists_newer_than : t -> after:int -> bool

(** Drop committed versions older than [horizon], always retaining the
    newest committed one and every uncommitted version; single pass,
    returns how many were dropped.  [on_drop] fires once per dropped
    version (storage accounting). *)
val prune : ?on_drop:(Version.t -> unit) -> t -> horizon:int -> int

(** Validate the ordering invariants — descending timestamps and the
    committed-suffix property (property-test support). *)
val check_invariants : t -> (unit, string) result

(** Chains by key, in a {!Nodetbl} whose bucket nodes are the chains
    themselves: an entry costs no block beyond its chain.  Starts with
    no buckets.  There is no removal.  Iteration order is
    unspecified. *)
module Tbl : sig
  type chain := t
  type t

  val create : unit -> t
  val find_opt : t -> Keyspace.Key.t -> chain option
  val mem : t -> Keyspace.Key.t -> bool

  (** Add and return a new empty chain for [key], which must not be in
      the table. *)
  val add : t -> Keyspace.Key.t -> chain

  val iter : (chain -> unit) -> t -> unit
  val fold : (chain -> 'a -> 'a) -> t -> 'a -> 'a
end

(** Timestamped data item versions and their lifecycle.

    A version moves through the states of the STR protocol:
    [Pre_committed] (certification in progress; readers other than the
    writer's own node block on it), [Local_committed] (locally certified;
    same-node transactions may read it speculatively per SPSI-1), and
    [Committed].  Aborted versions are physically removed from their
    chain, so no aborted state exists.

    The type splits the states.  A [Pending] version (pre- or
    local-committed) is one replica's own: its timestamp rises and it
    moves to [Local_committed] in place, and it keeps the readers
    blocked on it.  A [Final] version is committed: three immutable
    fields, four words with the header.  A final commit does not mutate
    the pending version; it replaces it with a [Final] one, which every
    replica of the write shares.  The type is private, so only this
    module builds or writes a version. *)

type state = Pre_committed | Local_committed | Committed

type t = private
  | Final of { writer : Txid.t; ts : int; value : Keyspace.Value.t }
  | Pending of {
      writer : Txid.t;
      mutable ts : int;
          (** prepare or local-commit timestamp; only ever increases *)
      value : Keyspace.Value.t;
      mutable local : bool;  (** [Local_committed], else [Pre_committed] *)
      mutable waiters : (unit -> unit) list;
          (** blocked readers, woken when the writer's outcome is known
              at this replica *)
    }

(** A [Final] version for [Committed], else a [Pending] one. *)
val make : writer:Txid.t -> state:state -> ts:int -> value:Keyspace.Value.t -> t

val writer : t -> Txid.t
val ts : t -> int
val value : t -> Keyspace.Value.t
val state : t -> state
val is_committed : t -> bool

(** Raise a pending version's timestamp.  Its chain must then
    {!Chain.reposition} it.
    @raise Invalid_argument on a committed version. *)
val raise_ts : t -> int -> unit

(** Move a pending version to [Local_committed] at timestamp [lc].
    @raise Invalid_argument on a committed version. *)
val local_commit : t -> lc:int -> unit

(** Register a callback to run when this pending version's fate is
    decided.
    @raise Invalid_argument on a committed version, which nobody waits
    for. *)
val add_waiter : t -> (unit -> unit) -> unit

(** Pop all blocked readers, in registration order (caller wakes them);
    none for a committed version. *)
val take_waiters : t -> (unit -> unit) list

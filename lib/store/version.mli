(** Timestamped data item versions and their lifecycle.

    A version moves through the states of the STR protocol:
    [Pre_committed] (certification in progress; readers other than the
    writer's own node block on it), [Local_committed] (locally certified;
    same-node transactions may read it speculatively per SPSI-1), and
    [Committed].  Aborted versions are physically removed from their
    chain, so no aborted state exists.

    Only an uncommitted version is mutated (its timestamp raised, its
    state moved to [Local_committed]).  A final commit does not mutate:
    it replaces the uncommitted version with a new [Committed] one,
    which every replica of the write shares and nothing changes
    afterwards. *)

type state = Pre_committed | Local_committed | Committed

type t = {
  writer : Txid.t;
  mutable state : state;
  mutable ts : int;
      (** prepare, local-commit or final-commit timestamp, depending on
          [state]; only ever increases *)
  value : Keyspace.Value.t;
  mutable waiters : (unit -> unit) list;
      (** blocked readers, woken when the writer's outcome is known at
          this replica *)
}

val make : writer:Txid.t -> state:state -> ts:int -> value:Keyspace.Value.t -> t
val is_committed : t -> bool
val is_uncommitted : t -> bool

(** Register a callback to run when this version's fate is decided. *)
val add_waiter : t -> (unit -> unit) -> unit

(** Pop all blocked readers, in registration order (caller wakes them). *)
val take_waiters : t -> (unit -> unit) list

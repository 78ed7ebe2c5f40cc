(** Timestamped data item versions and their lifecycle.

    A version moves through the states of the STR protocol:

    - [Pre_committed]: inserted during a (local or global) certification
      prepare; holds a prepare timestamp.  Readers other than the
      writer's own node block on it (base Clock-SI behaviour).
    - [Local_committed]: the writer passed local certification; local
      transactions may read it speculatively (SPSI-1).
    - [Committed]: final committed with its final commit timestamp.

    Aborted versions are physically removed from their chain, so no
    [Aborted] state is represented.  A [Committed] version is made
    once per decided write, shared by every replica that installs it,
    and never mutated. *)

type state = Pre_committed | Local_committed | Committed

type t = {
  writer : Txid.t;
  mutable state : state;
  mutable ts : int; (* prepare, local-commit, or final-commit timestamp *)
  value : Keyspace.Value.t;
  mutable waiters : (unit -> unit) list;
      (* blocked readers, woken when the writer's outcome is known at
         this replica *)
}

let make ~writer ~state ~ts ~value = { writer; state; ts; value; waiters = [] }

let is_committed v = v.state = Committed
let is_uncommitted v = v.state <> Committed

let add_waiter v k = v.waiters <- k :: v.waiters

(** Pop all blocked readers (caller wakes them). *)
let take_waiters v =
  let w = List.rev v.waiters in
  v.waiters <- [];
  w

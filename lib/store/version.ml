(** Timestamped data item versions and their lifecycle.

    A version moves through the states of the STR protocol:

    - [Pre_committed]: inserted during a (local or global) certification
      prepare; holds a prepare timestamp.  Readers other than the
      writer's own node block on it (base Clock-SI behaviour).
    - [Local_committed]: the writer passed local certification; local
      transactions may read it speculatively (SPSI-1).
    - [Committed]: final committed with its final commit timestamp.

    Aborted versions are physically removed from their chain, so no
    [Aborted] state is represented.  The first two states are a
    [Pending] version, the replica's own; the third is a [Final] one,
    made once per decided write and shared by every replica that
    installs it.  [Final] has no mutable field. *)

type state = Pre_committed | Local_committed | Committed

type t =
  | Final of { writer : Txid.t; ts : int; value : Keyspace.Value.t }
  | Pending of {
      writer : Txid.t;
      mutable ts : int;
      value : Keyspace.Value.t;
      mutable local : bool;
      mutable waiters : (unit -> unit) list;
    }

let make ~writer ~state ~ts ~value =
  match state with
  | Committed -> Final { writer; ts; value }
  | Pre_committed | Local_committed ->
    Pending { writer; ts; value; local = state = Local_committed; waiters = [] }

let writer = function Final { writer; _ } | Pending { writer; _ } -> writer
let ts = function Final { ts; _ } | Pending { ts; _ } -> ts
let value = function Final { value; _ } | Pending { value; _ } -> value

let state = function
  | Final _ -> Committed
  | Pending { local = true; _ } -> Local_committed
  | Pending { local = false; _ } -> Pre_committed

let is_committed = function Final _ -> true | Pending _ -> false

let immutable name = invalid_arg ("Version." ^ name ^ ": a committed version never changes")

let raise_ts v ts = match v with Pending p -> p.ts <- ts | Final _ -> immutable "raise_ts"

let local_commit v ~lc =
  match v with
  | Pending p ->
    p.local <- true;
    p.ts <- lc
  | Final _ -> immutable "local_commit"

let add_waiter v k =
  match v with Pending p -> p.waiters <- k :: p.waiters | Final _ -> immutable "add_waiter"

(** Pop all blocked readers (caller wakes them). *)
let take_waiters = function
  | Final _ -> []
  | Pending p ->
    let w = List.rev p.waiters in
    p.waiters <- [];
    w

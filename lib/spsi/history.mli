(** Execution histories reconstructed from the engine's observer events;
    the input format of {!Checker}. *)

open Store

module KeySet : Set.S with type elt = Keyspace.Key.t

type read = {
  key : Keyspace.Key.t;
  writer : Txid.t option;  (** version creator; [None] = key absent *)
  version_ts : int;  (** final timestamp for committed reads, else 0 *)
  speculative : bool;
  start_time : int;  (** when the read was issued *)
  time : int;  (** when the value was observed *)
}

type outcome = Committed of int | Aborted of Core.Types.abort_reason | Unfinished

type tx = {
  id : Txid.t;
  origin : int;
  rs : int;
  begin_time : int;
  mutable reads : read list;  (** reverse chronological order *)
  mutable writes : KeySet.t;
  mutable lc : int option;  (** local commit timestamp *)
  mutable lc_time : int;  (** simulated time of local commit, -1 if none *)
  mutable unsafe : bool;
  mutable outcome : outcome;
  mutable end_time : int;
}

type t

val create : unit -> t

(** Feed one engine event; use as
    [Core.Engine.set_observer eng (History.record h)]. *)
val record : t -> Core.Types.event -> unit

val find : t -> Txid.t -> tx option

(** All transactions, in begin order. *)
val transactions : t -> tx list

val size : t -> int

(** Structural hash of the whole history, independent of hash-table
    iteration order (model-checker state fingerprint component). *)
val fingerprint : t -> int

(** The pseudo-identity used for dataset loading. *)
val is_initial_writer : Txid.t -> bool

(** Committed writers of a key with their commit timestamps, sorted by
    commit timestamp. *)
val committed_writers : t -> Keyspace.Key.t -> (tx * int) list

(** Multi-versioned storage of one partition replica, including the
    per-key [LastReader] metadata that powers Precise Clocks (§5.3 of
    the paper): the read snapshot of the most recent reader of each key,
    tracked at every replica that serves reads. *)

module Key = Keyspace.Key
module KeyTbl : Hashtbl.S with type key = Key.t

type t

(** The rows loaded into one partition before the run: one read-only
    committed version per key, shared by every replica store created on
    it.  A replica copies a loaded key into a private chain only when it
    first mutates it (insert or remove), so loading costs one version
    per key and partition, not per replica. *)
type dataset

val create_dataset : unit -> dataset

(** A replica store over [dataset] (default: a private, empty one). *)
val create : ?dataset:dataset -> unit -> t

(** Keys of the replica: loaded ones plus those it wrote.  O(1). *)
val key_count : t -> int

(** Total stored versions of the replica, loaded and private.  O(1)
    (incremental). *)
val version_count : t -> int

(** Fold over [key]'s versions at this replica, newest first: its
    private chain, or else its loaded version. *)
val fold_versions : ('a -> Version.t -> 'a) -> 'a -> t -> Key.t -> 'a

(** Has this replica written [key] (does it hold a private chain)? *)
val written : t -> Key.t -> bool

(** Initial load, bypassing the protocol: installs a committed version
    at timestamp [ts] (default 0) into the store's dataset, so every
    replica sharing it sees the version.
    @raise Invalid_argument if the key is already loaded or this store
    has written it. *)
val load : t -> ?ts:int -> writer:Txid.t -> Key.t -> Keyspace.Value.t -> unit

val last_reader : t -> Key.t -> int

(** Raise the key's [LastReader] to [rs] (monotone). *)
val bump_last_reader : t -> Key.t -> int -> unit

(** Latest version visible at snapshot [rs], any state; does not bump
    [LastReader] (the partition server does that explicitly). *)
val latest_before : t -> Key.t -> rs:int -> Version.t option

val latest_committed_before : t -> Key.t -> rs:int -> Version.t option
val newest_committed : t -> Key.t -> Version.t option
val insert_version : t -> Key.t -> Version.t -> unit
val find_version : t -> Key.t -> Txid.t -> Version.t option
val remove_version : t -> Key.t -> Txid.t -> unit
val reposition : t -> Key.t -> Version.t -> unit

(** Uncommitted versions currently stacked on the key. *)
val uncommitted : t -> Key.t -> Version.t list

(** Multi-version GC over every private chain; returns versions
    dropped.  A key still on its loaded version has nothing to drop. *)
val prune : t -> horizon:int -> int

val reads_served : t -> int

(** [(data_bytes, last_reader_metadata_bytes)] — the §6.1 Precise Clocks
    storage-overhead accounting.  O(1): maintained incrementally on
    every insert/remove/prune. *)
val storage_bytes : t -> int * int

(** Recompute the storage counters by walking the dataset and every
    private chain and compare against the incremental ones
    (differential oracle, test support). *)
val check_accounting : t -> (unit, string) result

val check_invariants : t -> (unit, string) result

(** Order-independent structural hash of the replica state (chains +
    [LastReader] metadata); model-checker visited-state dedup. *)
val fingerprint : t -> int

(** Every committed version as [(key, version)], keys ascending and
    versions oldest-first within a key.  Deterministic; recovery
    state-transfer support (a recovering replica copies the committed
    state it missed from a live peer). *)
val committed_versions : t -> (Key.t * Version.t) list

(** Multi-versioned storage of one partition replica, including the
    per-key [LastReader] metadata that powers Precise Clocks (§5.3 of
    the paper): the read snapshot of the most recent reader of each key,
    tracked at every replica that serves reads.

    The replicas of a partition share its loaded {!dataset} and its key
    {!directory}; a store is one replica's view of the two.  Its
    [LastReader] table is its own: a read touches one replica. *)

module Key = Keyspace.Key
module KeyTbl : Hashtbl.S with type key = Key.t

type t

(** The rows loaded into one partition before the run: one read-only
    committed version per distinct row, shared by every key loaded with
    that row and by every replica store created on the dataset.  Two
    rows are one when they have the same writer and timestamp and
    values no program can tell apart (floats compare by their bits).
    A replica copies a loaded key into its own chain only when it first
    mutates it (insert or remove), so loading costs one version per
    distinct row and partition, not per key and replica. *)
type dataset

val create_dataset : unit -> dataset

(** One partition's key directory: one node per key that any of its
    replicas has written, holding one chain per replica in numbered
    slots (a replica that never wrote the key has {!Chain.absent}).
    The replicas share it, each store reading and writing only its own
    slot, so a write at one replica is never visible at another.

    A chain left holding only committed versions adopts a sibling
    slot's array when that one is {!Chain.frozen}, so never written in
    place, and holds physically the same versions: the replicas of a
    key share its committed history.  A node whose slots all hold the
    same chain is collapsed ({!collapsed}): it keeps no slot array.

    From the first prune of any of its replicas on, the directory also
    lists the nodes where some slot holds two versions or more, the only
    ones a prune can drop a version from. *)
type directory

(** A directory with [slots] slots per node (the partition's
    replication factor).
    @raise Invalid_argument if [slots < 1]. *)
val create_directory : slots:int -> directory

(** The keys of the directory's nodes, one per node, in ascending
    {!Key.compare} order (test support). *)
val directory_keys : directory -> Key.t list

(** A replica store over [dataset] (default: a private, empty one),
    reading and writing slot [slot] (default 0) of [directory]
    (default: a private one-slot directory).
    @raise Invalid_argument if [directory] has no slot [slot]. *)
val create : ?dataset:dataset -> ?directory:directory -> ?slot:int -> unit -> t

val directory : t -> directory

(** The dataset the store reads its loaded rows from (test support). *)
val dataset : t -> dataset

(** Keys of the replica: loaded ones plus those it wrote.  O(1). *)
val key_count : t -> int

(** Total stored versions of the replica, loaded and written.  O(1)
    (incremental). *)
val version_count : t -> int

(** Fold over [key]'s versions at this replica, newest first: its
    chain, or else its loaded version. *)
val fold_versions : ('a -> Version.t -> 'a) -> 'a -> t -> Key.t -> 'a

(** Has this replica written [key] (has it started a chain)? *)
val written : t -> Key.t -> bool

(** Initial load, bypassing the protocol: installs a committed version
    at timestamp [ts] (default 0) into the store's dataset, so every
    replica sharing it sees the version.  A key whose row the dataset
    already holds shares that row's version.
    @raise Invalid_argument if the key is already loaded or a replica
    sharing the store's directory has written it. *)
val load : t -> ?ts:int -> writer:Txid.t -> Key.t -> Keyspace.Value.t -> unit

val last_reader : t -> Key.t -> int

(** Raise the key's [LastReader] to [rs] (monotone). *)
val bump_last_reader : t -> Key.t -> int -> unit

(** Latest version visible at snapshot [rs], any state; does not bump
    [LastReader] (see {!read_latest}). *)
val latest_before : t -> Key.t -> rs:int -> Version.t option

(** A served read: {!bump_last_reader} then {!latest_before}, hashing
    [key] once for both tables. *)
val read_latest : t -> Key.t -> rs:int -> Version.t option

val latest_committed_before : t -> Key.t -> rs:int -> Version.t option
val newest_committed : t -> Key.t -> Version.t option
val insert_version : t -> Key.t -> Version.t -> unit
val find_version : t -> Key.t -> Txid.t -> Version.t option
val remove_version : t -> Key.t -> Txid.t -> unit
val reposition : t -> Key.t -> Version.t -> unit

(** Uncommitted versions currently stacked on the key. *)
val uncommitted : t -> Key.t -> Version.t list

(** {1 Entry handles}

    A caller may resolve a key once and keep its entry while a version
    it inserted is in the entry's chain.  A one-slot directory drops a
    node whose chain a removal empties, unless the key has a loaded
    row; a node of a wider directory stays.  The [chain_*] functions
    take an entry of this store's directory and keep the accounting in
    step. *)

(** A key's directory node. *)
type entry

(** An entry in no directory: a placeholder for arrays of entries.
    Never pass it to the functions below. *)
val no_entry : entry

val entry_key : entry -> Key.t

(** [key]'s entry, if some replica sharing the directory has written
    it. *)
val find_entry : t -> Key.t -> entry option

(** [key]'s entry, added to the directory on the first call. *)
val entry : t -> Key.t -> entry

(** Drop the [LastReader] slot of the key of directory entry [e] when
    it is at most [ts], so that {!last_reader} reads 0 until the next
    read.  Sound once a version at [ts] is in the key's chain: a
    proposal is raised above the chain's newest version anyway, and the
    chain keeps it.  The slot is looked up with the entry's stored
    hash. *)
val forget_last_reader : t -> entry -> int -> unit

(** This replica's chain of the entry: {!Chain.absent} until it first
    mutates the key.  Every [chain_*] mutator may move the chain to
    another array; it must be read again after one. *)
val chain : t -> entry -> Chain.t

(** Do all the replicas' slots of the entry hold one chain, with no slot
    array (test support)? *)
val collapsed : entry -> bool

(** [key]'s loaded version: its whole history at a replica that has
    not written it. *)
val loaded_version : t -> Key.t -> Version.t option

(** Insert into this replica's chain, starting it on the first mutation
    (from the loaded version, if any). *)
val chain_insert : t -> entry -> Version.t -> unit

(** Remove [txid]'s version, returning it.  The entry leaves a one-slot
    directory if its chain empties and its key was not loaded. *)
val chain_remove : t -> entry -> Txid.t -> Version.t option

(** {!Chain.replace} [old], which must be in the chain, with [v].  The
    byte tally moves only when the two values differ physically. *)
val chain_replace : t -> entry -> old:Version.t -> Version.t -> unit

(** {!Chain.reposition} [v]. *)
val chain_reposition : t -> entry -> Version.t -> unit

(** Multi-version GC ({!Chain.prune}) over this replica's chains of the
    directory's listed nodes; returns versions dropped.  A chain of one
    version, such as a key still on its loaded version, has nothing to
    drop.  The first prune of a directory walks all its nodes to list
    them. *)
val prune : t -> horizon:int -> int

val reads_served : t -> int

(** [(data_bytes, last_reader_metadata_bytes)] — the §6.1 Precise Clocks
    storage-overhead accounting.  O(1): maintained incrementally on
    every insert/remove/prune. *)
val storage_bytes : t -> int * int

(** Recompute the storage counters by walking the dataset and every
    chain of this replica and compare against the incremental ones
    (differential oracle, test support). *)
val check_accounting : t -> (unit, string) result

(** Every chain of the replica passes {!Chain.check_invariants}, and a
    one-slot directory keeps no node whose chain is empty and whose key
    was not loaded. *)
val check_invariants : t -> (unit, string) result

(** Order-independent structural hash of the replica state (chains +
    [LastReader] metadata); model-checker visited-state dedup. *)
val fingerprint : t -> int

(** Every committed version as [(key, version)], keys ascending and
    versions oldest-first within a key.  Deterministic; recovery
    state-transfer support (a recovering replica copies the committed
    state it missed from a live peer). *)
val committed_versions : t -> (Key.t * Version.t) list

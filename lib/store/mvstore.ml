(** Multi-versioned storage of one partition replica.

    Besides the version chains, the store tracks per-key [LastReader]
    timestamps — the read snapshot of the most recent reader — which is
    the metadata that powers the Precise Clocks timestamping rule
    (§5.3 of the paper).  [LastReader] is tracked at every replica that
    serves reads (masters and slaves alike).

    The replicas of a partition share two structures, each replica
    seeing only its own part:
    - the {e loaded dataset}: the rows installed before the run
      ({!load}), one read-only committed version per distinct row,
      which every key loaded with that row shares;
    - the {e key directory}: one node per key any replica has written,
      holding one chain per replica.  A replica's store is a directory
      plus its slot in every node.
    A replica's slot stays {!Chain.absent} until it first mutates the
    key.  That first mutation starts the chain from the shared loaded
    version, if any (copy-on-write); from then on the chain is the key's
    whole history at that replica.  Every accessor resolves a key
    through the replica's chain when it has one, and through the
    dataset otherwise.

    Every mutation but a reposition, which moves a pending version in
    place, stores the chain it returns back in the replica's slot
    ({!settle}).  {!Chain} never writes a frozen chain (a full array of
    committed versions) in place, so the replicas may share one: a
    chain left holding only committed versions adopts a sibling slot's
    frozen array of exactly those versions, and once every slot holds
    one array the node collapses (see {!Nodetbl.set}).  {!prune} visits
    only the nodes where some replica holds two versions or more: the
    directory lists them from the first prune on.

    Storage accounting is incremental: key and version byte counts are
    maintained on every load/insert/remove/prune, so {!storage_bytes}
    (and hence the metrics sampler) is O(1) instead of walking every
    version of every chain.  A replica's totals are the dataset's tally
    plus its private tally. *)

module Key = Keyspace.Key

module KeyTbl = Hashtbl.Make (struct
  type t = Key.t
  let equal = Key.equal
  let hash = Key.hash
end)

(* Byte-cost model of the §6.1 storage accounting: container overhead
   per key and per stored version, plus the payload sizes. *)
let key_overhead_bytes = 24
let version_overhead_bytes = 16
let last_reader_slot_bytes = 24 (* 8-byte timestamp + hash-bucket overhead *)

let key_bytes key = key_overhead_bytes + String.length (Key.name key)

let version_bytes v = version_overhead_bytes + Keyspace.Value.size_bytes (Version.value v)

(* A key's [LastReader] slot: a node whose data is the timestamp. *)
type reader = int Nodetbl.node

(* Ends every bucket of the [LastReader] tables; its timestamp 0 is
   what {!last_reader} reads for an unread key.  Never handed out, so
   nothing mutates it. *)
let no_reader : reader = Nodetbl.nil 0

(* FNV-1a-style mixing over native ints; quality is ample for the
   model checker's visited-state dedup (collisions only cost a pruned
   branch, never a false violation) and for the row table below. *)
let mix h x = (h lxor x) * 0x100000001b3

(* Two loaded values are one row only when no program can tell them
   apart: [Value.equal] has [0.0 = -0.0], so floats compare by their
   bits. *)
let rec identical (a : Keyspace.Value.t) (b : Keyspace.Value.t) =
  match a, b with
  | Float x, Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | List x, List y -> List.equal identical x y
  | Rec x, Rec y ->
    List.equal (fun (m, u) (n, w) -> String.equal m n && identical u w) x y
  | (Unit | Int _ | Str _), _ -> Keyspace.Value.equal a b
  | (Float _ | List _ | Rec _), _ -> false

(* A value's scalars mixed in order.  Field names are left out: the
   rows of one table share them, and hashing them would cost most of a
   lookup. *)
let rec mix_scalars h (x : Keyspace.Value.t) =
  match x with
  | Unit -> h
  | Int i -> mix h i
  | Float f -> mix h (Hashtbl.hash f)
  | Str s -> mix h (Hashtbl.hash s)
  | List l -> List.fold_left mix_scalars (h + 1) l
  | Rec fs -> List.fold_left (fun h (_, x) -> mix_scalars h x) (h + 2) fs

(* One loaded row: same writer, timestamp and value. *)
let same_row (a : Version.t) (b : Version.t) =
  match a, b with
  | Final a, Final b ->
    a.ts = b.ts && Txid.equal a.writer b.writer && identical a.value b.value
  | (Final _ | Pending _), _ -> false

(* [mix] leaves the low bits, which pick the slot, to the low bits of
   the scalars; hashing the result spreads them. *)
let row_hash : Version.t -> int = function
  | Final { ts; value; _ } | Pending { ts; value; _ } -> Hashtbl.hash (mix_scalars ts value)

(* What a dataset's loads added beyond its keys. *)
type rows = {
  mutable hashes : int array;
      (** an open-addressing set of the distinct rows: slot [i] holds
          the hash of [versions.(i)], or -1 while empty.  A probe and a
          resize compare the kept hashes, not the rows, which are
          scattered in the heap. *)
  mutable versions : Version.t array;
      (** each distinct row once: the version of every key loaded with
          it *)
  mutable distinct : int;  (** occupied slots, at most half of them *)
  mutable bytes : int;
      (** keys + versions of the dataset's [loaded]; derived tally,
          cross-checked by {!check_accounting} *)
}

type dataset = {
  loaded : Version.t KeyTbl.t;  (** the one loaded version of each key *)
  mutable rows : rows option;  (** made by the first load *)
}

let loaded_bytes ds = match ds.rows with None -> 0 | Some r -> r.bytes

(* A directory node: its key and one chain per slot. *)
type entry = Chain.t Nodetbl.node

(* In no directory: the end marker every directory starts with, and a
   placeholder for arrays of entries. *)
let no_entry : entry = Nodetbl.nil Chain.absent

type directory = {
  entries : Chain.t Nodetbl.t;
  slots : int;
  absent : entry;
      (** the end marker of [entries]; a copy made by [Marshal] has its
          own, which this field shares *)
  mutable work : entry array;
      (** {!prune}'s work list, in its first [listed] cells: every node
          where some slot holds two versions or more, and until the next
          prune maybe nodes that no longer do, some more than once *)
  mutable listed : int;
      (** -1 until a replica first prunes: a directory that is never
          pruned keeps no list (one word per written key) *)
}

let create_directory ~slots =
  if slots < 1 then invalid_arg "Mvstore.create_directory: slots must be positive";
  { entries = Nodetbl.create no_entry; slots; absent = no_entry; work = [||]; listed = -1 }

let directory_keys d =
  let keys = ref [] in
  (* Hash order: the keys are sorted before they are returned. *)
  (Nodetbl.iter (fun e -> keys := e.Nodetbl.key :: !keys) d.entries [@alert "-nondet"]);
  List.sort Key.compare !keys

let entry_key (e : entry) = e.key

type t = {
  dataset : dataset;  (** shared by every replica of the partition *)
  directory : directory;  (** shared by every replica of the partition *)
  slot : int;  (** this replica's chain in every entry *)
  last_reader : int Nodetbl.t;
  mutable reads_served : int;
  mutable versions_pruned : int;
  (* --- incremental accounting, on top of the dataset's tally --- *)
  mutable version_count : int;
  mutable data_bytes : int;
  mutable own_keys : int;
  (* --- fingerprint support --- *)
  mutable sorted_keys : Key.t array;
      (** every key of the replica (loaded or written), sorted *)
  mutable sorted_for : int;
      (** dataset size [sorted_keys] was built for; -1 when a written
          key was added or dropped *)
}

(* Small: a cache partition or an open-loop run never loads anything,
   so an empty dataset must cost nothing (its row table waits for the
   first load); a loaded one grows as usual. *)
let create_dataset () = { loaded = KeyTbl.create 16; rows = None }

let create ?(dataset = create_dataset ()) ?directory ?(slot = 0) () =
  let directory =
    match directory with Some d -> d | None -> create_directory ~slots:1
  in
  if slot < 0 || slot >= directory.slots then
    invalid_arg (Printf.sprintf "Mvstore.create: no slot %d in the directory" slot);
  {
    dataset;
    directory;
    slot;
    last_reader = Nodetbl.create no_reader;
    reads_served = 0;
    versions_pruned = 0;
    version_count = 0;
    data_bytes = 0;
    own_keys = 0;
    sorted_keys = [||];
    sorted_for = -1;
  }

let directory t = t.directory
let dataset t = t.dataset

(* The size test keeps a miss free of hashing when nothing is loaded. *)
let loaded ds key =
  if KeyTbl.length ds.loaded = 0 then None else KeyTbl.find_opt ds.loaded key

let loaded_version t key = loaded t.dataset key

let find_entry t key = Nodetbl.find_opt t.directory.entries key

(* [key]'s entry, added on the first write at any replica. *)
let entry t key =
  let d = t.directory in
  let e = Nodetbl.find d.entries key in
  if e != d.absent then e
  else begin
    let e = Nodetbl.node ~nil:d.absent key Chain.absent in
    Nodetbl.add d.entries e;
    e
  end

let chain t e = Nodetbl.get e t.slot
let collapsed = Nodetbl.collapsed

(* [key]'s chain at this replica, {!Chain.absent} if it never wrote it. *)
let chain_of_key t key =
  let e = Nodetbl.find t.directory.entries key in
  if e == t.directory.absent then Chain.absent else chain t e

(* This replica's chain of [e], started for its first mutation, which
   stores it (see [settle]).  A loaded key's chain starts from the
   shared version, which stays counted in the dataset's tally. *)
let opened t e =
  let c = chain t e in
  if not (Chain.is_absent c) then c
  else begin
    let key = entry_key e in
    match loaded t.dataset key with
    | Some v -> Chain.insert (Chain.create ()) v
    | None ->
      t.own_keys <- t.own_keys + 1;
      t.data_bytes <- t.data_bytes + key_bytes key;
      t.sorted_for <- -1;
      Chain.create ()
  end

(* A frozen array other than [c] in a slot from [i] up that holds [c]'s
   versions, else [c].  A chain mutated in place may still sit in its
   own slot. *)
let rec sibling e ~slots c i =
  if i = slots then c
  else begin
    let s = Nodetbl.get e i in
    if s != c && Chain.exact s c && Chain.frozen s then s else sibling e ~slots c (i + 1)
  end

(* Store [c], this replica's chain of [e] after a mutation.  A chain
   holding only committed versions adopts the array of a slot that
   holds the same versions frozen: the replicas of a key share its
   committed history, and once every slot holds one array the node
   drops its slot array.  With no such slot, [c] itself is the array
   the others adopt later (when it is frozen).  A chain holding a
   pending version matches no frozen array. *)
let settle t e c =
  let slots = t.directory.slots in
  let c = sibling e ~slots c 0 in
  if c != Nodetbl.get e t.slot then Nodetbl.set ~slots e t.slot c

(* Does a slot of [e] from [i] up, other than [except], hold two
   versions or more? *)
let rec multi_from e ~slots ~except i =
  i < slots
  && ((i <> except && Chain.length (Nodetbl.get e i) >= 2)
     || multi_from e ~slots ~except (i + 1))

(* Does some slot of [e] hold two versions or more? *)
let multi ~slots (e : entry) =
  if Nodetbl.collapsed e then Chain.length e.data >= 2 else multi_from e ~slots ~except:(-1) 0

let enlist d e =
  if d.listed = Array.length d.work then begin
    let grown = Array.make (max 16 (2 * d.listed)) no_entry in
    Array.blit d.work 0 grown 0 d.listed;
    d.work <- grown
  end;
  d.work.(d.listed) <- e;
  d.listed <- d.listed + 1

(* After a mutation that may have grown this replica's chain [c] of
   [e] to two versions: once the directory keeps its work list, list
   [e] unless another slot's two versions already keep it listed. *)
let note_multi t e c =
  let d = t.directory in
  if d.listed >= 0 && Chain.length c = 2 && not (multi_from e ~slots:d.slots ~except:t.slot 0)
  then enlist d e

(* [key]'s versions newest-first: its chain, else its loaded version. *)
let fold_versions f acc t key =
  let c = chain_of_key t key in
  if not (Chain.is_absent c) then Chain.fold_newest f acc c
  else match loaded t.dataset key with Some v -> f acc v | None -> acc

let key_count t = KeyTbl.length t.dataset.loaded + t.own_keys

let version_count t = KeyTbl.length t.dataset.loaded + t.version_count

let written t key = not (Chain.is_absent (chain_of_key t key))

let account_insert t (v : Version.t) =
  t.version_count <- t.version_count + 1;
  t.data_bytes <- t.data_bytes + version_bytes v

let account_remove t (v : Version.t) =
  t.version_count <- t.version_count - 1;
  t.data_bytes <- t.data_bytes - version_bytes v

(* The slot of [v]'s row in [r], or the empty slot where it goes. *)
let rec find_slot r h v i =
  let hi = r.hashes.(i) in
  if hi < 0 || (hi = h && same_row r.versions.(i) v) then i
  else find_slot r h v ((i + 1) land (Array.length r.hashes - 1))

let place r h v =
  let i = find_slot r h v (h land (Array.length r.hashes - 1)) in
  r.hashes.(i) <- h;
  r.versions.(i) <- v

(* Doubles [r], placing each row again by its kept hash. *)
let grow r =
  let hashes = r.hashes and versions = r.versions in
  r.hashes <- Array.make (2 * Array.length hashes) (-1);
  r.versions <- Array.make (2 * Array.length hashes) versions.(0);
  Array.iteri (fun i h -> if h >= 0 then place r h versions.(i)) hashes

(* The dataset's version of [v]'s row, [v] itself for a new row.  A
   committed version is never written in place, so the keys of one row
   may share it just as the replicas of one key do. *)
let shared_row r v =
  let h = row_hash v in
  let i = find_slot r h v (h land (Array.length r.hashes - 1)) in
  if r.hashes.(i) >= 0 then r.versions.(i)
  else begin
    r.hashes.(i) <- h;
    r.versions.(i) <- v;
    r.distinct <- r.distinct + 1;
    if 2 * r.distinct > Array.length r.hashes then grow r;
    v
  end

(* A key enters the shared directory on its first write at any replica,
   so one directory probe refuses a key written anywhere. *)
let load t ?(ts = 0) ~writer key value =
  let ds = t.dataset in
  if loaded ds key <> None || Nodetbl.find t.directory.entries key != t.directory.absent then
    invalid_arg
      (Printf.sprintf "Mvstore.load: key %s is already loaded or written"
         (Key.to_string key));
  let v = Version.make ~writer ~state:Version.Committed ~ts ~value in
  let r =
    match ds.rows with
    | Some r -> r
    | None ->
      (* [v] fills the empty slots; only the hashes are read there. *)
      let r =
        { hashes = Array.make 64 (-1); versions = Array.make 64 v; distinct = 0; bytes = 0 }
      in
      ds.rows <- Some r;
      r
  in
  let v = shared_row r v in
  KeyTbl.add ds.loaded key v;
  r.bytes <- r.bytes + key_bytes key + version_bytes v

let last_reader t key = (Nodetbl.find t.last_reader key).data

(* One lookup, then the slot is raised in place.  A recorded slot holds
   a timestamp above 0; an unread key finds the table's marker, whose 0
   is never raised: the key gets a slot of its own instead. *)
let bump_slot t key ~hash rs =
  t.reads_served <- t.reads_served + 1;
  let r = Nodetbl.find_hashed t.last_reader key ~hash in
  if rs > r.data then
    if r.data > 0 then r.data <- rs
    else Nodetbl.add t.last_reader (Nodetbl.node_hashed ~nil:no_reader key ~hash rs)

let bump_last_reader t key rs = bump_slot t key ~hash:(Key.hash key) rs

(* Once a version at [ts] is in the key's chain, a slot at or below
   [ts] raises no proposal: proposals are raised above the chain's
   newest version, which the chain keeps.  The slot is found with the
   hash the directory entry keeps. *)
let forget_last_reader t (e : entry) ts =
  let r = Nodetbl.find_hashed t.last_reader e.key ~hash:e.hash in
  if r.data > 0 && r.data <= ts then Nodetbl.remove t.last_reader r

(* A loaded version is committed, so both snapshot lookups agree on it. *)
let loaded_before t key ~rs =
  match loaded t.dataset key with
  | Some v as found when Version.ts v <= rs -> found
  | Some _ | None -> None

(** Latest version visible at read snapshot [rs] (any state); does not
    bump [LastReader] — the partition server does that explicitly. *)
let latest_before t key ~rs =
  let c = chain_of_key t key in
  if Chain.is_absent c then loaded_before t key ~rs else Chain.latest_before c ~rs

(* One hash of [key] for both tables a read consults. *)
let read_latest t key ~rs =
  let hash = Key.hash key in
  bump_slot t key ~hash rs;
  let e = Nodetbl.find_hashed t.directory.entries key ~hash in
  let c = if e == t.directory.absent then Chain.absent else chain t e in
  if Chain.is_absent c then loaded_before t key ~rs else Chain.latest_before c ~rs

let latest_committed_before t key ~rs =
  let c = chain_of_key t key in
  if Chain.is_absent c then loaded_before t key ~rs
  else Chain.latest_committed_before c ~rs

let newest_committed t key =
  let c = chain_of_key t key in
  if Chain.is_absent c then loaded t.dataset key else Chain.newest_committed c

let chain_insert t e v =
  let c = Chain.insert (opened t e) v in
  settle t e c;
  note_multi t e c;
  account_insert t v

let insert_version t key v = chain_insert t (entry t key) v

let find_version t key txid =
  let c = chain_of_key t key in
  if not (Chain.is_absent c) then Chain.find_writer c txid
  else
    match loaded t.dataset key with
    | Some v as found when Txid.equal (Version.writer v) txid -> found
    | Some _ | None -> None

(* Does a one-slot directory hold [e] for nothing: no version, and no
   loaded row that its chain started from? *)
let idle t e =
  t.directory.slots = 1
  && Chain.length (chain t e) = 0
  && loaded t.dataset (entry_key e) = None

(* Remove [txid]'s version from [c], this replica's chain of [e].  The
   store drops an entry that is left {!idle}: no pending handle points
   to it, as a handle lives only while its version is in the chain. *)
let remove_from t e c txid =
  match Chain.find_writer c txid with
  | None -> None
  | Some v as removed ->
    settle t e (Chain.remove c v);
    account_remove t v;
    if idle t e then begin
      Nodetbl.remove t.directory.entries e;
      t.own_keys <- t.own_keys - 1;
      t.data_bytes <- t.data_bytes - key_bytes (entry_key e);
      t.sorted_for <- -1
    end;
    removed

let chain_remove t e txid = remove_from t e (chain t e) txid

(* A final commit's shared version carries the pending one's value
   ([Certification.committed_versions] builds both from one write set),
   so the bytes move only when the values differ. *)
let chain_replace t e ~old v =
  let c = Chain.replace (opened t e) ~old v in
  settle t e c;
  note_multi t e c;
  if Version.value v != Version.value old then
    t.data_bytes <- t.data_bytes + version_bytes v - version_bytes old

let chain_reposition t e v = Chain.reposition (chain t e) v

(* Removing the loaded version itself opens the chain first, so the
   removal stays private to this replica. *)
let remove_version t key txid =
  match find_version t key txid with
  | None -> ()
  | Some _ ->
    let e = entry t key in
    ignore (remove_from t e (opened t e) txid)

(* Without a chain there is nothing to move: the key holds only its
   read-only loaded version, which no transition touches. *)
let reposition t key v =
  match find_entry t key with
  | Some e when not (Chain.is_absent (chain t e)) -> chain_reposition t e v
  | Some _ | None -> ()

(** Uncommitted versions currently stacked on [key]. *)
let uncommitted t key = Chain.uncommitted (chain_of_key t key)

(* [f e c] for every entry whose chain [c] this replica has started, in
   the directory's hash order. *)
let iter_chains f t =
  (* Hash order: every caller below is order-insensitive and says why. *)
  (Nodetbl.iter
     (fun e ->
       let c = chain t e in
       if not (Chain.is_absent c) then f e c)
     t.directory.entries [@alert "-nondet"])

(* A chain of one version has nothing to drop (the newest committed
   version is always kept), so only the directory's work list is
   visited, and it keeps the nodes that some slot still holds two
   versions of.  The first prune of a directory walks every node to
   build the list; later inserts and replaces add to it ([note_multi]).
   A node may be listed twice (its slots fell below two versions and
   grew again between prunes), so a prune visits each node once.  A
   node no longer in the directory holds no version, and is dropped. *)
let prune t ~horizon =
  let d = t.directory in
  let dropped = ref 0 in
  let on_drop v =
    incr dropped;
    account_remove t v
  in
  let visit e =
    let c = chain t e in
    if Chain.length c >= 2 then begin
      let pruned = Chain.prune ~on_drop c ~horizon in
      if pruned != c then settle t e pruned
    end;
    if multi ~slots:d.slots e then enlist d e
  in
  if d.listed < 0 then begin
    d.listed <- 0;
    (* Hash order: each chain is pruned on its own, summing a count is
       order-insensitive, and the work list's order is never observed. *)
    (Nodetbl.iter visit d.entries [@alert "-nondet"])
  end
  else begin
    let work = d.work and n = d.listed in
    (* The nodes kept so far, as their indices in the list, by open
       addressing on the node's hash: ints, so the table holds no
       pointer that a minor collection would have to promote. *)
    let size = ref 16 in
    while !size < 2 * n do
      size := 2 * !size
    done;
    let kept = Array.make !size (-1) and mask = !size - 1 in
    let rec slot (e : entry) i =
      let j = kept.(i) in
      if j < 0 || work.(j) == e then i else slot e ((i + 1) land mask)
    in
    (* [visit] refills the list from its start, behind the reads.  A
       repeat of a node it kept is found in [kept]; one it dropped holds
       two versions at no slot, and [multi] skips it. *)
    d.listed <- 0;
    for i = 0 to n - 1 do
      let e = work.(i) in
      let s = slot e (e.hash land mask) in
      if kept.(s) < 0 && multi ~slots:d.slots e then begin
        let j = d.listed in
        visit e;
        if d.listed > j then kept.(s) <- j
      end
    done;
    Array.fill work d.listed (n - d.listed) no_entry
  end;
  t.versions_pruned <- t.versions_pruned + !dropped;
  !dropped

let reads_served t = t.reads_served

(** Storage accounting for the Precise Clocks overhead measurement:
    [data_bytes] approximates the size of keys plus stored versions;
    [last_reader_bytes] is the extra metadata Precise Clocks maintains —
    a timestamp slot (plus container overhead) for every key of the
    replica, since in steady state every live key has been read.  O(1):
    both sides are maintained incrementally. *)
let storage_bytes t =
  let last_reader_bytes =
    last_reader_slot_bytes * max (key_count t) (Nodetbl.length t.last_reader)
  in
  (loaded_bytes t.dataset + t.data_bytes, last_reader_bytes)

(** Recompute the storage accounting by walking the dataset and every
    chain of this replica and compare it against the incremental
    counters (test support: the differential oracle for the O(1) fast
    path). *)
let check_accounting t =
  let ds = t.dataset in
  let data = ref 0 and versions = ref 0 and own = ref 0 in
  let count_version acc v =
    incr versions;
    acc + version_bytes v
  in
  (* Hash order: summing byte counts is order-insensitive. *)
  (KeyTbl.iter
     (fun key v ->
       if not (written t key) then
         data := count_version (!data + key_bytes key) v)
     ds.loaded [@alert "-nondet"]);
  (* Hash order: summing byte counts is order-insensitive. *)
  iter_chains
    (fun e c ->
      let key = entry_key e in
      if not (KeyTbl.mem ds.loaded key) then incr own;
      data := Chain.fold_newest count_version (!data + key_bytes key) c)
    t;
  let total = loaded_bytes ds + t.data_bytes in
  if !data <> total then
    Error (Printf.sprintf "data_bytes drifted: counter %d, recomputed %d" total !data)
  else if !versions <> version_count t then
    Error
      (Printf.sprintf "version_count drifted: counter %d, recomputed %d"
         (version_count t) !versions)
  else if !own <> t.own_keys then
    Error
      (Printf.sprintf "private key count drifted: counter %d, recomputed %d" t.own_keys
         !own)
  else Ok ()

(** Run the chain invariant checker over every chain of this replica
    (a loaded version alone is trivially ordered). *)
let check_invariants t =
  let result = ref (Ok ()) in
  (* Hash order: all chains must pass; order only picks which error
     message surfaces first. *)
  iter_chains
    (fun e c ->
      if Result.is_ok !result then
        match Chain.check_invariants c with
        | Ok () when idle t e ->
          result :=
            Error (Printf.sprintf "%s: idle entry kept" (Key.to_string (entry_key e)))
        | Ok () -> ()
        | Error msg -> result := Error (Printf.sprintf "%s: %s" (Key.to_string (entry_key e)) msg))
    t;
  !result

(* ------------------------------------------------------------------ *)
(* State fingerprinting (model-checker support)                        *)
(* ------------------------------------------------------------------ *)

let mix_string h s =
  let h = ref (mix h (String.length s)) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

(* The union of loaded and written keys, sorted; rebuilt only when the
   dataset grew, or a chain was started or its entry dropped for an
   unloaded key. *)
let sorted_keys t =
  let ds = t.dataset in
  if t.sorted_for <> KeyTbl.length ds.loaded then begin
    let own = ref [] in
    (* Hash order: keys are sorted before use. *)
    iter_chains
      (fun e _ ->
        let k = entry_key e in
        if not (KeyTbl.mem ds.loaded k) then own := k :: !own)
      t;
    (* Hash order: keys are sorted before use. *)
    let all = (KeyTbl.fold (fun k _ acc -> k :: acc) ds.loaded !own [@alert "-nondet"]) in
    t.sorted_keys <- Array.of_list (List.sort Key.compare all);
    t.sorted_for <- KeyTbl.length ds.loaded
  end;
  t.sorted_keys

(** Order-independent structural hash of the full replica state —
    version chains (writer, state, timestamp per version) and the
    [LastReader] table — over the union of loaded and written keys.
    The sorted key list is cached until a key is added or dropped, so
    repeated fingerprints avoid the sort; versions are mixed
    newest-first via the allocation-free chain fold.  Every field is
    matched by name, so a new one fails to compile (warning 9) until it
    is mixed in or named [_] here with its reason. *)
let fingerprint t =
  let {
    (* the chains, read through [last_reader], [fold_versions] and
       [sorted_keys] below *)
    dataset = _; directory = _; slot = _; last_reader = _; sorted_keys = _;
    (* cache-validity stamp for sorted_keys, which the fingerprint
       recomputes deterministically *)
    sorted_for = _;
    reads_served = _; versions_pruned = _ (* stat counters *);
    (* derived tallies of the chains, cross-checked by check_accounting *)
    version_count = _; data_bytes = _; own_keys = _;
  } =
    t
  in
  Array.fold_left
    (fun h key ->
      let h = mix_string (mix h (Key.partition key)) (Key.name key) in
      let h = mix h (last_reader t key) in
      fold_versions
        (fun h v ->
          let h = mix h (Txid.origin (Version.writer v)) in
          let h = mix h (Txid.number (Version.writer v)) in
          let h =
            mix h
              (match Version.state v with
               | Version.Pre_committed -> 1
               | Version.Local_committed -> 2
               | Version.Committed -> 3)
          in
          mix h (Version.ts v))
        h t key)
    0x811c9dc5 (sorted_keys t)

(* ------------------------------------------------------------------ *)
(* Recovery state transfer                                             *)
(* ------------------------------------------------------------------ *)

(** Every committed version as [(key, version)] — keys ascending,
    versions oldest-first within a key.  The deterministic iteration
    order recovery catch-up relies on (a replica that missed decisions
    while crashed copies the committed state of a live peer). *)
let committed_versions t =
  let keys = sorted_keys t in
  let acc = ref [] in
  for i = Array.length keys - 1 downto 0 do
    let key = keys.(i) in
    (* [fold_versions] visits newest-first; consing onto the shared
       accumulator leaves each key's versions oldest-first. *)
    acc :=
      fold_versions
        (fun l v -> if Version.is_committed v then (key, v) :: l else l)
        !acc t key
  done;
  !acc

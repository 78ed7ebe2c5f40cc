(** Multi-versioned storage of one partition replica.

    Besides the version chains, the store tracks per-key [LastReader]
    timestamps — the read snapshot of the most recent reader — which is
    the metadata that powers the Precise Clocks timestamping rule
    (§5.3 of the paper).  [LastReader] is tracked at every replica that
    serves reads (masters and slaves alike).

    The rows installed before the run ({!load}) live in a {e loaded
    dataset} that every replica of a partition shares: one read-only
    committed version per key.  A replica holds a private chain only for
    the keys it has mutated.  The first mutation of a loaded key starts
    the private chain from the shared version (copy-on-write); from then
    on the private chain is the key's whole history at that replica.
    Every accessor resolves a key through its private chain when there
    is one, and through the dataset otherwise.

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

let version_bytes (v : Version.t) =
  version_overhead_bytes + Keyspace.Value.size_bytes v.value

type dataset = {
  loaded : Version.t KeyTbl.t;  (** the one loaded version of each key *)
  mutable loaded_bytes : int;
      (** keys + versions of [loaded]; derived tally, cross-checked by
          {!check_accounting} *)
}

type t = {
  dataset : dataset;  (** shared by every replica of the partition *)
  chains : Chain.t KeyTbl.t;  (** private chains: the keys this replica mutated *)
  last_reader : int KeyTbl.t;
  (* lint: allow fingerprint-coverage — stat counter *)
  mutable reads_served : int;
  (* lint: allow fingerprint-coverage — stat counter *)
  mutable versions_pruned : int;
  (* --- incremental accounting, on top of the dataset's tally --- *)
  (* lint: allow fingerprint-coverage — derived tally of the chains,
     cross-checked by check_accounting *)
  mutable version_count : int;
  (* lint: allow fingerprint-coverage — derived tally of the chains,
     cross-checked by check_accounting *)
  mutable data_bytes : int;
  (* lint: allow fingerprint-coverage — derived tally of the chains (how
     many have no loaded version), cross-checked by check_accounting *)
  mutable own_keys : int;
  (* --- fingerprint support --- *)
  mutable sorted_keys : Key.t array;
      (** every key of the replica (loaded or private), sorted; keys are
          never removed *)
  (* lint: allow fingerprint-coverage — cache-validity stamp for
     sorted_keys, which the fingerprint recomputes deterministically *)
  mutable sorted_for : int;
      (** dataset size [sorted_keys] was built for; -1 when a new
          private key made it stale *)
}

(* Small: a cache partition or an open-loop run never loads anything,
   so an empty dataset must cost nothing; a loaded one grows as usual. *)
let create_dataset () = { loaded = KeyTbl.create 16; loaded_bytes = 0 }

let create ?(dataset = create_dataset ()) () =
  {
    dataset;
    chains = KeyTbl.create 4096;
    last_reader = KeyTbl.create 4096;
    reads_served = 0;
    versions_pruned = 0;
    version_count = 0;
    data_bytes = 0;
    own_keys = 0;
    sorted_keys = [||];
    sorted_for = -1;
  }

(* The size test keeps a miss free of hashing when nothing is loaded. *)
let loaded ds key =
  if KeyTbl.length ds.loaded = 0 then None else KeyTbl.find_opt ds.loaded key

(* The private chain of [key], created on its first mutation.  A loaded
   key's chain starts from the shared version, which stays counted in
   the dataset's tally. *)
let chain t key =
  match KeyTbl.find_opt t.chains key with
  | Some c -> c
  | None ->
    let c = Chain.create () in
    (match loaded t.dataset key with
     | Some v -> Chain.insert c v
     | None ->
       t.own_keys <- t.own_keys + 1;
       t.data_bytes <- t.data_bytes + key_bytes key;
       t.sorted_for <- -1);
    KeyTbl.add t.chains key c;
    c

(* [key]'s versions newest-first: its private chain, else its loaded
   version. *)
let fold_versions f acc t key =
  match KeyTbl.find_opt t.chains key with
  | Some c -> Chain.fold_newest f acc c
  | None -> (match loaded t.dataset key with Some v -> f acc v | None -> acc)

let key_count t = KeyTbl.length t.dataset.loaded + t.own_keys

let version_count t = KeyTbl.length t.dataset.loaded + t.version_count

let written t key = KeyTbl.length t.chains > 0 && KeyTbl.mem t.chains key

let account_insert t (v : Version.t) =
  t.version_count <- t.version_count + 1;
  t.data_bytes <- t.data_bytes + version_bytes v

let account_remove t (v : Version.t) =
  t.version_count <- t.version_count - 1;
  t.data_bytes <- t.data_bytes - version_bytes v

let load t ?(ts = 0) ~writer key value =
  let ds = t.dataset in
  if loaded ds key <> None || written t key then
    invalid_arg
      (Printf.sprintf "Mvstore.load: key %s is already loaded or written"
         (Key.to_string key));
  let v = Version.make ~writer ~state:Version.Committed ~ts ~value in
  KeyTbl.add ds.loaded key v;
  ds.loaded_bytes <- ds.loaded_bytes + key_bytes key + version_bytes v

let last_reader t key =
  match KeyTbl.find_opt t.last_reader key with Some ts -> ts | None -> 0

let bump_last_reader t key rs =
  t.reads_served <- t.reads_served + 1;
  let cur = last_reader t key in
  if rs > cur then KeyTbl.replace t.last_reader key rs

(* A loaded version is committed, so both snapshot lookups agree on it. *)
let loaded_before t key ~rs =
  match loaded t.dataset key with
  | Some (v : Version.t) as found when v.ts <= rs -> found
  | Some _ | None -> None

(** Latest version visible at read snapshot [rs] (any state); does not
    bump [LastReader] — the partition server does that explicitly. *)
let latest_before t key ~rs =
  match KeyTbl.find_opt t.chains key with
  | Some c -> Chain.latest_before c ~rs
  | None -> loaded_before t key ~rs

let latest_committed_before t key ~rs =
  match KeyTbl.find_opt t.chains key with
  | Some c -> Chain.latest_committed_before c ~rs
  | None -> loaded_before t key ~rs

let newest_committed t key =
  match KeyTbl.find_opt t.chains key with
  | Some c -> Chain.newest_committed c
  | None -> loaded t.dataset key

let insert_version t key v =
  Chain.insert (chain t key) v;
  account_insert t v

let find_version t key txid =
  match KeyTbl.find_opt t.chains key with
  | Some c -> Chain.find_writer c txid
  | None ->
    (match loaded t.dataset key with
     | Some (v : Version.t) as found when Txid.equal v.writer txid -> found
     | Some _ | None -> None)

let remove_writer t c txid =
  match Chain.remove_writer c txid with None -> () | Some v -> account_remove t v

let remove_version t key txid =
  match KeyTbl.find_opt t.chains key with
  | Some c -> remove_writer t c txid
  | None ->
    if Option.is_some (find_version t key txid) then remove_writer t (chain t key) txid

(* Without a private chain there is nothing to move: the key holds only
   its read-only loaded version, which no transition touches. *)
let reposition t key v =
  match KeyTbl.find_opt t.chains key with None -> () | Some c -> Chain.reposition c v

(** Uncommitted versions currently stacked on [key]. *)
let uncommitted t key =
  match KeyTbl.find_opt t.chains key with None -> [] | Some c -> Chain.uncommitted c

(* Only private chains can hold more than one version; a key still on
   its loaded version has nothing to drop (the newest committed version
   is always kept). *)
let prune t ~horizon =
  let dropped = ref 0 in
  let on_drop v = account_remove t v in
  (* lint: allow hashtbl-order — summing a count is order-insensitive *)
  KeyTbl.iter (fun _ c -> dropped := !dropped + Chain.prune ~on_drop c ~horizon) t.chains;
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
    last_reader_slot_bytes * max (key_count t) (KeyTbl.length t.last_reader)
  in
  (t.dataset.loaded_bytes + t.data_bytes, last_reader_bytes)

(** Recompute the storage accounting by walking the dataset and every
    private chain and compare it against the incremental counters (test
    support: the differential oracle for the O(1) fast path). *)
let check_accounting t =
  let ds = t.dataset in
  let data = ref 0 and versions = ref 0 and own = ref 0 in
  let count_version acc v =
    incr versions;
    acc + version_bytes v
  in
  (* lint: allow hashtbl-order — summing byte counts is order-insensitive *)
  KeyTbl.iter
    (fun key v ->
      if not (KeyTbl.mem t.chains key) then
        data := count_version (!data + key_bytes key) v)
    ds.loaded;
  (* lint: allow hashtbl-order — summing byte counts is order-insensitive *)
  KeyTbl.iter
    (fun key c ->
      if not (KeyTbl.mem ds.loaded key) then incr own;
      data := Chain.fold_newest count_version (!data + key_bytes key) c)
    t.chains;
  let total = ds.loaded_bytes + t.data_bytes in
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

(** Run the chain invariant checker over every private chain (a loaded
    version alone is trivially ordered). *)
let check_invariants t =
  (* lint: allow hashtbl-order — all chains must pass; order only picks
     which error message surfaces first *)
  KeyTbl.fold
    (fun key c acc ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        (match Chain.check_invariants c with
         | Ok () -> Ok ()
         | Error e -> Error (Printf.sprintf "%s: %s" (Key.to_string key) e)))
    t.chains (Ok ())

(* ------------------------------------------------------------------ *)
(* State fingerprinting (model-checker support)                        *)
(* ------------------------------------------------------------------ *)

(* FNV-1a-style mixing over native ints; quality is ample for the
   model checker's visited-state dedup (collisions only cost a pruned
   branch, never a false violation). *)
let mix h x = (h lxor x) * 0x100000001b3

let mix_string h s =
  let h = ref (mix h (String.length s)) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

(* The union of loaded and private keys, sorted; rebuilt only when the
   dataset grew or a private chain was opened for an unloaded key. *)
let sorted_keys t =
  let ds = t.dataset in
  if t.sorted_for <> KeyTbl.length ds.loaded then begin
    let own =
      (* lint: allow hashtbl-order — keys are sorted before use *)
      KeyTbl.fold
        (fun k _ acc -> if KeyTbl.mem ds.loaded k then acc else k :: acc)
        t.chains []
    in
    (* lint: allow hashtbl-order — keys are sorted before use *)
    let all = KeyTbl.fold (fun k _ acc -> k :: acc) ds.loaded own in
    t.sorted_keys <- Array.of_list (List.sort Key.compare all);
    t.sorted_for <- KeyTbl.length ds.loaded
  end;
  t.sorted_keys

(** Order-independent structural hash of the full replica state —
    version chains (writer, state, timestamp per version) and the
    [LastReader] table — over the union of loaded and private keys.
    The sorted key list is cached (keys are only ever added), so
    repeated fingerprints avoid the sort; versions are mixed
    newest-first via the allocation-free chain fold. *)
let fingerprint t =
  Array.fold_left
    (fun h key ->
      let h = mix_string (mix h (Key.partition key)) (Key.name key) in
      let h = mix h (last_reader t key) in
      fold_versions
        (fun h (v : Version.t) ->
          let h = mix h (Txid.origin v.writer) in
          let h = mix h (Txid.number v.writer) in
          let h =
            mix h
              (match v.state with
               | Version.Pre_committed -> 1
               | Version.Local_committed -> 2
               | Version.Committed -> 3)
          in
          mix h v.ts)
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

(** One partition replica: the server side of Algorithm 2.

    A partition server is a passive, message-driven state machine; the
    engine invokes it either directly (same node) or from a
    network-delivery event.  It owns the multi-versioned store of the
    replica, serves (possibly blocking) reads, certifies prepares with
    the write-write conflict rule, applies local-commit / commit / abort
    transitions, and computes prepare-timestamp proposals under either
    Physical or Precise clocks.

    The node's {e cache partition} (§5.2 of the paper) is the same
    machinery created with [is_cache:true]: final commit then {e drops}
    the cached versions instead of committing them, because the
    authoritative copies live on the remote replicas. *)

open Store
module Key = Keyspace.Key
module Value = Keyspace.Value

type t = {
  sim : Dsim.Sim.t;
  clock : Dsim.Clock.t;
  cpu : Dsim.Cpu.t;
  config : Config.t;
  node_id : int;
  stats : Stats.t option;  (** node-level counters, when attached *)
  store : Mvstore.t;
  trace : Obs.Trace.t;
  pid : int;  (** trace process id (the node's data center) *)
  tid : int;  (** trace thread id of this replica *)
  holds : int Txid.Tbl.t;
      (** open lock-hold span per pending transaction (tracing only) *)
  pending : Mvstore.entry array Txid.Tbl.t;
      (** per tx, the directory entries of the keys this replica holds
          uncommitted, in write-set order: the handles its decision is
          applied through (an entry stays in its directory while it
          holds a version, and the tx's version keeps it there) *)
  tombstones : unit Txid.Tbl.t;
      (** aborts that arrived before the corresponding replicate (an
          abort from the coordinator can race a prepare forwarded by the
          partition master); a later prepare for a tombstoned tx is
          refused instead of installing zombie versions *)
  mutable tombstone_queue : Txid.t list;  (** FIFO for capping tombstones *)
  mutable inserts_since_prune : int;
  mutable cert_sweep : int;  (** token of the sweep in progress; -1 = none *)
  mutable cert_sweep_n : int;  (** prepares certified in that sweep so far *)
  mutable cert_sweeps : int;
  mutable cert_swept : int;
  cert_occ : int array;  (** sweep-occupancy histogram; index [min n 16] *)
}

let max_tombstones = 8192

let create ~sim ~clock ~cpu ~config ~node_id ~partition ?(is_cache = false) ?stats
    ?store ?trace ?(pid = 0) () =
  {
    sim;
    clock;
    cpu;
    config;
    node_id;
    stats;
    trace = (match trace with Some tr -> tr | None -> Obs.Trace.disabled ());
    pid;
    tid =
      (if is_cache then Obs.Trace.cache_tid node_id
       else Obs.Trace.server_tid ~node:node_id ~partition);
    holds = Txid.Tbl.create 16;
    store = (match store with Some s -> s | None -> Mvstore.create ());
    pending = Txid.Tbl.create 64;
    tombstones = Txid.Tbl.create 64;
    tombstone_queue = [];
    inserts_since_prune = 0;
    cert_sweep = -1;
    cert_sweep_n = 0;
    cert_sweeps = 0;
    cert_swept = 0;
    cert_occ = Array.make 17 0;
  }

let store t = t.store

(** The replica's part of {!Engine.fingerprint}: its store.  Every
    field is matched by name, so a new one fails to compile (warning 9)
    until it is mixed in or named [_] here with its reason. *)
let fingerprint
    { store;
      (* wiring, configuration and counters *)
      sim = _; clock = _; cpu = _; config = _; node_id = _; trace = _; pid = _; tid = _;
      stats = _;
      holds = _ (* lock-hold span handles (tracing only) *);
      (* the directory entries of the transactions' uncommitted
         versions, which the store's chains carry *)
      pending = _;
      (* aborts that overtook their prepare; a tombstone is consumed by
         that prepare, which is still in flight *)
      tombstones = _;
      (* FIFO mirror of the tombstones table (bounded-size eviction
         order); the table is what gates prepares, and the queue is a
         deterministic function of its insertion history *)
      tombstone_queue = _;
      (* GC pacing counter; affects only when pruning work happens, not
         any protocol outcome *)
      inserts_since_prune = _;
      (* batched-certification stats: the sweep token and size
         accumulator, monotone counters and the occupancy histogram *)
      cert_sweep = _; cert_sweep_n = _; cert_sweeps = _; cert_swept = _; cert_occ = _ } =
  Mvstore.fingerprint store

let pending_keys t txid =
  match Txid.Tbl.find_opt t.pending txid with
  | Some es -> Array.to_list (Array.map Mvstore.entry_key es)
  | None -> []

(** Number of keys this replica holds uncommitted for [txid].  O(1);
    the engine's cost expressions use this instead of walking the key
    list. *)
let pending_key_count t txid =
  match Txid.Tbl.find_opt t.pending txid with
  | Some cs -> Array.length cs
  | None -> 0

let has_tx t txid = Txid.Tbl.mem t.pending txid

(** Transactions with uncommitted state at this replica, sorted by
    transaction id for deterministic downstream iteration. *)
let pending_txids t =
  (* Hash order: the result is sorted below. *)
  (Txid.Tbl.fold (fun id _ acc -> id :: acc) t.pending [] [@alert "-nondet"])
  |> List.sort Txid.compare

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)
(* ------------------------------------------------------------------ *)

type read_reply = {
  value : Value.t option;
  src : [ `Committed of int | `Speculative | `Missing ];
  writer : Txid.t option;
}

(** Serve a read at snapshot [rs] for a transaction that originated at
    [reader_origin]; [reply] fires (possibly much later) with the
    result.  Implements Alg. 2 readFrom: bumps [LastReader], blocks on
    pre-committed versions and on local-committed versions that the
    reader is not allowed to observe speculatively, and applies the
    Clock-SI rule of delaying reads from the future.  [reader] is the
    reading transaction's identity [(origin, number)]: lock-wait spans
    are recorded against it so the blocked transaction's critical path
    owns the convoy time (the holder moves to the span note). *)
let read ?(allow_spec = true) ?(reader = (min_int, min_int)) t ~rs ~reader_origin
    key reply =
  let rec attempt () = Dsim.Cpu.exec t.cpu ~cost:t.config.cost_read serve
  and serve () =
    let d = Dsim.Clock.delay_until t.clock rs in
    if d > 0 then Dsim.Sim.schedule t.sim ~delay:d serve
    else begin
      match Mvstore.read_latest t.store key ~rs with
      | None -> reply { value = None; src = `Missing; writer = None }
      | Some v ->
        (match v with
         | Final { value; ts; writer } ->
           reply { value = Some value; src = `Committed ts; writer = Some writer }
         | Pending { local = true; value; writer; _ }
           when reader_origin = t.node_id && allow_spec && t.config.speculative_reads ->
           reply { value = Some value; src = `Speculative; writer = Some writer }
         | Pending { value; writer; _ } when Config.seeded t.config Unsafe_speculation ->
           (* Prior-work behaviour (§2): expose any pre-committed
              version to any reader, with no SPSI safeguards. *)
           reply { value = Some value; src = `Speculative; writer = Some writer }
         | Pending { writer; _ } ->
           (* Block until the writer's outcome is known at this replica,
              then reconsider from scratch. *)
           (match t.stats with
            | Some s -> s.Stats.server_blocks <- s.Stats.server_blocks + 1
            | None -> ());
           if Obs.Trace.enabled t.trace then begin
             (* [a.b] identifies the blocked reader (critical-path
                attribution); the uncommitted writer holding the lock
                goes in the note. *)
             let ra, rb = reader in
             let s =
               Obs.Trace.span_begin t.trace ~kind:Obs.Trace.S_lock_wait ~pid:t.pid
                 ~tid:t.tid ~t0:(Dsim.Sim.now t.sim) ~a:ra ~b:rb
                 ~note:
                   (Printf.sprintf "holder %d.%d" (Txid.origin writer) (Txid.number writer))
                 ()
             in
             Version.add_waiter v (fun () ->
                 Obs.Trace.span_end t.trace s ~t1:(Dsim.Sim.now t.sim);
                 attempt ())
           end
           else Version.add_waiter v attempt)
    end
  in
  attempt ()

(** Does some version (any state) exist at snapshot [rs]?  Used by the
    engine to decide whether a non-local key is covered by the cache
    partition or must be read remotely. *)
let has_visible t ~rs key =
  match Mvstore.latest_before t.store key ~rs with Some _ -> true | None -> false

(* ------------------------------------------------------------------ *)
(* Certification                                                       *)
(* ------------------------------------------------------------------ *)

type prepare_outcome =
  | Prepared of { ts : int; wdeps : Txid.t list }
      (** [wdeps]: local-committed transactions whose versions this
          prepare speculatively stacked upon (write-write dependencies) *)
  | Conflict of Key.t

(** Write-write certification for one transaction over [writes].

    Conflict rule: a version with timestamp greater than [rs] (any
    state, first-committer-wins), or an uncommitted version from a
    transaction outside the writer's speculative snapshot.  The
    exception implements speculative write stacking under speculative
    reads:

    - during {e local} certification at the transaction's origin node, a
      local-committed version of a same-node transaction (necessarily
      with ts <= rs at this point) may be overwritten, recording a
      write-write dependency;
    - at a {e remote} replica (master prepare or slave replicate), an
      uncommitted version may be stacked upon only when the incoming
      transaction {e declares} its writer among its dependencies
      ([stack_over]): the origin's local certification serialized the
      two transactions and tracks their dependency, and FIFO channels
      deliver their prepares in order.  This is what lets a node
      pipeline a chain of speculative transactions through global
      certification, without trusting anything the origin did not
      actually order (e.g. across a speculation on/off toggle).

    The same pass computes the prepare-timestamp proposal (§5.3):
    Precise Clocks propose [max(LastReader(k) + 1)] over the written
    keys, Physical clocks the replica's current physical time; both are
    raised above every version already in the chains, preserving chain
    order.  Each key is resolved once: its directory entry gives this
    replica's chain (or, unwritten, the loaded version), which serves
    the check and the proposal, and the entry becomes the pending
    handle.  A key no replica has written gets its entry when the
    version is inserted, so a conflicting prepare adds none. *)
let prepare ?(stack_over = Txid.Set.empty) ?(origin_spec = true) t ~txid ~origin ~rs
    ~writes =
  if Txid.Tbl.mem t.tombstones txid then begin
    Txid.Tbl.remove t.tombstones txid;
    Conflict (fst (List.hd writes))
  end
  else begin
  let check = not (Config.seeded t.config Skip_ww_check) in
  let precise = t.config.clocks = Config.Precise in
  let entries = Array.make (List.length writes) Mvstore.no_entry in
  let wdeps = ref Txid.Set.empty in
  (* May [u], an uncommitted version of another writer, stay below the
     new one? *)
  let stackable writer ~local ~ts =
    if origin = t.node_id then
      (* Origin-side local certification: only a local-committed
         same-node sibling in the writer's snapshot may be overwritten;
         a pre-committed one is still mid-certification and
         conflicts. *)
      origin_spec && t.config.speculative_reads
      && Txid.origin writer = origin
      && local
      && ts <= rs
    else
      (* Remote replica: only stack over declared dependencies (the
         origin ordered them). *)
      Txid.Set.mem writer stack_over
  in
  (* Certify the keys from the [i]-th on; [Ok proposal] (the maximum
     over the keys, before the clock) or the conflicting key. *)
  let rec certify i proposal = function
    | [] -> Ok proposal
    | (key, _) :: rest ->
      let proposal =
        if precise then max proposal (Mvstore.last_reader t.store key + 1) else proposal
      in
      let c =
        match Mvstore.find_entry t.store key with
        | Some e ->
          entries.(i) <- e;
          Mvstore.chain t.store e
        | None -> Chain.absent
      in
      if not (Chain.is_absent c) then begin
        (* Newest-first over the whole chain: the newest committed
           version must not postdate the snapshot, and every
           uncommitted one of another writer must be stackable. *)
        let top = Chain.length c - 1 in
        let ok = ref true and seen_committed = ref false and j = ref top in
        while check && !ok && !j >= 0 do
          (match Chain.get c !j with
           | Final { ts; _ } ->
             if (not !seen_committed) && ts > rs then ok := false;
             seen_committed := true
           | Pending { writer; local; ts; _ } ->
             if not (Txid.equal writer txid) then
               if stackable writer ~local ~ts then wdeps := Txid.Set.add writer !wdeps
               else ok := false);
          decr j
        done;
        if not !ok then Error key
        else if top < 0 then certify (i + 1) proposal rest
        else certify (i + 1) (max proposal (Version.ts (Chain.get c top) + 1)) rest
      end
      else
        match Mvstore.loaded_version t.store key with
        | Some v when check && Version.ts v > rs -> Error key
        | Some v -> certify (i + 1) (max proposal (Version.ts v + 1)) rest
        | None -> certify (i + 1) proposal rest
  in
  match certify 0 0 writes with
  | Error key -> Conflict key
  | Ok proposal ->
    let ts =
      match t.config.clocks with
      | Config.Precise -> proposal
      | Config.Physical -> max (Dsim.Clock.now t.clock) proposal
    in
    List.iteri
      (fun i (key, value) ->
        if entries.(i) == Mvstore.no_entry then entries.(i) <- Mvstore.entry t.store key;
        Mvstore.chain_insert t.store entries.(i)
          (Version.make ~writer:txid ~state:Version.Pre_committed ~ts ~value))
      writes;
    Txid.Tbl.replace t.pending txid entries;
    (* The lock-hold span runs from a successful prepare until the
       decision releases the written keys — the lock hold time whose
       distribution the convoy-effect report compares against the RTT. *)
    if Obs.Trace.enabled t.trace then
      Txid.Tbl.replace t.holds txid
        (Obs.Trace.span_begin t.trace ~kind:Obs.Trace.S_lock_hold ~pid:t.pid
           ~tid:t.tid ~t0:(Dsim.Sim.now t.sim) ~a:(Txid.origin txid)
           ~b:(Txid.number txid) ());
    (* Amortized multi-version GC: every [prune_every_inserts] inserted
       versions, drop committed versions older than the horizon (no live
       snapshot can be that old: transactions span at most a couple of
       WAN round trips). *)
    t.inserts_since_prune <- t.inserts_since_prune + Array.length entries;
    if
      t.config.prune_every_inserts > 0
      && t.inserts_since_prune >= t.config.prune_every_inserts
    then begin
      t.inserts_since_prune <- 0;
      let horizon = Dsim.Clock.now t.clock - t.config.prune_horizon_us in
      ignore (Mvstore.prune t.store ~horizon)
    end;
    Prepared { ts; wdeps = Txid.Set.elements !wdeps }
  end

(** Local speculative transactions of {e this} node whose uncommitted
    versions conflict with an incoming remote prepare; the engine aborts
    them (and their dependents) before installing the remote prepare
    (Alg. 2, replicate handler).  An unwritten key holds only its
    committed loaded version, so only this replica's chains are
    scanned. *)
let evict_candidates t ~writes ~except =
  let victims = ref Txid.Set.empty in
  List.iter
    (fun (key, _) ->
      match Mvstore.find_entry t.store key with
      | None -> ()
      | Some e ->
        let c = Mvstore.chain t.store e in
        for i = 0 to Chain.length c - 1 do
          match Chain.get c i with
          | Pending { writer; _ }
            when (not (Txid.equal writer except)) && Txid.origin writer = t.node_id ->
            victims := Txid.Set.add writer !victims
          | Pending _ | Final _ -> ()
        done)
    writes;
  Txid.Set.elements !victims

(** A prepare carried inside a coalesced flush: the exact argument
    bundle of {!prepare}, reified so the engine can queue it and the
    server can certify it later without re-marshalling. *)
type batch_req = {
  btxid : Txid.t;
  borigin : int;
  brs : int;
  bwrites : (Key.t * Value.t) list;
  bstack_over : Txid.Set.t;
}

let prepare_req t r =
  prepare ~stack_over:r.bstack_over t ~txid:r.btxid ~origin:r.borigin ~rs:r.brs
    ~writes:r.bwrites

(** Certify one entry of an ordered batch sweep.  [sweep] identifies the
    coalesced flush this prepare arrived in; consecutive calls sharing a
    token are accounted as one lock-table sweep (occupancy histogram
    maintained incrementally).  Certification semantics are exactly
    {!prepare} — in particular a later prepare of the batch may stack
    over versions an earlier one just installed, because the sweep runs
    in enqueue order within a single CPU event. *)
let certify_batch t ~sweep r =
  if t.cert_sweep = sweep then begin
    (* The sweep grew by one: move its histogram entry up a bucket. *)
    let old_b = if t.cert_sweep_n > 16 then 16 else t.cert_sweep_n in
    t.cert_sweep_n <- t.cert_sweep_n + 1;
    let new_b = if t.cert_sweep_n > 16 then 16 else t.cert_sweep_n in
    if new_b <> old_b then begin
      t.cert_occ.(old_b) <- t.cert_occ.(old_b) - 1;
      t.cert_occ.(new_b) <- t.cert_occ.(new_b) + 1
    end
  end
  else begin
    t.cert_sweep <- sweep;
    t.cert_sweep_n <- 1;
    t.cert_sweeps <- t.cert_sweeps + 1;
    t.cert_occ.(1) <- t.cert_occ.(1) + 1
  end;
  t.cert_swept <- t.cert_swept + 1;
  prepare_req t r

(** [(sweeps, swept prepares, occupancy histogram)] — histogram index is
    [min sweep_size 16]; index 0 is always empty. *)
let sweep_stats t = (t.cert_sweeps, t.cert_swept, Array.copy t.cert_occ)

(* ------------------------------------------------------------------ *)
(* Lifecycle transitions                                               *)
(* ------------------------------------------------------------------ *)

let wake (v : Version.t) = List.iter (fun k -> k ()) (Version.take_waiters v)

(* An uncommitted version a rise from [above] to [floor] displaces. *)
let displaced ~above ~floor (v : Version.t) =
  match v with Pending { ts; _ } -> ts > above && ts <= floor | Final _ -> false

let raise_to store e ts v =
  Version.raise_ts v ts;
  Mvstore.chain_reposition store e v

(** When a version's timestamp rises from [above] to [floor] (local
    commit or final commit), uncommitted successors stacked above it —
    those with ts in (above, floor] — are displaced below it (their
    prepare timestamps were assigned before the predecessor's final
    timestamp existed).  Raise them back on top, preserving their stack
    order.  Sound because each successor's eventual commit timestamp is
    provably greater than its predecessor's (a surviving dependent has
    rs >= predecessor.ct, hence lc > ct), so the bumped positions stay
    at or below their eventual final timestamps and blocking visibility
    is preserved.  Versions at or below [above] (the predecessors) are
    left untouched.

    The chain of [store]'s entry [e] is scanned in place.  One displaced
    version (in a local commit, usually the committing version itself)
    is raised directly; only two or more take the list, whose stable
    sort orders equal-timestamp versions newest-first. *)
let restack store e ~above ~floor =
  let c = Mvstore.chain store e in
  let n = ref 0 and last = ref 0 in
  for i = 0 to Chain.length c - 1 do
    if displaced ~above ~floor (Chain.get c i) then begin
      incr n;
      last := i
    end
  done;
  if !n = 1 then raise_to store e (floor + 1) (Chain.get c !last)
  else if !n > 1 then
    Chain.uncommitted c
    |> List.filter (displaced ~above ~floor)
    |> List.sort (fun a b -> Int.compare (Version.ts a) (Version.ts b))
    |> List.iteri (fun i v -> raise_to store e (floor + 1 + i) v)

let end_hold t txid =
  if Obs.Trace.enabled t.trace then
    match Txid.Tbl.find_opt t.holds txid with
    | None -> ()
    | Some s ->
      Obs.Trace.span_end t.trace s ~t1:(Dsim.Sim.now t.sim);
      Txid.Tbl.remove t.holds txid

(* [f i e v] for [txid]'s version [v] in its [i]-th pending entry [e]:
   no key lookups, the entries are the handles [prepare] kept. *)
let update_versions t txid f =
  match Txid.Tbl.find_opt t.pending txid with
  | None -> ()
  | Some entries ->
    Array.iteri
      (fun i e ->
        match Chain.find_writer (Mvstore.chain t.store e) txid with
        | None -> ()
        | Some v -> f i e v)
      entries

(** Convert this tx's pre-committed versions to local-committed with
    timestamp [lc]; wakes readers blocked on them (local ones may now
    read speculatively). *)
let local_commit t txid ~lc =
  update_versions t txid (fun _ e v ->
      let old_ts = Version.ts v in
      Version.local_commit v ~lc;
      Mvstore.chain_reposition t.store e v;
      restack t.store e ~above:old_ts ~floor:lc;
      wake v)

(** Final commit at this replica: each pending version is swapped for
    the shared committed version at the same write-set index, which
    lands where the pending version would have moved had its timestamp
    risen to the commit timestamp.  A [LastReader] slot at or below the
    commit timestamp is dropped: the chain now keeps a version at that
    timestamp, which bounds every later proposal as the slot did.  Its
    blocked readers wake and read again. *)
let commit t txid versions =
  update_versions t txid (fun i e old ->
      let ct = Version.ts versions.(i) in
      Mvstore.chain_replace t.store e ~old versions.(i);
      restack t.store e ~above:(Version.ts old) ~floor:ct;
      Mvstore.forget_last_reader t.store e ct;
      wake old);
  Txid.Tbl.remove t.pending txid;
  end_hold t txid

(** Remove the tx's versions and wake blocked readers: an abort, and
    the cache partition's final commit (Alg. 1, line 44: the
    authoritative committed copies live at the key's real replicas). *)
let drop t txid =
  (match Txid.Tbl.find_opt t.pending txid with
   | None -> ()
   | Some entries ->
     Array.iter
       (fun e -> Option.iter wake (Mvstore.chain_remove t.store e txid))
       entries);
  Txid.Tbl.remove t.pending txid;
  end_hold t txid

(** Abort: physically remove the tx's versions and wake blocked readers.
    [tombstone] should be true only for aborts delivered over the
    network (where they can race a forwarded prepare); local aborts are
    synchronous and need no tombstone. *)
let abort ?(tombstone = false) t txid =
  if not (Txid.Tbl.mem t.pending txid) then begin
    if tombstone then begin
    (* The abort overtook this replica's prepare (it can arrive directly
       from the coordinator while the prepare is forwarded through the
       partition master): leave a tombstone so the late prepare is
       refused rather than installing zombie versions. *)
    if not (Txid.Tbl.mem t.tombstones txid) then begin
      Txid.Tbl.replace t.tombstones txid ();
      t.tombstone_queue <- txid :: t.tombstone_queue;
      if Txid.Tbl.length t.tombstones > max_tombstones then begin
        (* Cap memory: drop roughly the older half. *)
        let keep = max_tombstones / 2 in
        let rec split i = function
          | [] -> ([], [])
          | x :: rest ->
            if i >= keep then ([], x :: rest)
            else begin
              let fresh, old = split (i + 1) rest in
              (x :: fresh, old)
            end
        in
        let fresh, old = split 0 t.tombstone_queue in
        List.iter (fun id -> Txid.Tbl.remove t.tombstones id) old;
        t.tombstone_queue <- fresh
      end
    end
    end
  end
  else drop t txid

(* ------------------------------------------------------------------ *)
(* Atomic-commitment recovery support                                  *)
(* ------------------------------------------------------------------ *)

(** Prepare timestamp of an in-doubt transaction at this replica (the
    timestamp its pre-committed versions carry); [None] when nothing is
    pending for it. *)
let pending_ts t txid =
  match Txid.Tbl.find_opt t.pending txid with
  | None | Some [||] -> None
  | Some entries ->
    Option.map Version.ts (Chain.find_writer (Mvstore.chain t.store entries.(0)) txid)

(** Peer-evidence answer to "what happened to [txid] here?", asked over
    [keys] by a recovering replica running cooperative termination when
    the coordinator is unreachable:
    - [`Committed ct]: a committed version by [txid] exists — the
      decision was commit at [ct];
    - [`Pending]: this replica holds [txid] in doubt too — no evidence
      either way;
    - [`None]: no trace of [txid] — under the presumed-abort discipline
      (aborts purge versions, and a crashed coordinator's in-flight
      transactions are purged at every survivor) the decision cannot
      have been commit-and-applied here. *)
let status_of t txid ~keys =
  if Txid.Tbl.mem t.pending txid then `Pending
  else begin
    let committed =
      List.find_map
        (fun key ->
          match Mvstore.find_version t.store key txid with
          | Some (Final { ts; _ }) -> Some ts
          | Some (Pending _) | None -> None)
        keys
    in
    match committed with Some ct -> `Committed ct | None -> `None
  end

(** The committed versions that apply [txid]'s commit at [ct] here, in
    write-set order, for in-doubt resolution, which carries no write
    set: [peer e] for the key's directory entry [e] when it supplies one
    (a committed copy another replica holds, so the value stays shared),
    else a new version with this replica's pending value. *)
let decided_versions t txid ~ct ~peer =
  match Txid.Tbl.find_opt t.pending txid with
  | None -> [||]
  | Some entries ->
    Array.map
      (fun e ->
        match peer e with
        | Some v -> v
        | None ->
          (* A pending chain holds the transaction's version. *)
          let pending = Option.get (Chain.find_writer (Mvstore.chain t.store e) txid) in
          Version.make ~writer:txid ~state:Version.Committed ~ts:ct
            ~value:(Version.value pending))
      entries

(** Install already-decided committed versions directly, bypassing the
    prepare/commit protocol: applied when a commit decision reaches a
    replica that lost the corresponding prepare across a crash window.
    The decision message carries the write set and the shared committed
    versions, one per write.  Write-once per key. *)
let install_committed t writes versions =
  List.iteri
    (fun i (key, _) ->
      let v = versions.(i) in
      if Mvstore.find_version t.store key (Version.writer v) = None then
        Mvstore.insert_version t.store key v)
    writes

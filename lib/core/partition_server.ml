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
  partition : int;
  is_cache : bool;
  stats : Stats.t option;  (** node-level counters, when attached *)
  store : Mvstore.t;
  trace : Obs.Trace.t;
  pid : int;  (** trace process id (the node's data center) *)
  tid : int;  (** trace thread id of this replica *)
  holds : int Txid.Tbl.t;
      (** open lock-hold span per pending transaction (tracing only) *)
  pending : Key.t array Txid.Tbl.t;  (** keys this replica holds uncommitted, per tx *)
  tombstones : unit Txid.Tbl.t;
      (** aborts that arrived before the corresponding replicate (an
          abort from the coordinator can race a prepare forwarded by the
          partition master); a later prepare for a tombstoned tx is
          refused instead of installing zombie versions *)
  (* lint: allow fingerprint-coverage — FIFO mirror of the tombstones
     table (bounded-size eviction order); the table is what gates
     prepares, and the queue is a deterministic function of its
     insertion history *)
  mutable tombstone_queue : Txid.t list;  (** FIFO for capping tombstones *)
  (* lint: allow fingerprint-coverage — stat counter *)
  mutable blocked_reads : int;
  (* lint: allow fingerprint-coverage — GC pacing counter; affects only
     when pruning work happens, not any protocol outcome *)
  mutable inserts_since_prune : int;
  (* lint: allow fingerprint-coverage — batched-certification stat
     bookkeeping (sweep token), not protocol state *)
  mutable cert_sweep : int;  (** token of the sweep in progress; -1 = none *)
  (* lint: allow fingerprint-coverage — sweep-size accumulator (stats) *)
  mutable cert_sweep_n : int;  (** prepares certified in that sweep so far *)
  (* lint: allow fingerprint-coverage — monotone stat counter *)
  mutable cert_sweeps : int;
  (* lint: allow fingerprint-coverage — monotone stat counter *)
  mutable cert_swept : int;
  cert_occ : int array;  (** sweep-occupancy histogram; index [min n 16] *)
}

let max_tombstones = 8192

let create ~sim ~clock ~cpu ~config ~node_id ~partition ?(is_cache = false) ?stats
    ?dataset ?trace ?(pid = 0) () =
  {
    sim;
    clock;
    cpu;
    config;
    node_id;
    partition;
    is_cache;
    stats;
    trace = (match trace with Some tr -> tr | None -> Obs.Trace.disabled ());
    pid;
    tid =
      (if is_cache then Obs.Trace.cache_tid node_id
       else Obs.Trace.server_tid ~node:node_id ~partition);
    holds = Txid.Tbl.create 16;
    store = Mvstore.create ?dataset ();
    pending = Txid.Tbl.create 64;
    tombstones = Txid.Tbl.create 64;
    tombstone_queue = [];
    blocked_reads = 0;
    inserts_since_prune = 0;
    cert_sweep = -1;
    cert_sweep_n = 0;
    cert_sweeps = 0;
    cert_swept = 0;
    cert_occ = Array.make 17 0;
  }

let store t = t.store
let node_id t = t.node_id
let partition t = t.partition
let blocked_reads t = t.blocked_reads

let pending_keys t txid =
  match Txid.Tbl.find_opt t.pending txid with
  | Some ks -> Array.to_list ks
  | None -> []

(** Number of keys this replica holds uncommitted for [txid].  O(1);
    the engine's cost expressions use this instead of walking the key
    list. *)
let pending_key_count t txid =
  match Txid.Tbl.find_opt t.pending txid with
  | Some ks -> Array.length ks
  | None -> 0

let has_tx t txid = Txid.Tbl.mem t.pending txid

(** Transactions with uncommitted state at this replica, sorted by
    transaction id for deterministic downstream iteration. *)
let pending_txids t =
  (* lint: allow hashtbl-order — result is sorted below *)
  Txid.Tbl.fold (fun id _ acc -> id :: acc) t.pending []
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
      Mvstore.bump_last_reader t.store key rs;
      match Mvstore.latest_before t.store key ~rs with
      | None -> reply { value = None; src = `Missing; writer = None }
      | Some v ->
        (match v.state with
         | Version.Committed ->
           reply { value = Some v.value; src = `Committed v.ts; writer = Some v.writer }
         | Version.Local_committed
           when reader_origin = t.node_id && allow_spec && t.config.speculative_reads ->
           reply { value = Some v.value; src = `Speculative; writer = Some v.writer }
         | (Version.Local_committed | Version.Pre_committed)
           when t.config.unsafe_speculation ->
           (* Prior-work behaviour (§2): expose any pre-committed
              version to any reader, with no SPSI safeguards. *)
           reply { value = Some v.value; src = `Speculative; writer = Some v.writer }
         | Version.Local_committed | Version.Pre_committed ->
           (* Block until the writer's outcome is known at this replica,
              then reconsider from scratch. *)
           t.blocked_reads <- t.blocked_reads + 1;
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
                   (Printf.sprintf "holder %d.%d" (Txid.origin v.writer)
                      (Txid.number v.writer))
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

(** Prepare-timestamp proposal (§5.3): Precise Clocks propose
    [max(LastReader(k) + 1)] over the written keys; Physical clocks
    propose the replica's current physical time.  Both are raised above
    any version already in the chains, preserving chain order. *)
let proposal_for t writes =
  let base =
    match t.config.clocks with
    | Config.Precise -> 0
    | Config.Physical -> Dsim.Clock.now t.clock
  in
  List.fold_left
    (fun acc (key, _) ->
      let acc =
        match t.config.clocks with
        | Config.Precise -> max acc (Mvstore.last_reader t.store key + 1)
        | Config.Physical -> acc
      in
      match Mvstore.latest_before t.store key ~rs:Types.infinity_ts with
      | Some newest -> max acc (newest.ts + 1)
      | None -> acc)
    base writes

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
      actually order (e.g. across a speculation on/off toggle). *)
let prepare ?(stack_over = Txid.Set.empty) ?(origin_spec = true) t ~txid ~origin ~rs
    ~writes =
  if Txid.Tbl.mem t.tombstones txid then begin
    Txid.Tbl.remove t.tombstones txid;
    Conflict (fst (List.hd writes))
  end
  else begin
  let conflict = ref None in
  let wdeps = ref Txid.Set.empty in
  List.iter
    (fun (key, _) ->
      if !conflict = None && not t.config.skip_ww_check then begin
        (match Mvstore.newest_committed t.store key with
         | Some newest when newest.ts > rs -> conflict := Some key
         | Some _ | None -> ());
        if !conflict = None then
          List.iter
            (fun (u : Version.t) ->
              if !conflict = None && not (Txid.equal u.writer txid) then begin
                let stackable =
                  if origin = t.node_id then
                    (* Origin-side local certification: only a
                       local-committed same-node sibling in the writer's
                       snapshot may be overwritten; a pre-committed one
                       is still mid-certification and conflicts. *)
                    origin_spec
                    && t.config.speculative_reads
                    && Txid.origin u.writer = origin
                    && u.state = Version.Local_committed
                    && u.ts <= rs
                  else
                    (* Remote replica: only stack over declared
                       dependencies (the origin ordered them). *)
                    Txid.Set.mem u.writer stack_over
                in
                if stackable then wdeps := Txid.Set.add u.writer !wdeps
                else conflict := Some key
              end)
            (Mvstore.uncommitted t.store key)
      end)
    writes;
  match !conflict with
  | Some key -> Conflict key
  | None ->
    let ts = proposal_for t writes in
    List.iter
      (fun (key, value) ->
        Mvstore.insert_version t.store key
          (Version.make ~writer:txid ~state:Version.Pre_committed ~ts ~value))
      writes;
    let keys =
      (* build the key array directly — [Array.of_list (List.map ...)]
         would allocate a second, intermediate list per prepare *)
      match writes with
      | [] -> [||]
      | (k0, _) :: _ ->
        let a = Array.make (List.length writes) k0 in
        List.iteri (fun i (k, _) -> a.(i) <- k) writes;
        a
    in
    Txid.Tbl.replace t.pending txid keys;
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
    t.inserts_since_prune <- t.inserts_since_prune + Array.length keys;
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
    (Alg. 2, replicate handler). *)
let evict_candidates t ~writes ~except =
  let victims = ref Txid.Set.empty in
  List.iter
    (fun (key, _) ->
      List.iter
        (fun (u : Version.t) ->
          if (not (Txid.equal u.writer except)) && Txid.origin u.writer = t.node_id then
            victims := Txid.Set.add u.writer !victims)
        (Mvstore.uncommitted t.store key))
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
    left untouched. *)
let restack t key ~above ~floor =
  let displaced =
    Mvstore.uncommitted t.store key
    |> List.filter (fun (v : Version.t) -> v.ts > above && v.ts <= floor)
    |> List.sort (fun (a : Version.t) (b : Version.t) -> compare a.ts b.ts)
  in
  let next = ref floor in
  List.iter
    (fun (v : Version.t) ->
      incr next;
      v.ts <- !next;
      Mvstore.reposition t.store key v)
    displaced

let end_hold t txid =
  if Obs.Trace.enabled t.trace then
    match Txid.Tbl.find_opt t.holds txid with
    | None -> ()
    | Some s ->
      Obs.Trace.span_end t.trace s ~t1:(Dsim.Sim.now t.sim);
      Txid.Tbl.remove t.holds txid

let update_versions t txid f =
  match Txid.Tbl.find_opt t.pending txid with
  | None -> ()
  | Some keys ->
    Array.iter
      (fun key ->
        match Mvstore.find_version t.store key txid with
        | None -> ()
        | Some v -> f key v)
      keys

(** Convert this tx's pre-committed versions to local-committed with
    timestamp [lc]; wakes readers blocked on them (local ones may now
    read speculatively). *)
let local_commit t txid ~lc =
  update_versions t txid (fun key v ->
      let old_ts = v.ts in
      v.state <- Version.Local_committed;
      v.ts <- lc;
      Mvstore.reposition t.store key v;
      restack t key ~above:old_ts ~floor:lc;
      wake v)

(** Final commit at this replica.  The cache partition instead drops the
    versions: the authoritative committed copies live at the key's real
    replicas (Alg. 1, line 44). *)
let commit t txid ~ct =
  if t.is_cache then begin
    update_versions t txid (fun key v ->
        Mvstore.remove_version t.store key txid;
        ignore key;
        wake v);
    Txid.Tbl.remove t.pending txid
  end
  else begin
    update_versions t txid (fun key v ->
        let old_ts = v.ts in
        v.state <- Version.Committed;
        v.ts <- ct;
        Mvstore.reposition t.store key v;
        restack t key ~above:old_ts ~floor:ct;
        wake v);
    Txid.Tbl.remove t.pending txid
  end;
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
  else begin
    update_versions t txid (fun key v ->
        Mvstore.remove_version t.store key txid;
        wake v);
    Txid.Tbl.remove t.pending txid;
    end_hold t txid
  end

(** Drop old committed versions (multi-version GC). *)
let prune t ~horizon = Mvstore.prune t.store ~horizon

(* ------------------------------------------------------------------ *)
(* Atomic-commitment recovery support                                  *)
(* ------------------------------------------------------------------ *)

(** Prepare timestamp of an in-doubt transaction at this replica (the
    timestamp its pre-committed versions carry); [None] when nothing is
    pending for it. *)
let pending_ts t txid =
  match Txid.Tbl.find_opt t.pending txid with
  | None | Some [||] -> None
  | Some keys ->
    (match Mvstore.find_version t.store keys.(0) txid with
     | Some v -> Some v.Version.ts
     | None -> None)

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
          | Some v when v.Version.state = Version.Committed -> Some v.Version.ts
          | Some _ | None -> None)
        keys
    in
    match committed with Some ct -> `Committed ct | None -> `None
  end

(** Install already-decided committed versions directly, bypassing the
    prepare/commit protocol: applied when a commit decision reaches a
    replica that lost the corresponding prepare across a crash window
    (the decision message carries the write set).  Write-once per key;
    the cache partition drops final commits, so it installs nothing. *)
let install_committed t ~txid ~ct writes =
  if not t.is_cache then
    List.iter
      (fun (key, value) ->
        if Mvstore.find_version t.store key txid = None then
          Mvstore.insert_version t.store key
            (Version.make ~writer:txid ~state:Version.Committed ~ts:ct ~value))
      writes

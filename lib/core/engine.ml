(** The STR protocol engine: one value represents the whole
    geo-distributed cluster inside the simulator.  The protocol lives in
    {!Cluster} (state and construction), {!Link} (transport and
    coalescing), {!Decision_log} (AC1-AC5), {!Certification} (Alg. 2)
    and {!Coordinator} (Alg. 1); this module adds crash, fail-over and
    recovery (§5.6), cluster-wide introspection and the model checker's
    state fingerprint, and re-exports the API that [engine.mli]
    narrows.  Those five modules are private to the [core] library
    (dune [private_modules]), so [engine.mli] is their only interface. *)

open Store
open Types
include Cluster
include Coordinator
open Decision_log

let abort_tx = Certification.abort_tx

(* ------------------------------------------------------------------ *)
(* Message delivery                                                    *)
(* ------------------------------------------------------------------ *)

(** The simulator's delivery hook: run protocol message [m], sent by
    [src], at [dst].  A message from a since-restarted sender is
    dropped ({!Link.fresh}); otherwise its constructor selects the
    handler.  With tracing on, each message sent alone records its
    causal edge first, priced with the handler's CPU cost. *)
let deliver eng ~src ~dst m =
  if Link.fresh eng ~src m then
    match m with
    | Commit _ | Abort _ | Prepare _ | Replicate _ | Prepare_reply _ ->
      Link.deliver_work eng ~src ~dst m (Certification.work eng ~dst m)
    | Batch { items; sweep; sent } ->
      Link.deliver_batch eng ~src ~dst ~t_wire:sent ~sweep items ~work:Certification.work
    | Read_req { tx; key; iv; _ } ->
      Link.edge eng ~src ~dst m ~cost:eng.config.Config.cost_read;
      serve_read eng ~dst tx key iv
    | Read_reply { iv; reply; _ } ->
      Link.edge eng ~src ~dst m ~cost:0;
      ignore (Ivar.fill_if_empty iv reply)
    | Status_query { txid; p; _ } ->
      let cost = eng.config.Config.cost_coord_op in
      Link.edge eng ~src ~dst m ~cost;
      Cpu.exec eng.nodes.(dst).cpu ~cost (fun () ->
          answer_query eng ~origin:dst ~asker:src ~p txid)
    | Peer_query { txid; p; keys; tally; _ } ->
      let cost = eng.config.Config.cost_coord_op in
      Link.edge eng ~src ~dst m ~cost;
      Cpu.exec eng.nodes.(dst).cpu ~cost (fun () ->
          answer_peer eng ~peer:dst ~asker:src ~p txid ~keys tally)
    | Resolution { txid; p; d; _ } ->
      Link.edge eng ~src ~dst m ~cost:0;
      apply_resolution eng ~node:dst ~partition:p txid d
    | Peer_status { txid; p; st; tally; _ } ->
      Link.edge eng ~src ~dst m ~cost:0;
      settle_peer eng ~node:dst ~p txid st tally
    | _ -> invalid_arg "Engine.deliver: not a protocol message"

(** {!Cluster.create}, with {!deliver} installed as the simulator's
    delivery hook: one closure per engine. *)
let create ~sim ~net ~placement ~config ?seed ?trace () =
  let eng = Cluster.create ~sim ~net ~placement ~config ?seed ?trace () in
  Sim.set_delivery_hook sim (deliver eng);
  eng

(* ------------------------------------------------------------------ *)
(* Cluster-wide introspection                                          *)
(* ------------------------------------------------------------------ *)

let total_stats eng = Stats.sum (Array.to_list (Array.map (fun n -> n.stats) eng.nodes))

let total_commits eng =
  Array.fold_left (fun acc n -> acc + n.stats.Stats.commits) 0 eng.nodes

(** Coalescing-layer counters: flushes emitted, logical payloads they
    carried, and the flush-size histogram (index [min size 16]). *)
let batch_flushes eng = eng.batch_flushes
let batch_payloads eng = eng.batch_payloads
let batch_occupancy eng = Array.copy eng.batch_occ

(** Live speculation depth: transactions currently in [Local_committed]
    — locally committed, globally undecided.  A time-series gauge. *)
let live_spec_depth eng = eng.spec_live

(** Aggregated batched-certification stats over every partition server:
    [(sweeps, swept prepares, occupancy histogram)] — see
    {!Partition_server.certify_batch}. *)
let cert_sweep_stats eng =
  let sweeps = ref 0 and items = ref 0 in
  let occ = Array.make 17 0 in
  iter_servers eng (fun _ s ->
      let sw, it, o = Partition_server.sweep_stats s in
      sweeps := !sweeps + sw;
      items := !items + it;
      Array.iteri (fun i v -> occ.(i) <- occ.(i) + v) o);
  (!sweeps, !items, occ)

(** Approximate storage split: (data bytes, LastReader metadata bytes)
    summed over every replica — the §6.1 overhead measurement. *)
let storage_breakdown eng =
  let data = ref 0 and meta = ref 0 in
  iter_servers eng (fun _ s ->
      let d, m = Mvstore.storage_bytes (Partition_server.store s) in
      data := !data + d;
      meta := !meta + m);
  (!data, !meta)

(* ------------------------------------------------------------------ *)
(* Fault injection and fail-over (§5.6)                                 *)
(* ------------------------------------------------------------------ *)

(** Crash node [n].  With the paper's perfect-failure-detection
    assumption, every surviving node reacts immediately:

    - transactions originated at [n] are aborted cluster-wide (their
      pre-committed versions at other replicas are removed, unblocking
      readers; their clients are gone anyway);
    - in-flight transactions of other nodes whose certification involves
      a replica on [n] are aborted ([Node_failure]) and retried by their
      clients against the post-fail-over configuration;
    - for every partition mastered by [n], the closest live slave is
      promoted to master (synchronous replication makes any slave
      up-to-date for all committed and pre-committed state).

    Messages to and from [n] — including those already in flight — are
    dropped. *)
let crash eng n =
  let nd = eng.nodes.(n) in
  if nd.alive then begin
    nd.alive <- false;
    (* Abort n's own transactions: their clients died with the node, and
       their speculative state must not linger at the survivors. *)
    List.iter (fun tx -> abort_tx eng tx Node_failure) (sorted_active nd);
    (* The failure detector at every surviving replica drops pre-commits
       from n that the (dead) coordinator will never resolve.  abort_tx
       above already sent the removals for global_started transactions,
       but those sends are dropped at source now that n is dead — purge
       directly.  Under the recovery protocol the survivors instead HOLD
       the in-doubt state: the dead coordinator's decision log survives
       the crash, so these prepares are resolved — not presumed aborted —
       when it recovers (or earlier, by cooperative termination). *)
    if not eng.recovery_on then
      iter_servers eng (fun other srv ->
          if other.alive then
            List.iter
              (fun txid -> if Txid.origin txid = n then Partition_server.abort srv txid)
              (Partition_server.pending_txids srv));
    (* Abort survivors' transactions that are waiting on replies from n
       (their expected-reply count can otherwise never be reached). *)
    Array.iter
      (fun other ->
        if other.alive && other.id <> n then begin
          let stuck =
            sorted_active other ~keep:(fun tx ->
                tx.global_started && tx.pending_prepares > 0
                && List.exists
                     (fun (p, _) ->
                       Array.exists (fun r -> r = n) (Placement.replicas eng.placement p))
                     tx.groups)
          in
          List.iter (fun tx -> abort_tx eng tx Node_failure) stuck
        end)
      eng.nodes;
    (* Promote the closest live slave of every partition n mastered. *)
    for p = 0 to Placement.n_partitions eng.placement - 1 do
      if eng.cur_master.(p) = n then begin
        match live_replicas eng p ~except:n with
        | [] -> () (* partition lost: all replicas down *)
        | first :: _ -> eng.cur_master.(p) <- first
      end
    done;
    (* Complete in-flight remote reads the crash orphaned — requests to n
       and replies from n are dropped, so without this their client
       fibers would stay parked past quiescence.  Runs after the master
       promotions so a resuming client retries against the post-fail-over
       configuration.  Survivors' reads aimed at n get the failure
       sentinel (-> Node_failure abort, client retries); every read of
       n's own dead clients is completed too, so the fiber resumes,
       trips [check_live] and unwinds.  Fills run the fiber inline, so
       snapshot-and-reset each list before touching it. *)
    Array.iter
      (fun other ->
        let mine = List.rev !(other.outstanding_reads) in
        let keep =
          if other.id = n then []
          else List.filter (fun (target, _) -> target <> n) mine
        in
        other.outstanding_reads := List.rev keep;
        other.outstanding_read_count := List.length keep;
        List.iter
          (fun (target, iv) ->
            if (other.id = n || target = n) && not (Ivar.is_full iv) then
              ignore (Ivar.fill_if_empty iv read_failed_reply))
          mine)
      eng.nodes
  end

(** Ascending partition ids replicated at [nd] (deterministic sweep
    order for recovery). *)
let sorted_partitions nd =
  let ps = ref [] in
  for p = Array.length nd.servers - 1 downto 0 do
    if Option.is_some nd.servers.(p) then ps := p :: !ps
  done;
  !ps

(** State transfer at recovery: copy the committed versions a replica
    missed while down from the first live peer replica of each of its
    partitions.  Modeled as an atomic snapshot copy (the interesting
    failure behaviour — in-doubt prepares — is handled separately by
    {!Decision_log.resolve_in_doubt}; decided-and-fully-applied state is plain data
    movement).  Skips every key the recovering replica already has a
    version of by the same writer, so in-doubt prepares are left for
    resolution and nothing is duplicated.  The peer's committed
    versions are inserted themselves: a committed version is immutable. *)
let catch_up eng n =
  List.iter
    (fun p ->
      match live_replicas eng p ~except:n with
      | [] -> () (* sole replica: nothing was decided while it was down *)
      | src :: _ ->
        let src_store = Partition_server.store (server eng ~node:src ~partition:p) in
        let dst_store = Partition_server.store (server eng ~node:n ~partition:p) in
        List.iter
          (fun (key, v) ->
            if Mvstore.find_version dst_store key (Version.writer v) = None then
              Mvstore.insert_version dst_store key v)
          (Mvstore.committed_versions src_store))
    (sorted_partitions eng.nodes.(n))

(** Restart a crashed node from its persistent state (crash-recover
    failures): committed and pre-committed store state plus the decision
    log survive; active transactions, speculation and the cache were
    volatile and are already gone (purged by {!crash}).  The node
    reclaims the masterships the static placement assigns it, catches up
    on the committed state it missed, and then drives in-doubt
    resolution cluster-wide — both for its own held prepares and for
    survivors whose cooperative termination was blocked on this
    coordinator.  Idempotent. *)
let recover eng n =
  let nd = eng.nodes.(n) in
  if not nd.alive then begin
    nd.alive <- true;
    (* New incarnation: everything the dead one still had in flight is
       now stale and must stay dropped (see the epoch guard in [send]). *)
    nd.epoch <- nd.epoch + 1;
    for p = 0 to Placement.n_partitions eng.placement - 1 do
      if
        Placement.master eng.placement p = n
        || ((not eng.nodes.(eng.cur_master.(p)).alive)
           && Placement.replicates eng.placement ~node:n ~partition:p)
      then eng.cur_master.(p) <- n
    done;
    catch_up eng n;
    (* Re-resolve in-doubt prepares everywhere.  Healthy in-flight
       certifications are skipped (their decision traffic is on the way);
       the perfect-failure-detection assumption lets the sweep test the
       coordinator directly. *)
    Array.iter
      (fun other ->
        if other.alive then
          List.iter
            (fun p ->
              let srv = server eng ~node:other.id ~partition:p in
              List.iter
                (fun txid ->
                  let o = Txid.origin txid in
                  if
                    (not eng.nodes.(o).alive)
                    || not (Txid.Tbl.mem eng.nodes.(o).active txid)
                  then resolve_in_doubt eng ~node:other.id ~partition:p txid)
                (Partition_server.pending_txids srv))
            (sorted_partitions other))
      eng.nodes
  end

(** Attach a declarative fault layer: its crash/recover actions drive
    {!crash}/{!recover}, and its link state (cuts, loss) composes with
    the liveness delivery gate.  [recovery] (default true) additionally
    enables the atomic-commitment recovery protocol — decision logging,
    in-doubt holds across crashes and decision-carrying commit upserts —
    independent of the config's detection periods; pass [false] to keep
    the legacy crash-stop presumed-abort semantics while still using the
    fault layer as a pure transport harness. *)
let install_fault ?(recovery = true) eng fault =
  eng.fault <- Some fault;
  if recovery then eng.recovery_on <- true;
  Dsim.Fault.set_handlers fault ~crash:(fun n -> crash eng n)
    ~recover:(fun n -> recover eng n);
  Sim.set_delivery_gate eng.sim (fun ~src ~dst ->
      eng.nodes.(src).alive && eng.nodes.(dst).alive
      && Dsim.Fault.deliverable fault ~src ~dst)

(* ------------------------------------------------------------------ *)
(* State fingerprinting (model-checker support)                        *)
(* ------------------------------------------------------------------ *)

let fnv_mix h x = (h lxor x) * 0x100000001b3

(* A table's bindings in transaction-id order. *)
let sorted_bindings tbl =
  (* Hash order: sorted before use. *)
  (Txid.Tbl.fold (fun txid v acc -> (txid, v) :: acc) tbl [] [@alert "-nondet"])
  |> List.sort (fun (a, _) (b, _) -> Txid.compare a b)

(** Structural hash of the protocol-visible cluster state, independent
    of hash-table iteration order (everything is sorted before mixing).
    Two engine values with equal fingerprints are, with overwhelming
    probability, in the same protocol state — the model checker uses
    this to prune interleavings that converged.

    Each state record is matched field by field, so a new field fails
    to compile (warning 9) until it is mixed in or named [_] here with
    the reason it is not protocol state. *)
let fingerprint eng =
  let h = ref 0x811c9dc5 in
  let add x = h := fnv_mix !h x in
  let addb b = add (if b then 1 else 0) in
  let {
    nodes; cur_master; batches; fault;
    sim = _ (* its pending events are mixed by the model checker *);
    net = _; placement = _; config = _; nearest = _ (* static configuration *);
    trace = _ (* observability only *);
    (* monotone stat counters (the flush count doubles as the
       sweep-token generator) and the flush-size histogram *)
    batch_flushes = _; batch_payloads = _; batch_occ = _;
    (* derived observability gauge (count of transactions sitting in
       Local_committed), recomputable from the transaction records
       that ARE fingerprinted *)
    spec_live = _;
    observer = _ (* test/trace hook installed by harnesses *);
    (* derived from static configuration (recovery periods / fault
       installation), not evolving protocol state *)
    recovery_on = _;
  } =
    eng
  in
  Array.iter
    (fun ({ id; alive; epoch; next_tx; servers; cache; decisions; status_waiters;
            active = _ (* mixed through [sorted_active nd] *);
            (* timing: the model checker's scenarios have no skew and
               charge no CPU cost *)
            clock = _; cpu = _;
            stats = _ (* counters *);
            (* transport plumbing for crash-time read completion *)
            outstanding_reads = _; outstanding_read_count = _ } as nd) ->
      add id;
      addb alive;
      (* Mixed only once a recovery happened, so fault-free fingerprints
         are unchanged from the pre-recovery engine. *)
      if epoch > 0 then add (0x5ec lxor epoch);
      add next_tx;
      List.iter
        (fun ({ id = txid; state; rs; ffc; lc; ct; unsafe; pending_prepares; prepare_failed;
                prepare_timed_out; max_proposal; global_started; deps;
                olcset = _ (* mixed through [olc_min tx] *);
                origin = _ (* the origin of [txid] *);
                start_time = _ (* timing of the attempt *);
                sr = _ (* latched from the configuration, fixed during a model-checking run *);
                (* the write buffer's contents reach the fingerprint
                   through the version chains; wkeys and n_wkeys are
                   derived views of it, and groups its deterministic
                   regrouping fixed at certification *)
                wbuf = _; wkeys = _; n_wkeys = _; groups = _;
                (* tracked only under Serializable, which the model
                   checker does not run; rset_keys is a derived view *)
                rset = _; rset_keys = _;
                (* monotone superset of deps (which is fingerprinted);
                   only consulted to scope remote stacking *)
                all_deps = _;
                (* reverse edges of deps; the forward edges are
                   fingerprinted on every dependent *)
                dependents = _;
                (* scheduler wakeup callbacks, not protocol state; the
                   conditions they wait on are fingerprinted *)
                watchers = _;
                (* output side: misspeculation accounting and the
                   Ext-Spec latency probe, never read back by the
                   protocol *)
                spec_exposed = _; spec_commit = _;
                (* progress counter mirrored by the workload fiber's own
                   program counter *)
                reads_done = _;
                (* observability-only trace span handle; tracing is off
                   during model checking *)
                span = _ } as tx : tx) ->
          add (Txid.origin txid);
          add (Txid.number txid);
          add
            (match state with
            | Active -> 1
            | Types.Local_committed -> 2
            | Types.Committed -> 3
            | Aborted _ -> 4);
          add rs;
          add ffc;
          add lc;
          add ct;
          addb unsafe;
          add pending_prepares;
          addb prepare_failed;
          (* Mixed only when set, so fault-free fingerprints (where no
             prepare can time out) are unchanged from the pre-recovery
             engine. *)
          if prepare_timed_out then add 0x7e0;
          add max_proposal;
          addb global_started;
          add (olc_min tx);
          add (Txid.Set.cardinal deps))
        (sorted_active nd);
      Array.iteri
        (fun p ->
          Option.iter (fun srv ->
              add p;
              add (Partition_server.fingerprint srv)))
        servers;
      add (Partition_server.fingerprint cache);
      (* Recovery state, mixed only when present: both tables stay empty
         unless the recovery protocol is on, keeping fault-free
         fingerprints identical to the pre-recovery engine. *)
      if Txid.Tbl.length decisions > 0 then begin
        add 0x6dec;
        sorted_bindings decisions
        |> List.iter (fun (txid, d) ->
               add (Txid.origin txid);
               add (Txid.number txid);
               add (match d with D_commit ct -> ct | D_abort -> -1))
      end;
      if Txid.Tbl.length status_waiters > 0 then begin
        add 0x3a17;
        sorted_bindings status_waiters
        |> List.iter (fun (txid, ws) ->
               add (Txid.origin txid);
               add (Txid.number txid);
               List.iter
                 (fun (asker, p) ->
                   add asker;
                   add p)
                 (List.sort
                    (fun (a1, p1) (a2, p2) ->
                      let c = Int.compare a1 a2 in
                      if c <> 0 then c else Int.compare p1 p2)
                    ws))
      end)
    nodes;
  Array.iter add cur_master;
  (* Coalescing queues are protocol state while nonempty (parked
     prepares/decisions the destination has not seen).  Mixed only when
     nonempty, so with batching off — or every queue flushed — the
     fingerprint is identical to the unbatched engine. *)
  Array.iteri
    (fun src row ->
      Array.iteri
        (fun dst b ->
          if b.bq_n > 0 then begin
            add 0xba7c;
            add src;
            add dst;
            add b.bq_n;
            List.iter (fun it -> add (Obs.Trace.msg_index it.bkind)) (List.rev b.bq)
          end)
        row)
    batches;
  (match fault with
   | None -> ()
   | Some f ->
     (* Only an ACTIVE fault layer is protocol-visible state: with every
        cut healed and no loss in effect the layer cannot influence any
        future delivery, and the fingerprint stays identical to an
        engine without one. *)
     if Dsim.Fault.active f then add (Dsim.Fault.fingerprint f));
  !h

(** Validate every version chain in the cluster, and that no cache
    partition keeps an entry without a version (test support). *)
let check_invariants eng =
  (* The first failing replica in [iter_servers] order, then the first
     failing cache in node order, reports. *)
  let result = ref (Ok ()) in
  let check s =
    if Result.is_ok !result then result := Mvstore.check_invariants (Partition_server.store s)
  in
  iter_servers eng (fun _ s -> check s);
  Array.iter (fun nd -> check nd.cache) eng.nodes;
  !result

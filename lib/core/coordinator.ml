(** The transaction coordinator of Algorithm 1: the transactional API
    clients call from a {!Dsim.Fiber} fiber — begin, snapshot reads
    (local replica, cache partition or nearest remote replica, with the
    SPSI speculative-read guards and read-side fail-over), buffered
    writes, and a commit that runs {!Certification}'s local and global
    phases and waits out replication and speculative dependencies. *)

open Store
open Types
open Cluster
open Link
open Certification

let begin_tx eng ~origin =
  let nd = eng.nodes.(origin) in
  (* Crash-stop: a dead node serves nothing, including [begin].  Without
     this a client fiber racing a planned crash can open a transaction at
     a down node; its prepares are dropped at the (dead) sender, yet the
     local prepare it installs survives into the recovered incarnation as
     an unresolvable in-doubt entry — the recover sweep rightly skips
     transactions the (now-alive) origin still lists as active. *)
  if not nd.alive then raise (Tx_abort Node_failure);
  nd.next_tx <- nd.next_tx + 1;
  let id = Txid.make ~origin ~number:nd.next_tx in
  let rs = Clock.now nd.clock in
  let tx =
    make_tx ~id ~origin ~rs ~start_time:(Sim.now eng.sim)
      ~sr:eng.config.Config.speculative_reads
  in
  Txid.Tbl.replace nd.active id tx;
  nd.stats.Stats.started <- nd.stats.Stats.started + 1;
  if Obs.Trace.enabled eng.trace then
    tx.span <-
      Obs.Trace.span_begin eng.trace ~kind:Obs.Trace.S_tx ~pid:(pid_of eng origin)
        ~tid:(Obs.Trace.coord_tid origin) ~t0:(Sim.now eng.sim) ~a:origin
        ~b:nd.next_tx ();
  if observed eng then emit eng (Ev_begin { id; origin; rs; time = Sim.now eng.sim });
  tx

(* Ask [target] for [key] at [tx]'s snapshot; the reply fills [iv]
   ({!serve_read}). *)
let send_read_req eng (tx : tx) ~target key iv =
  send eng ~kind:Obs.Trace.M_read_req ~src:tx.origin ~dst:target
    (Read_req { tx; key; iv; epoch = sender_epoch eng tx.origin; sent = Sim.now eng.sim })

(** Serve [tx]'s remote read of [key] at replica [dst] (the handler of
    [Read_req]) and send the reply back to [tx]'s coordinator. *)
let serve_read eng ~dst (tx : tx) key iv =
  Partition_server.read
    (server eng ~node:dst ~partition:(Key.partition key))
    ~rs:tx.rs ~reader_origin:tx.origin ~reader:(ctx_of_txid tx.id) key
    (fun reply ->
      send eng ~kind:Obs.Trace.M_read_reply ~src:dst ~dst:tx.origin
        (Read_reply
           { txid = tx.id; iv; reply; epoch = sender_epoch eng dst; sent = Sim.now eng.sim }))

(** Consume a read result: update FFC/OLCSet and enforce the speculative
    snapshot-safety wait [min(OLCSet) >= FFC] (Alg. 1, line 15). *)
let rec read eng tx key =
  check_live tx;
  let nd = eng.nodes.(tx.origin) in
  match KeyTbl.find_opt tx.wbuf key with
  | Some v -> Some v (* read-your-writes from the private buffer *)
  | None ->
    let p = Key.partition key in
    nd.stats.Stats.reads <- nd.stats.Stats.reads + 1;
    (* Client-side transaction logic shares the node's CPU (the load
       injector runs on the server nodes, as in the paper's setup). *)
    charge eng nd eng.config.Config.cost_tx_logic;
    check_live tx;
    let read_started = Sim.now eng.sim in
    let rspan =
      if Obs.Trace.enabled eng.trace then
        Obs.Trace.span_begin eng.trace ~kind:Obs.Trace.S_read
          ~pid:(pid_of eng tx.origin) ~tid:(Obs.Trace.coord_tid tx.origin)
          ~t0:read_started ~a:(Txid.origin tx.id) ~b:(Txid.number tx.id) ()
      else -1
    in
    (* Close this attempt's span before recursing on a retry, so every
       attempt gets its own [read] span. *)
    let retry () =
      Obs.Trace.span_end eng.trace rspan ~t1:(Sim.now eng.sim);
      read eng tx key
    in
    let iv = Ivar.create () in
    let origin_local = Placement.replicates eng.placement ~node:tx.origin ~partition:p in
    let via =
      if origin_local then `Local
      else if tx.sr && Partition_server.has_visible nd.cache ~rs:tx.rs key then `Cache
      else `Remote
    in
    (match via with
     | (`Local | `Cache) as v ->
       let srv = if v = `Local then server eng ~node:tx.origin ~partition:p else nd.cache in
       Partition_server.read ~allow_spec:tx.sr ~reader:(ctx_of_txid tx.id) srv ~rs:tx.rs
         ~reader_origin:tx.origin key (Ivar.fill iv)
     | `Remote ->
       nd.stats.Stats.remote_reads <- nd.stats.Stats.remote_reads + 1;
       let target =
         let preferred = eng.nearest.(tx.origin).(p) in
         if eng.nodes.(preferred).alive then preferred
         else
           (* Fail-over: read from the closest live replica instead. *)
           let best =
             closest_replica eng.net eng.placement ~src:tx.origin ~ok:(is_alive eng) p
           in
           if best < 0 then preferred else best
       in
       if not eng.nodes.(target).alive then
         (* Perfect failure detection, reader side: every replica of the
            partition is down (possible at rf=1), so there is nobody to
            ask — install the failure sentinel now instead of sending a
            request that the dead node will never answer.  The guard
            below would eventually do the same, but only when retry
            periods are configured; the bounded model checker runs with
            them off. *)
         ignore (Ivar.fill_if_empty iv read_failed_reply)
       else send_read_req eng tx ~target key iv;
       if crash_recover_possible eng then begin
         (* Register for crash-time completion (see the node field doc).
            Compact once the list accumulates resolved entries so long
            runs stay O(in-flight), not O(total reads). *)
         nd.outstanding_reads := (target, iv) :: !(nd.outstanding_reads);
         incr nd.outstanding_read_count;
         if !(nd.outstanding_read_count) >= 64 then begin
           nd.outstanding_reads :=
             List.filter (fun (_, iv) -> not (Ivar.is_full iv)) !(nd.outstanding_reads);
           nd.outstanding_read_count := List.length !(nd.outstanding_reads)
         end
       end;
       if eng.config.Config.status_retry_us > 0 then begin
         (* Failure detection for remote reads: the request or its reply
            may be lost to a crash, cut link or message drop.  Re-issue
            the (idempotent) read each period; after three unanswered
            windows install the failure sentinel, which aborts the
            transaction below.  A late real reply loses the ivar race
            and is absorbed. *)
         let rec guard tries =
           Sim.schedule eng.sim ~delay:eng.config.Config.status_retry_us (fun () ->
               if not (Ivar.is_full iv) then
                 if tries >= 2 then ignore (Ivar.fill_if_empty iv read_failed_reply)
                 else begin
                   send_read_req eng tx ~target key iv;
                   guard (tries + 1)
                 end)
         in
         guard 0
       end);
    let r = Fiber.await iv in
    check_live tx;
    if r == read_failed_reply then begin
      (* The remote replica (or every path to it) stayed unresponsive
         past the detection window: abort and let the client retry
         against the post-fail-over configuration. *)
      Obs.Trace.span_end eng.trace rspan ~t1:(Sim.now eng.sim);
      abort_tx eng tx Node_failure;
      raise (Tx_abort Node_failure)
    end;
    tx.reads_done <- tx.reads_done + 1;
    let finish (r : Partition_server.read_reply) speculative =
      if not (Config.seeded eng.config Config.Unsafe_speculation) then begin
        if not (olc_min tx >= tx.ffc || is_aborted tx) then begin
          nd.stats.Stats.olc_blocks <- nd.stats.Stats.olc_blocks + 1;
          (* The snapshot-safety guard actually blocks: record the stall
             as its own span (Alg. 1, line 15). *)
          let ospan =
            if Obs.Trace.enabled eng.trace then
              Obs.Trace.span_begin eng.trace ~kind:Obs.Trace.S_olc_wait
                ~pid:(pid_of eng tx.origin) ~tid:(Obs.Trace.coord_tid tx.origin)
                ~t0:(Sim.now eng.sim) ~a:(Txid.origin tx.id)
                ~b:(Txid.number tx.id) ()
            else -1
          in
          wait_until tx (fun () -> olc_min tx >= tx.ffc || is_aborted tx);
          Obs.Trace.span_end eng.trace ospan ~t1:(Sim.now eng.sim)
        end
      end;
      Obs.Trace.span_end eng.trace rspan ~t1:(Sim.now eng.sim);
      check_live tx;
      if observed eng then
        emit eng
          (Ev_read
             {
               id = tx.id;
               key;
               writer = r.writer;
               version_ts = (match r.src with `Committed ts -> ts | _ -> 0);
               speculative;
               start_time = read_started;
               time = Sim.now eng.sim;
             });
      (* Serializable isolation: remember the observed value so the read
         can be promoted to a write at certification time. *)
      (match eng.config.Config.isolation, r.value with
       | Config.Serializable, Some v -> rset_add tx key v
       | Config.Serializable, None | Config.Snapshot_isolation, _ -> ());
      r.value
    in
    (match r.src, via with
     | `Missing, `Cache ->
       (* The cached version vanished while we were queued; retry (the
          cache check will now fail and the read goes remote). *)
       retry ()
     | `Missing, (`Local | `Remote) -> finish r false
     | `Committed ts, _ ->
       if ts > tx.ffc then tx.ffc <- ts;
       finish r false
     | `Speculative, _ ->
       let wid = match r.writer with Some w -> w | None -> assert false in
       (* The writer is a same-node transaction under SPSI; under the
          unsafe-speculation strawman it can live on any node. *)
       let writer_home = eng.nodes.(Txid.origin wid) in
       (match Txid.Tbl.find_opt writer_home.active wid with
        | None ->
          (* Writer resolved (committed or aborted) while the reply was in
             flight; re-read to observe its final outcome. *)
          retry ()
        | Some tw ->
          (match tw.state with
           | Local_committed ->
             add_dep tx tw;
             nd.stats.Stats.spec_reads <- nd.stats.Stats.spec_reads + 1;
             if via = `Cache then nd.stats.Stats.cache_reads <- nd.stats.Stats.cache_reads + 1;
             finish r true
           | Committed ->
             if tw.ct > tx.ffc then tx.ffc <- tw.ct;
             finish r false
           | Aborted _ -> retry ()
           | Active -> assert false)))

let write eng tx key value =
  check_live tx;
  if not (KeyTbl.mem tx.wbuf key) then begin
    tx.wkeys <- key :: tx.wkeys;
    tx.n_wkeys <- tx.n_wkeys + 1
  end;
  KeyTbl.replace tx.wbuf key value;
  if observed eng then emit eng (Ev_write { id = tx.id; key; time = Sim.now eng.sim })

(* Group the write set by partition — ascending partitions, each
   partition's writes in insertion order.  Sort-based: a permutation
   over an index array replaces the scratch hash table the previous
   version allocated per commit (this runs once per update
   transaction, squarely on the commit hot path). *)
let group_writes tx =
  match tx.wkeys with
  | [] -> []
  | [ key ] -> [ (Key.partition key, [ (key, KeyTbl.find tx.wbuf key) ]) ]
  | wkeys ->
    (* [wkeys] is reverse insertion order: array index 0 holds the most
       recent write, so ascending insertion order = descending index. *)
    let keys = Array.of_list wkeys in
    let n = Array.length keys in
    let idx = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = Int.compare (Key.partition keys.(a)) (Key.partition keys.(b)) in
        if c <> 0 then c else Int.compare b a)
      idx;
    (* Walk the sorted permutation backwards, consing: partitions come
       out ascending, writes within each partition in insertion order. *)
    let groups = ref [] and writes = ref [] in
    let cur_p = ref (Key.partition keys.(idx.(n - 1))) in
    for i = n - 1 downto 0 do
      let key = keys.(idx.(i)) in
      let p = Key.partition key in
      if p <> !cur_p then begin
        groups := (!cur_p, !writes) :: !groups;
        writes := [];
        cur_p := p
      end;
      writes := (key, KeyTbl.find tx.wbuf key) :: !writes
    done;
    (!cur_p, !writes) :: !groups

let externalize eng tx =
  if eng.config.Config.externalize_local_commit && not tx.spec_exposed then begin
    let nd = eng.nodes.(tx.origin) in
    tx.spec_exposed <- true;
    nd.stats.Stats.spec_commits <- nd.stats.Stats.spec_commits + 1;
    if Obs.Trace.enabled eng.trace then
      tx_instant eng tx Obs.Trace.I_spec_commit ~time:(Sim.now eng.sim);
    ignore (Ivar.fill_if_empty tx.spec_commit (Sim.now eng.sim))
  end

(** SPSI-4 wait: block until every speculative dependency has resolved,
    recording the stall as a [dep-wait] span when there was anything to
    wait for. *)
let dep_wait eng tx =
  let dspan =
    if Obs.Trace.enabled eng.trace && not (Txid.Set.is_empty tx.deps) then
      Obs.Trace.span_begin eng.trace ~kind:Obs.Trace.S_dep_wait
        ~pid:(pid_of eng tx.origin) ~tid:(Obs.Trace.coord_tid tx.origin)
        ~t0:(Sim.now eng.sim) ~a:(Txid.origin tx.id) ~b:(Txid.number tx.id) ()
    else -1
  in
  wait_until tx (fun () -> Txid.Set.is_empty tx.deps || is_aborted tx);
  Obs.Trace.span_end eng.trace dspan ~t1:(Sim.now eng.sim)

(** Commit protocol of Algorithm 1: local certification (local 2PC over
    local replicas plus the cache partition), local commit, global
    certification with synchronous master-slave replication, dependency
    resolution, and final commit.  Returns the final commit timestamp;
    raises {!Types.Tx_abort} on any abort. *)
let commit eng tx =
  check_live tx;
  let nd = eng.nodes.(tx.origin) in
  charge eng nd eng.config.Config.cost_coord_op;
  check_live tx;
  if is_read_only tx then begin
    (* A read-only transaction may still have speculative dependencies;
       SPSI-4 requires them resolved before confirming to the client. *)
    dep_wait eng tx;
    check_live tx;
    externalize eng tx;
    tx.state <- Committed;
    tx.ct <- tx.rs;
    nd.stats.Stats.read_only_commits <- nd.stats.Stats.read_only_commits + 1;
    finish_commit eng tx;
    tx.ct
  end
  else begin
    (* Read promotion (Serializable): update transactions re-write every
       value they read, turning read-write conflicts into write-write
       conflicts that SI certification rejects. *)
    if eng.config.Config.isolation = Config.Serializable then
      List.iter
        (fun key ->
          if not (KeyTbl.mem tx.wbuf key) then begin
            KeyTbl.replace tx.wbuf key (rset_find tx key);
            tx.wkeys <- key :: tx.wkeys;
            tx.n_wkeys <- tx.n_wkeys + 1;
            if observed eng then emit eng (Ev_write { id = tx.id; key; time = Sim.now eng.sim })
          end)
        (List.rev tx.rset_keys);
    let groups = group_writes tx in
    tx.groups <- groups;
    charge eng nd (eng.config.Config.cost_prepare_key * tx.n_wkeys);
    check_live tx;
    let cspan =
      if Obs.Trace.enabled eng.trace then
        Obs.Trace.span_begin eng.trace ~kind:Obs.Trace.S_local_cert
          ~pid:(pid_of eng tx.origin) ~tid:(Obs.Trace.coord_tid tx.origin)
          ~t0:(Sim.now eng.sim) ~a:(Txid.origin tx.id) ~b:(Txid.number tx.id) ()
      else -1
    in
    if not (certify_local eng tx) then begin
      Obs.Trace.span_end eng.trace cspan ~t1:(Sim.now eng.sim);
      abort_tx eng tx Local_conflict;
      raise (Tx_abort Local_conflict)
    end;
    Obs.Trace.span_end eng.trace cspan ~t1:(Sim.now eng.sim);
    if Obs.Trace.enabled eng.trace then
      tx_instant eng tx Obs.Trace.I_local_commit ~time:(Sim.now eng.sim);
    if observed eng then
      emit eng
        (Ev_local_commit { id = tx.id; lc = tx.lc; unsafe = tx.unsafe; time = Sim.now eng.sim });
    externalize eng tx;
    (* ---- Global certification + synchronous replication ---- *)
    tx.global_started <- true;
    (* Perfect failure detection, coordinator side: when a write
       partition's master is dead and fail-over found no live replica to
       promote (possible at rf=1), the partition is simply unavailable —
       abort now rather than send prepares into the void.  Prepares to a
       dead node are dropped, so without this the certification blocks
       until the prepare timeout; under the bounded model checker, which
       disables timeouts to keep the state space finite, it blocks
       forever and shows up as a deadlock. *)
    if List.exists (fun (p, _) -> not eng.nodes.(master_of eng p).alive) groups
    then begin
      abort_tx eng tx Node_failure;
      raise (Tx_abort Node_failure)
    end;
    let expected = certify_global eng tx in
    tx.pending_prepares <- expected;
    if eng.config.Config.prepare_timeout_us > 0 && expected > 0 then
      (* Coordinator-side failure detection: prepares still outstanding
         past the window mean a participant (or the path to it) is gone;
         give up on the certification with a presumed abort rather than
         blocking forever on a lost reply. *)
      Sim.schedule eng.sim ~delay:eng.config.Config.prepare_timeout_us (fun () ->
          if
            (not (is_aborted tx))
            && tx.state = Types.Local_committed
            && tx.pending_prepares > 0
            && not tx.prepare_failed
          then begin
            tx.prepare_timed_out <- true;
            notify tx
          end);
    let rspan =
      if Obs.Trace.enabled eng.trace && expected > 0 then
        Obs.Trace.span_begin eng.trace ~kind:Obs.Trace.S_repl_wait
          ~pid:(pid_of eng tx.origin) ~tid:(Obs.Trace.coord_tid tx.origin)
          ~t0:(Sim.now eng.sim) ~a:(Txid.origin tx.id) ~b:(Txid.number tx.id) ()
      else -1
    in
    wait_until tx (fun () ->
        tx.pending_prepares <= 0 || tx.prepare_failed || tx.prepare_timed_out
        || is_aborted tx);
    Obs.Trace.span_end eng.trace rspan ~t1:(Sim.now eng.sim);
    check_live tx;
    if tx.prepare_failed then begin
      abort_tx eng tx Remote_conflict;
      raise (Tx_abort Remote_conflict)
    end;
    if tx.prepare_timed_out && tx.pending_prepares > 0 then begin
      (* Presumed abort is safe here: with prepares still outstanding no
         commit decision exists anywhere, and participants that did
         prepare learn the abort directly or from the decision log. *)
      abort_tx eng tx Prepare_timeout;
      raise (Tx_abort Prepare_timeout)
    end;
    (* ---- SPSI-4: all speculative dependencies must resolve ---- *)
    dep_wait eng tx;
    check_live tx;
    let ct = max tx.lc tx.max_proposal in
    commit_apply eng tx ct;
    ct
  end

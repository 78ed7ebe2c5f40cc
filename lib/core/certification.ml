(** Certification and replication (Algorithm 2, driven from the
    coordinator of Algorithm 1): dependency tracking, abort with its
    cascade, local certification over the origin's replicas and cache
    partition, the global prepare/replicate fan-out to masters and
    slaves, and final commit application.  The only caller of
    {!Partition_server.prepare}. *)

open Store
open Types
open Cluster
open Link
open Decision_log

(* ------------------------------------------------------------------ *)
(* Dependency graph                                                    *)
(* ------------------------------------------------------------------ *)

(** Register that [tx] speculatively depends on local-committed [dep]
    (read-from or write-stacking).  Imports [dep]'s FFC and OLC minimum
    (Alg. 1, lines 13-14). *)
let add_dep (tx : tx) (dep : tx) =
  if not (Txid.Set.mem dep.id tx.deps) then begin
    tx.deps <- Txid.Set.add dep.id tx.deps;
    tx.all_deps <- Txid.Set.add dep.id tx.all_deps;
    dep.dependents <- tx :: dep.dependents
  end;
  olc_put tx dep.id (olc_min dep);
  if dep.ffc > tx.ffc then tx.ffc <- dep.ffc

(* ------------------------------------------------------------------ *)
(* Abort and commit application                                        *)
(* ------------------------------------------------------------------ *)

(* [f r] for every replica [r] of partition [p] other than [tx]'s
   origin, in placement order. *)
let iter_remote_replicas eng tx p f =
  Array.iter (fun r -> if r <> tx.origin then f r) (Placement.replicas eng.placement p)

let local_partitions_of eng tx =
  List.filter_map
    (fun (p, writes) ->
      if Placement.replicates eng.placement ~node:tx.origin ~partition:p then
        Some (p, writes)
      else None)
    tx.groups

(** Abort [tx]: cascade to dependents (SPSI-4), remove its speculative
    versions from the local replicas and the cache partition, and notify
    every remote replica involved in its global certification.
    Idempotent; safe to call from any protocol path. *)
let rec abort_tx eng tx reason =
  match tx.state with
  | Aborted _ | Committed -> ()
  | Active | Local_committed ->
    let nd = eng.nodes.(tx.origin) in
    if tx.state = Local_committed then eng.spec_live <- eng.spec_live - 1;
    tx.state <- Aborted reason;
    (* Log the abort decision before any removal is broadcast, so a
       status query can never observe a decided-but-unlogged abort. *)
    log_decision eng tx D_abort;
    Stats.record_abort nd.stats reason;
    (* Rollback is not free: removing speculative versions and unwinding
       dependents consumes node CPU (fire-and-forget: it delays
       subsequent work on this node). *)
    Cpu.exec nd.cpu ~cost:(eng.config.Config.cost_apply_key * tx.n_wkeys) nop;
    if tx.spec_exposed then nd.stats.Stats.ext_misspec <- nd.stats.Stats.ext_misspec + 1;
    let dependents = tx.dependents in
    tx.dependents <- [];
    List.iter (fun d -> abort_tx eng d Dependency_aborted) dependents;
    List.iter
      (fun (p, _) -> Partition_server.abort (server eng ~node:tx.origin ~partition:p) tx.id)
      (local_partitions_of eng tx);
    Partition_server.abort nd.cache tx.id;
    if tx.global_started then begin
      let epoch = sender_epoch eng tx.origin and sent = Sim.now eng.sim in
      List.iter
        (fun (p, _) ->
          let m = Abort { txid = tx.id; p; epoch; sent } in
          iter_remote_replicas eng tx p (fun r ->
              send_work eng ~kind:Obs.Trace.M_abort ~src:tx.origin ~dst:r m))
        tx.groups
    end;
    Txid.Tbl.remove nd.active tx.id;
    Obs.Trace.count_abort eng.trace (taxonomy_of_abort reason);
    if Obs.Trace.enabled eng.trace then begin
      let now = Sim.now eng.sim in
      tx_instant eng tx Obs.Trace.I_abort ~time:now ~note:(abort_reason_to_string reason);
      Obs.Trace.span_end eng.trace tx.span ~t1:now
    end;
    if observed eng then emit eng (Ev_abort { id = tx.id; reason; time = Sim.now eng.sim });
    notify tx

(** The commit epilogue shared by read-only and update transactions:
    count the commit, deregister [tx] and publish the commit ([tx.ct]
    is final). *)
let finish_commit eng tx =
  let nd = eng.nodes.(tx.origin) in
  nd.stats.Stats.commits <- nd.stats.Stats.commits + 1;
  Txid.Tbl.remove nd.active tx.id;
  if Obs.Trace.enabled eng.trace then begin
    let now = Sim.now eng.sim in
    tx_instant eng tx Obs.Trace.I_commit ~time:now;
    Obs.Trace.span_end eng.trace tx.span ~t1:now
  end;
  if observed eng then emit eng (Ev_commit { id = tx.id; ct = tx.ct; time = Sim.now eng.sim });
  notify tx

(* One committed version per write of a partition group: the one value
   every replica of the group installs. *)
let committed_versions (tx : tx) ~ct writes =
  let make (_, value) = Version.make ~writer:tx.id ~state:Version.Committed ~ts:ct ~value in
  match writes with
  | [] -> [||]
  | w :: rest ->
    let vs = Array.make (List.length writes) (make w) in
    List.iteri (fun i w -> vs.(i + 1) <- make w) rest;
    vs

(** Final commit with timestamp [ct]: resolve or abort dependents
    (Alg. 1, lines 37-43), apply at local replicas, drop cached entries,
    and broadcast the decision to remote replicas.  Each partition
    group's committed versions are made once and shared by the local
    commit and every decision message of the group. *)
let commit_apply eng tx ct =
  let nd = eng.nodes.(tx.origin) in
  tx.ct <- ct;
  if tx.state = Local_committed then eng.spec_live <- eng.spec_live - 1;
  tx.state <- Committed;
  (* Log-then-broadcast: the commit decision hits the persistent log
     before any decision message leaves the coordinator (AC3). *)
  log_decision eng tx (D_commit ct);
  tx.ffc <- ct;
  olc_clear tx;
  let dependents = tx.dependents in
  tx.dependents <- [];
  List.iter
    (fun d ->
      if not (is_aborted d) then
        if d.rs >= ct then begin
          d.deps <- Txid.Set.remove tx.id d.deps;
          olc_remove d tx.id;
          if ct > d.ffc then d.ffc <- ct;
          notify d
        end
        else abort_tx eng d Snapshot_too_old)
    dependents;
  Cpu.exec nd.cpu ~cost:(eng.config.Config.cost_apply_key * tx.n_wkeys) nop;
  let epoch = sender_epoch eng tx.origin and sent = Sim.now eng.sim in
  let decisions =
    List.map
      (fun (p, writes) ->
        let versions = committed_versions tx ~ct writes in
        if Placement.replicates eng.placement ~node:tx.origin ~partition:p then
          Partition_server.commit (server eng ~node:tx.origin ~partition:p) tx.id versions;
        (p, Commit { txid = tx.id; p; writes; versions; epoch; sent }))
      tx.groups
  in
  if tx.unsafe then Partition_server.drop nd.cache tx.id;
  List.iter
    (fun (p, m) ->
      iter_remote_replicas eng tx p (fun r ->
          send_work eng ~kind:Obs.Trace.M_commit ~src:tx.origin ~dst:r m))
    decisions;
  finish_commit eng tx

(* Prepare [writes] of [tx] at one of the origin's own replicas (or its
   cache partition), folding the proposed timestamp into [lc] and the
   reported write-write dependencies into [wdeps]; false on conflict. *)
let prepare_local tx srv ~lc ~wdeps writes =
  match
    Partition_server.prepare ~origin_spec:tx.sr srv ~txid:tx.id ~origin:tx.origin ~rs:tx.rs
      ~writes
  with
  | Partition_server.Conflict _ -> false
  | Partition_server.Prepared { ts; wdeps = d } ->
    if ts > !lc then lc := ts;
    List.iter (fun w -> wdeps := Txid.Set.add w !wdeps) d;
    true

(** Local certification and local commit (Alg. 1, lines 16-25), atomic
    within the calling event: a 2PC over the origin's replicas of
    [tx.groups] plus the cache partition.  On success [tx] is
    [Local_committed] at [tx.lc] with its write-write dependencies
    registered; false on a certification conflict ([tx] untouched). *)
let certify_local eng tx =
  let nd = eng.nodes.(tx.origin) in
  let lc = ref (tx.rs + 1) in
  let wdeps = ref Txid.Set.empty in
  let conflict = ref false in
  let nonlocal_writes = ref [] in
  List.iter
    (fun (p, writes) ->
      if not !conflict then
        if Placement.replicates eng.placement ~node:tx.origin ~partition:p then
          conflict :=
            not (prepare_local tx (server eng ~node:tx.origin ~partition:p) ~lc ~wdeps writes)
        else nonlocal_writes := List.rev_append writes !nonlocal_writes)
    tx.groups;
  (* The cache partition always takes part in the local 2PC: it is
     what orders same-node writers of non-local keys, whatever their
     speculation mode (only speculative *reading* of its content is
     gated).  See Alg. 1, line 18. *)
  (* Accumulated with [rev_append] above; one reversal here (the only
     consumption site) restores ascending-partition program order, so
     the cache partition sees a canonical write order independent of
     how the accumulator was built. *)
  nonlocal_writes := List.rev !nonlocal_writes;
  if (not !conflict) && !nonlocal_writes <> [] then
    (* Unsafe transaction: its non-local updates go to the cache
       partition, which takes part in the local 2PC (Alg. 1, l. 18). *)
    conflict := not (prepare_local tx nd.cache ~lc ~wdeps !nonlocal_writes);
  if !conflict then false
  else begin
    Txid.Set.iter
      (fun wid ->
        match Txid.Tbl.find_opt nd.active wid with
        | Some dep when not (is_aborted dep) -> add_dep tx dep
        | Some _ | None -> ())
      !wdeps;
    if !nonlocal_writes <> [] then begin
      tx.unsafe <- true;
      olc_put tx tx.id tx.rs (* Alg. 1, line 24 *)
    end;
    tx.lc <- !lc;
    eng.spec_live <- eng.spec_live + 1;
    tx.state <- Local_committed;
    List.iter
      (fun (p, _) ->
        Partition_server.local_commit (server eng ~node:tx.origin ~partition:p) tx.id ~lc:!lc)
      (local_partitions_of eng tx);
    if tx.unsafe then Partition_server.local_commit nd.cache tx.id ~lc:!lc;
    true
  end

(** A certification reply reaches [tx]'s coordinator: fold the
    proposal [ts] (or the refusal) into [tx] and wake its fiber. *)
let on_prepare_reply tx ~ok ~ts =
  if not (is_aborted tx) then begin
    if ok then begin
      if ts > tx.max_proposal then tx.max_proposal <- ts;
      tx.pending_prepares <- tx.pending_prepares - 1
    end
    else tx.prepare_failed <- true;
    notify tx
  end

(* The delivery-time work of a certification request for partition [p]
   at replica [dst].  A master ([forward = Some slaves]) replicates to
   its slaves once prepared; a slave ([None]) first evicts conflicting
   local speculation and its dependents (Alg. 2, replicate handler).

   The delivery-time epoch guard ({!Link.fresh}) covers the network
   hop, but the install is deferred one more step through the
   participant's CPU; so both incarnations are rechecked at install
   time — the coordinator's (a crash-recover window between delivery
   and processing must not resurrect a dead incarnation's prepare
   after the recovery sweep already ran) and the participant's own
   (work consumed but not yet processed when it crashed was volatile
   CPU state and died with the incarnation; the restarted node must
   not install a prepare whose decision traffic was dropped while it
   was down). *)
let certify_at eng ~dst ~tx ~p ~req ~origin_epoch ~forward =
  let dnd = eng.nodes.(dst) in
  let dst_epoch = dnd.epoch in
  let srv = server eng ~node:dst ~partition:p in
  Dispatch_prepare
    {
      dcost = eng.config.Config.cost_prepare_key * List.length req.Partition_server.bwrites;
      dsrv = srv;
      dreq = req;
      dpre =
        (fun () ->
          eng.nodes.(tx.origin).epoch = origin_epoch && dnd.epoch = dst_epoch
          &&
          match forward with
          | Some _ -> true
          | None ->
            List.iter
              (fun victim ->
                match Txid.Tbl.find_opt dnd.active victim with
                | Some vtx -> abort_tx eng vtx Evicted
                | None -> ())
              (Partition_server.evict_candidates srv ~writes:req.Partition_server.bwrites
                 ~except:tx.id);
            true);
      dpost =
        (fun result ->
          let ok, ts =
            match result with
            | Partition_server.Prepared { ts; _ } -> (true, ts)
            | Partition_server.Conflict _ -> (false, 0)
          in
          if ok then begin
            (* Participant-side AC5: a prepare held past the window
               without a decision starts cooperative termination. *)
            if eng.config.Config.termination_timeout_us > 0 then
              arm_termination eng ~node:dst ~partition:p tx.id;
            match forward with
            | Some slaves ->
              let m =
                Replicate
                  { tx; p; req; origin_epoch; epoch = sender_epoch eng dst; sent = Sim.now eng.sim }
              in
              List.iter
                (fun s ->
                  if s <> tx.origin then send_work eng ~kind:Obs.Trace.M_replicate ~src:dst ~dst:s m)
                slaves
            | None -> ()
          end;
          send_work eng ~kind:Obs.Trace.M_prepare_reply ~src:dst ~dst:tx.origin
            (Prepare_reply
               { tx; ok; ts; epoch = sender_epoch eng dst; sent = Sim.now eng.sim }));
    }

(** The delivery-time work of a commit-pipeline message at [dst],
    evaluated when it is delivered (alone, or as an item of a coalesced
    flush): its CPU cost and its body.  Delivery-time branches — the
    recovery upsert of a decision whose prepare was lost, the
    pending-key count that prices a decision — read the replica's state
    at delivery. *)
let work eng ~dst m =
  match m with
  | Commit { txid; p; writes; versions; _ } ->
    let srv = server eng ~node:dst ~partition:p in
    if eng.recovery_on && not (Partition_server.has_tx srv txid) then
      (* The replica lost the prepare across a crash window; the
         decision message carries the write set, so the recovered
         replica installs the committed versions directly instead of
         dropping the decision. *)
      Dispatch_cpu
        ( eng.config.Config.cost_apply_key * List.length writes,
          fun () -> Partition_server.install_committed srv writes versions )
    else
      Dispatch_cpu
        ( eng.config.Config.cost_apply_key * Partition_server.pending_key_count srv txid,
          fun () -> Partition_server.commit srv txid versions )
  | Abort { txid; p; _ } ->
    let srv = server eng ~node:dst ~partition:p in
    Dispatch_cpu
      ( eng.config.Config.cost_apply_key * Partition_server.pending_key_count srv txid,
        fun () -> Partition_server.abort ~tombstone:true srv txid )
  | Prepare { tx; p; req; slaves; origin_epoch; _ } ->
    certify_at eng ~dst ~tx ~p ~req ~origin_epoch ~forward:(Some slaves)
  | Replicate { tx; p; req; origin_epoch; _ } ->
    certify_at eng ~dst ~tx ~p ~req ~origin_epoch ~forward:None
  | Prepare_reply { tx; ok; ts; _ } -> Dispatch_inline (fun () -> on_prepare_reply tx ~ok ~ts)
  | _ -> invalid_arg "Certification.work: not a commit-pipeline message"

(** Global certification with synchronous master-slave replication
    (Alg. 1, lines 26-33; Alg. 2's prepare and replicate handlers): send
    each written partition's prepare to its master, which forwards it
    to the live slaves once prepared — or, where the origin is the
    master, replicate to the slaves directly.  Every reply lands in
    [tx.max_proposal] / [tx.prepare_failed] / [tx.pending_prepares] and
    notifies [tx].  Returns the number of replies to expect. *)
let certify_global eng tx =
  (* The dependencies declared to remote replicas: everything the
     origin ordered this transaction after (fixed at this point). *)
  let declared_deps = tx.all_deps in
  let origin_epoch = eng.nodes.(tx.origin).epoch in
  let epoch = sender_epoch eng tx.origin and sent = Sim.now eng.sim in
  let expected = ref 0 in
  List.iter
    (fun (p, writes) ->
      let m = master_of eng p in
      let slaves = live_slaves eng p in
      let req =
        {
          Partition_server.btxid = tx.id;
          borigin = tx.origin;
          brs = tx.rs;
          bwrites = writes;
          bstack_over = declared_deps;
        }
      in
      if m = tx.origin then begin
        (* We are the master: replicate the prepare to our slaves. *)
        let r = Replicate { tx; p; req; origin_epoch; epoch; sent } in
        List.iter
          (fun s ->
            incr expected;
            send_work eng ~kind:Obs.Trace.M_replicate ~src:tx.origin ~dst:s r)
          slaves
      end
      else begin
        incr expected (* the master's own reply *);
        List.iter (fun s -> if s <> tx.origin then incr expected) slaves;
        send_work eng ~kind:Obs.Trace.M_prepare ~src:tx.origin ~dst:m
          (Prepare { tx; p; req; slaves; origin_epoch; epoch; sent })
      end)
    tx.groups;
  !expected

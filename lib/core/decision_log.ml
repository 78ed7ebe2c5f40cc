(** The atomic-commitment decision log and in-doubt resolution (AC1-AC5):
    each coordinator's persistent write-once log, the status queries
    that resolve a participant's in-doubt prepares after a crash window,
    and cooperative termination over surviving peers.  A node's
    [decisions] and [status_waiters] tables are written only here. *)

open Store
open Types
open Cluster
open Link

(* The recovery protocol satisfies the atomic-commitment properties by
   construction:
   - AC1 (agreement): every resolution applies a decision from the
     coordinator's write-once log, from committed peer evidence of that
     same decision, or presumed abort when provably no commit decision
     exists — no two participants resolve differently;
   - AC2 (validity): a commit decision is only ever logged after every
     expected prepare acknowledged (Alg. 1's replication wait);
   - AC3/AC4 (non-triviality/stability): decisions are logged before
     they are broadcast and never change;
   - AC5 (termination): a recovering replica re-resolves its in-doubt
     prepares against the coordinator's log, or — when the coordinator
     is down — runs cooperative termination against the surviving peer
     replicas, blocking (the classic 2PC window) only while neither the
     coordinator nor decisive peer evidence is reachable. *)

(* [txid]'s committed version at [ct] of the key of directory entry [e]
   held by a replica of [p] other than [n], if any: committed versions
   are immutable, so a resolution at [n] installs the same value the
   other replicas hold.  The replicas share the directory, so [e] holds
   every sibling's chain.  A sibling that never wrote the key holds at
   most its loaded version, which no transaction wrote. *)
let peer_version eng ~node:n ~partition:p txid ~ct e =
  Array.find_map
    (fun r ->
      if r = n then None
      else
        match
          Chain.find_writer
            (Mvstore.chain (Partition_server.store (server eng ~node:r ~partition:p)) e)
            txid
        with
        | Some (Final { ts; _ } as v) when ts = ct -> Some v
        | Some _ | None -> None)
    (Placement.replicas eng.placement p)

(** Apply a recovered decision to an in-doubt prepare held by [node]'s
    replica of [partition].  No-op once nothing is pending for [txid]
    there (late or duplicate resolutions are absorbed).  A commit goes
    through the same swap as a decision message, with versions another
    replica already committed where there are any. *)
let apply_resolution eng ~node:n ~partition:p txid d =
  let nd = eng.nodes.(n) in
  if nd.alive then begin
    let srv = server eng ~node:n ~partition:p in
    if Partition_server.has_tx srv txid then begin
      match d with
      | D_commit ct ->
        nd.stats.Stats.in_doubt_commits <- nd.stats.Stats.in_doubt_commits + 1;
        Partition_server.commit srv txid
          (Partition_server.decided_versions srv txid ~ct
             ~peer:(peer_version eng ~node:n ~partition:p txid ~ct))
      | D_abort ->
        nd.stats.Stats.in_doubt_aborts <- nd.stats.Stats.in_doubt_aborts + 1;
        Partition_server.abort ~tombstone:true srv txid
    end
  end

(* Answer [asker]'s status query for its replica of [partition] with
   decision [d]. *)
let send_resolution eng ~src ~asker ~partition txid d =
  send eng ~kind:Obs.Trace.M_status_reply ~src ~dst:asker
    (Resolution
       { txid; p = partition; d; epoch = sender_epoch eng src; sent = Sim.now eng.sim })

(** [origin], the coordinator of [txid], answers [asker]'s status query
    for its replica of [p] (the handler of [Status_query]). *)
let answer_query eng ~origin ~asker ~p txid =
  let ond = eng.nodes.(origin) in
  match Txid.Tbl.find_opt ond.decisions txid with
  | Some d -> send_resolution eng ~src:origin ~asker ~partition:p txid d
  | None ->
    if Txid.Tbl.mem ond.active txid then begin
      (* Still certifying: register the asker and reply the moment the
         decision is logged (event-driven). *)
      let ws = Option.value ~default:[] (Txid.Tbl.find_opt ond.status_waiters txid) in
      if not (List.mem (asker, p) ws) then
        Txid.Tbl.replace ond.status_waiters txid ((asker, p) :: ws)
    end
    else
      (* No log entry and no live transaction: under the write-once
         log-then-broadcast discipline, no commit decision can exist —
         presumed abort. *)
      send_resolution eng ~src:origin ~asker ~partition:p txid D_abort

(** Peer [peer] answers [asker]'s cooperative-termination query (the
    handler of [Peer_query]). *)
let answer_peer eng ~peer ~asker ~p txid ~keys tally =
  let st = Partition_server.status_of (server eng ~node:peer ~partition:p) txid ~keys in
  send eng ~kind:Obs.Trace.M_status_reply ~src:peer ~dst:asker
    (Peer_status { txid; p; st; tally; epoch = sender_epoch eng peer; sent = Sim.now eng.sim })

(** One peer's evidence reaches [node] (the handler of [Peer_status]):
    any applied commit is decisive; unanimous absence is decisive the
    other way. *)
let settle_peer eng ~node:n ~p txid st tally =
  if not tally.settled then
    match st with
    | `Committed ct ->
      tally.settled <- true;
      apply_resolution eng ~node:n ~partition:p txid (D_commit ct)
    | `None ->
      tally.absent <- tally.absent + 1;
      if tally.absent >= tally.expected then begin
        tally.settled <- true;
        apply_resolution eng ~node:n ~partition:p txid D_abort
      end
    | `Pending -> ()

(** Record the coordinator's decision in its persistent log (write-once)
    and answer any status queries that arrived before it was made. *)
let log_decision eng (tx : tx) d =
  if eng.recovery_on && tx.global_started then begin
    let nd = eng.nodes.(tx.origin) in
    if not (Txid.Tbl.mem nd.decisions tx.id) then begin
      Txid.Tbl.replace nd.decisions tx.id d;
      match Txid.Tbl.find_opt nd.status_waiters tx.id with
      | None -> ()
      | Some waiters ->
        Txid.Tbl.remove nd.status_waiters tx.id;
        List.iter
          (fun (asker, p) -> send_resolution eng ~src:tx.origin ~asker ~partition:p tx.id d)
          (List.rev waiters)
    end
  end

(** Resolve one in-doubt prepared transaction held by [node]'s replica
    of [partition] (AC5 termination).  Consults the coordinator's
    decision log when the coordinator is reachable — replying later,
    event-driven, if it has not decided yet — and falls back to
    cooperative termination over the surviving peer replicas when it is
    not.  With [status_retry_us > 0] unresolved queries are re-issued
    each period (bounded), covering lost status traffic; otherwise
    resolution is re-triggered by the next {!Engine.recover}. *)
let rec resolve_in_doubt ?(tries = 0) eng ~node:n ~partition:p txid =
  let nd = eng.nodes.(n) in
  if nd.alive && Partition_server.has_tx (server eng ~node:n ~partition:p) txid then begin
    match eng.config.Config.seeded_bug with
    | Some Config.Lost_commit ->
      (* Seeded bug (validation): presume abort without consulting the
         decision log — drops commits whose decision message was lost. *)
      apply_resolution eng ~node:n ~partition:p txid D_abort
    | Some Config.Double_resolution ->
      (* Seeded bug (validation): presume commit at the prepare
         timestamp — resolves coordinator-aborted transactions the
         other way. *)
      (match Partition_server.pending_ts (server eng ~node:n ~partition:p) txid with
       | Some ts -> apply_resolution eng ~node:n ~partition:p txid (D_commit ts)
       | None -> apply_resolution eng ~node:n ~partition:p txid D_abort)
    | Some (Config.Skip_ww_check | Config.Unsafe_speculation) | None ->
      let origin = Txid.origin txid in
      let retry_later () =
        (* Failure-detection period; bounded so a permanently blocked
           transaction (coordinator crash-stopped, no peer evidence)
           cannot keep the event queue alive forever. *)
        if eng.config.Config.status_retry_us > 0 && tries < 100 then
          Sim.schedule eng.sim ~delay:eng.config.Config.status_retry_us (fun () ->
              resolve_in_doubt ~tries:(tries + 1) eng ~node:n ~partition:p txid)
      in
      if eng.nodes.(origin).alive then begin
        send eng ~kind:Obs.Trace.M_status_req ~src:n ~dst:origin
          (Status_query { txid; p; epoch = sender_epoch eng n; sent = Sim.now eng.sim });
        retry_later ()
      end
      else begin
        (* Cooperative termination: the coordinator is down, so query the
           partition's surviving peer replicas for evidence
           ({!settle_peer}); otherwise the in-doubt window genuinely
           blocks until the coordinator recovers.  Absence everywhere is
           decisive because a prepared-but-undecided transaction still
           holds pending state at every live acceptor, so it proves no
           commit was applied. *)
        let keys = Partition_server.pending_keys (server eng ~node:n ~partition:p) txid in
        (match live_replicas eng p ~except:n with
         | [] -> () (* blocked: no surviving evidence; retried / re-triggered *)
         | peers ->
           let tally = { expected = List.length peers; absent = 0; settled = false } in
           let m =
             Peer_query
               { txid; p; keys; tally; epoch = sender_epoch eng n; sent = Sim.now eng.sim }
           in
           List.iter (fun r -> send eng ~kind:Obs.Trace.M_status_req ~src:n ~dst:r m) peers);
        retry_later ()
      end
  end

(** Participant-side AC5 arming: a replica that prepared a remote
    transaction starts termination if no decision arrived within the
    window. *)
let arm_termination eng ~node:n ~partition:p txid =
  Sim.schedule eng.sim ~delay:eng.config.Config.termination_timeout_us (fun () ->
      resolve_in_doubt eng ~node:n ~partition:p txid)


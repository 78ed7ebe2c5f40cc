(** Protocol message transport between nodes.  A message is a payload
    of {!Cluster}'s message constructors, immutable data: a send puts
    it on the wire as one queue entry, and at delivery the engine's
    hook ({!Engine.deliver}) checks the sender's incarnation
    ({!fresh}), records the causal edge ({!edge}, {!deliver_work}) and
    runs the handler the constructor selects.  A fan-out sends one
    payload to every destination.  This module also holds the
    coalescing layer that parks commit-pipeline payloads on
    per-(src,dst) link queues and flushes them as one wire message.
    The link queues of {!Cluster.t} are mutated only here. *)

open Store
open Cluster

(** The incarnation a payload built now at [src] carries: [src]'s epoch
    when a node can crash and come back, else [-1] (never checked). *)
let sender_epoch eng src = if crash_recover_possible eng then eng.nodes.(src).epoch else -1

let epoch_of = function
  | Read_req { epoch; _ } | Read_reply { epoch; _ } | Prepare { epoch; _ }
  | Replicate { epoch; _ } | Prepare_reply { epoch; _ } | Commit { epoch; _ }
  | Abort { epoch; _ } | Status_query { epoch; _ } | Peer_query { epoch; _ }
  | Resolution { epoch; _ } | Peer_status { epoch; _ } -> epoch
  | _ -> -1

let sent_of = function
  | Read_req { sent; _ } | Read_reply { sent; _ } | Prepare { sent; _ }
  | Replicate { sent; _ } | Prepare_reply { sent; _ } | Commit { sent; _ }
  | Abort { sent; _ } | Status_query { sent; _ } | Peer_query { sent; _ }
  | Resolution { sent; _ } | Peer_status { sent; _ } -> sent
  | _ -> invalid_arg "Link.sent_of: not a protocol message"

(** The transaction a message is about: the causal context of its
    edge (Obs.Causal). *)
let txid_of = function
  | Read_req { tx; _ } | Prepare { tx; _ } | Replicate { tx; _ } | Prepare_reply { tx; _ } ->
    tx.id
  | Read_reply { txid; _ } | Commit { txid; _ } | Abort { txid; _ }
  | Status_query { txid; _ } | Peer_query { txid; _ } | Resolution { txid; _ }
  | Peer_status { txid; _ } -> txid
  | _ -> invalid_arg "Link.txid_of: not a protocol message"

let kind_of : Sim.msg -> Obs.Trace.msg_kind = function
  | Read_req _ -> M_read_req
  | Read_reply _ -> M_read_reply
  | Prepare _ -> M_prepare
  | Replicate _ -> M_replicate
  | Prepare_reply _ -> M_prepare_reply
  | Commit _ -> M_commit
  | Abort _ -> M_abort
  | Status_query _ | Peer_query _ -> M_status_req
  | Resolution _ | Peer_status _ -> M_status_reply
  | _ -> invalid_arg "Link.kind_of: not a message sent alone"

(** Does [m] come from [src]'s current incarnation?  Messages sent by a
    previous incarnation carry volatile pre-crash state: they are
    dropped at delivery even though the liveness gate sees the sender
    alive again. *)
let fresh eng ~src m =
  let e = epoch_of m in
  e < 0 || eng.nodes.(src).epoch = e

(** All protocol messaging goes through here: [kind] is counted, and
    the payload goes on the wire unless the sender is down.  Messages
    to or from a crashed node are dropped at delivery too (the
    simulator's delivery gate, installed in {!Cluster.create}), so
    messages already in flight when the crash happens are lost with it.
    Together with the purge in {!Engine.crash} this is a presumed-abort
    termination for the dead coordinator's in-doubt transactions; true
    coordinator-state high availability is the orthogonal mechanism the
    paper defers to (§5.6).  [kind] must be the payload's own
    ({!kind_of}): it names the send site for the message-flow lint. *)
let send eng ~kind ~src ~dst m =
  assert (Obs.Trace.msg_index kind = Obs.Trace.msg_index (kind_of m));
  Obs.Trace.count_msg eng.trace kind;
  if eng.nodes.(src).alive then Network.send_msg eng.net ~src ~dst m

(* Causal context of a transaction, as [Partition_server.read]'s
   [reader] identity: [(origin, number)]. *)
let ctx_of_txid id = (Txid.origin id, Txid.number id)

(** Record one causal message edge at delivery time, when the
    destination's queue backlog is observable.  Pure append into the
    trace's edge store — never schedules, never perturbs the run. *)
let record_edge eng ~kind ~txid ~src ~dst ~t_enq ~t_wire ~cost =
  Obs.Trace.edge eng.trace ~kind ~a:(Txid.origin txid) ~b:(Txid.number txid) ~src ~dst
    ~t_enq ~t_wire ~t_deliver:(Sim.now eng.sim)
    ~queue:(Cpu.backlog_us eng.nodes.(dst).cpu)
    ~cost ()

(** The causal edge of a delivered message that was sent alone; [cost]
    is the destination-side handler cost (read service, coordinator-op
    bookkeeping), so the edge's dispatch-cpu segment matches the
    [Cpu.exec] the handler issues.  A no-op with tracing off. *)
let edge eng ~src ~dst m ~cost =
  if Obs.Trace.enabled eng.trace then begin
    let t_send = sent_of m in
    record_edge eng ~kind:(kind_of m) ~txid:(txid_of m) ~src ~dst ~t_enq:t_send
      ~t_wire:t_send ~cost
  end

(* ------------------------------------------------------------------ *)
(* Message coalescing (queue-oriented speculative batching)            *)
(* ------------------------------------------------------------------ *)

(* Only the commit pipeline coalesces: prepares, replicates, their
   replies and the decision broadcasts.  The read path stays unbatched
   (it is the latency-critical interactive path) and so does the
   recovery protocol's status traffic (AC5 termination must not wait on
   a throughput window). *)
let batchable = function
  | Obs.Trace.M_prepare | Obs.Trace.M_prepare_reply | Obs.Trace.M_replicate
  | Obs.Trace.M_commit | Obs.Trace.M_abort -> true
  | Obs.Trace.M_read_req | Obs.Trace.M_read_reply | Obs.Trace.M_status_req
  | Obs.Trace.M_status_reply | Obs.Trace.M_prepare_batch
  | Obs.Trace.M_replicate_batch -> false

(** Destination CPU cost of one dispatch, excluding the per-message
    [cost_msg] header. *)
let dispatch_cost = function
  | Dispatch_cpu (c, _) -> c
  | Dispatch_inline _ -> 0
  | Dispatch_prepare { dcost; _ } -> dcost

(* Unbatched execution of one dispatch at [dst]: exactly the event
   structure the pre-batching payloads had — a [Dispatch_cpu] or
   [Dispatch_prepare] is one [Cpu.exec] at delivery time, a
   [Dispatch_inline] runs directly in the delivery event — plus the
   per-message [cost_msg] dispatch overhead when that model is on.
   With [cost_msg = 0] (the default) this is bit-identical to the
   historical engine. *)
let exec_dispatch eng ~dst w =
  let cm = eng.config.Config.cost_msg in
  match w with
  | Dispatch_cpu (c, k) -> Cpu.exec eng.nodes.(dst).cpu ~cost:(cm + c) k
  | Dispatch_inline k -> if cm = 0 then k () else Cpu.exec eng.nodes.(dst).cpu ~cost:cm k
  | Dispatch_prepare { dcost; dsrv; dreq; dpre; dpost } ->
    Cpu.exec eng.nodes.(dst).cpu ~cost:(cm + dcost) (fun () ->
        if dpre () then dpost (Partition_server.prepare_req dsrv dreq))

(** Wire transport of one coalesced flush: ONE network message (one
    latency draw, one FIFO slot) carrying [n] logical payloads; the
    delivery charges the amortized batch cost in a single CPU event. *)
let send_batch eng ~kind ~src ~dst ~n m =
  Obs.Trace.count_msg eng.trace kind;
  Network.send_coalesced eng.net ~src ~dst ~n m

(** Flush a link queue: emit the parked payloads as one wire message.
    Flush rules: (1) the window timer armed by the first enqueue, or
    (2) the [batch_max] size cap, whichever fires first; a generation
    counter voids the timer of a queue the size cap already emptied.
    A flush from a node that crashed after enqueueing is dropped whole
    (the unbatched sends would have been dropped at the source), and
    payloads enqueued by a previous incarnation of the sender are
    filtered at delivery ({!deliver_batch}) — the same guard the
    unbatched path applies per message. *)
let flush_batch eng ~src ~dst b =
  if b.bq_n > 0 then begin
    let items = List.rev b.bq in
    let n = b.bq_n in
    b.bq <- [];
    b.bq_n <- 0;
    b.bq_gen <- b.bq_gen + 1;
    Obs.Trace.span_end eng.trace b.bq_span ~t1:(Sim.now eng.sim);
    b.bq_span <- -1;
    if eng.nodes.(src).alive then begin
      eng.batch_flushes <- eng.batch_flushes + 1;
      eng.batch_payloads <- eng.batch_payloads + n;
      let occ = if n > 16 then 16 else n in
      eng.batch_occ.(occ) <- eng.batch_occ.(occ) + 1;
      let m = Batch { items; sweep = eng.batch_flushes; sent = Sim.now eng.sim } in
      if List.exists (fun it -> it.bkind = Obs.Trace.M_prepare) items then
        send_batch eng ~kind:Obs.Trace.M_prepare_batch ~src ~dst ~n m
      else send_batch eng ~kind:Obs.Trace.M_replicate_batch ~src ~dst ~n m
    end
  end

(** Deliver a coalesced flush sent at [t_wire]: evaluate every live
    payload's delivery-time branch ([work]: recovery upserts,
    pending-key counts) first, then charge one CPU event for the whole
    batch: one header ([cost_msg]) plus the per-item marginals.  Bodies
    run in enqueue order; certification requests go through the
    partition server's batched sweep, which also lets a later prepare
    of the batch stack over versions an earlier one just installed. *)
let deliver_batch eng ~src ~dst ~t_wire ~sweep items ~work =
  let live = List.filter (fun it -> eng.nodes.(src).epoch = it.bepoch) items in
  if live <> [] then begin
    let works = List.map (fun it -> work eng ~dst it.bmsg) live in
    let total =
      List.fold_left (fun acc w -> acc + dispatch_cost w) eng.config.Config.cost_msg works
    in
    if Obs.Trace.enabled eng.trace then
      (* One causal edge per live payload: park interval [bt_enq,
         t_wire), one shared wire flight, and the whole batch's CPU
         event as each payload's service window (the bodies all run
         when the single charge completes). *)
      List.iter
        (fun it ->
          record_edge eng ~kind:it.bkind ~txid:(txid_of it.bmsg) ~src ~dst ~t_enq:it.bt_enq
            ~t_wire ~cost:total)
        live;
    Cpu.exec eng.nodes.(dst).cpu ~cost:total (fun () ->
        List.iter
          (function
            | Dispatch_cpu (_, k) | Dispatch_inline k -> k ()
            | Dispatch_prepare { dsrv; dreq; dpre; dpost; _ } ->
              if dpre () then dpost (Partition_server.certify_batch dsrv ~sweep dreq))
          works)
  end

(** Park one payload on the (src,dst) link queue.  The first enqueue of
    a window opens the batch-flush span and arms the window timer as an
    Internal-lane event — under the model checker's controlled mode the
    flush is an ordinary transition, ordered against the protocol. *)
let enqueue_batch eng ~kind ~src ~dst m =
  let nd = eng.nodes.(src) in
  if nd.alive then begin
    let b = eng.batches.(src).(dst) in
    if b.bq_n = 0 then begin
      b.bq_first_at <- Sim.now eng.sim;
      if Obs.Trace.enabled eng.trace then
        b.bq_span <-
          Obs.Trace.span_begin eng.trace ~kind:Obs.Trace.S_batch_flush
            ~pid:(pid_of eng src) ~tid:(Obs.Trace.coord_tid src)
            ~t0:b.bq_first_at ~a:src ~b:dst ();
      let gen = b.bq_gen in
      Sim.schedule eng.sim ~delay:eng.config.Config.batch_window_us (fun () ->
          if b.bq_gen = gen then flush_batch eng ~src ~dst b)
    end;
    b.bq <- { bkind = kind; bepoch = nd.epoch; bt_enq = Sim.now eng.sim; bmsg = m } :: b.bq;
    b.bq_n <- b.bq_n + 1;
    if b.bq_n >= eng.config.Config.batch_max then flush_batch eng ~src ~dst b
  end

(** Commit-pipeline send: with coalescing off this is exactly {!send};
    with coalescing on, batchable kinds park on the link queue until
    the window closes or the size cap fires.  Either way the payload's
    delivery-time work is {!Certification.work}. *)
let send_work eng ~kind ~src ~dst m =
  if eng.config.Config.batch_window_us > 0 && batchable kind then begin
    assert (Obs.Trace.msg_index kind = Obs.Trace.msg_index (kind_of m));
    Obs.Trace.count_msg eng.trace kind;
    enqueue_batch eng ~kind ~src ~dst m
  end
  else send eng ~kind ~src ~dst m

(** Run a commit-pipeline message sent alone, whose delivery-time work
    evaluated to [w]: the edge is recorded now, when both the
    destination backlog and the dispatch cost are known. *)
let deliver_work eng ~src ~dst m w =
  edge eng ~src ~dst m ~cost:(eng.config.Config.cost_msg + dispatch_cost w);
  exec_dispatch eng ~dst w

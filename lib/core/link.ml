(** Protocol message transport between nodes: liveness- and
    incarnation-gated sends, causal-edge recording, and the coalescing
    layer that parks commit-pipeline payloads on per-(src,dst) link
    queues and flushes them as one wire message.  The link queues of
    {!Cluster.t} are mutated only here. *)

open Store
open Cluster

(** All protocol messaging goes through here: messages to or from a
    crashed node are silently dropped — both endpoints are re-checked at
    delivery time (by the simulator's delivery gate, installed in
    {!Cluster.create}), so messages already in flight when the crash
    happens are lost with it.  Together with the purge in
    {!Engine.crash} this is a
    presumed-abort termination for the dead coordinator's in-doubt
    transactions; true coordinator-state high availability is the
    orthogonal mechanism the paper defers to (§5.6).

    The gate replaces a guard closure this function used to wrap around
    every payload: the hot path now forwards [f] to the network
    unmodified, and the queue entry's unboxed endpoint word is what the
    run loop checks — one allocation per message eliminated. *)
let send_raw eng ~kind ~src ~dst f =
  Obs.Trace.count_msg eng.trace kind;
  let nd = eng.nodes.(src) in
  if nd.alive then
    if crash_recover_possible eng then begin
      (* Crash-recover is possible: stamp the payload with the sender's
         incarnation so a message from a since-restarted node is dropped
         at delivery even though the liveness gate sees it alive again. *)
      let epoch = nd.epoch in
      Network.send eng.net ~src ~dst (fun () -> if nd.epoch = epoch then f ())
    end
    else Network.send eng.net ~src ~dst f

(* Causal context of a protocol send: the emitting transaction's
   identity [(origin, number)], a required argument of every [send] /
   [send_work] so deliveries link into the per-transaction causal DAG
   (Obs.Causal). *)
let ctx_of_txid id = (Txid.origin id, Txid.number id)

(** Record one causal message edge at delivery time, when the
    destination's queue backlog is observable.  Pure append into the
    trace's edge store — never schedules, never perturbs the run. *)
let record_edge eng ~kind ~a ~b ~src ~dst ~t_enq ~t_wire ~cost =
  Obs.Trace.edge eng.trace ~kind ~a ~b ~src ~dst ~t_enq ~t_wire
    ~t_deliver:(Sim.now eng.sim)
    ~queue:(Cpu.backlog_us eng.nodes.(dst).cpu)
    ~cost ()

(** Traced protocol send.  [ctx] is the emitting transaction; [dcost]
    is the destination-side handler cost (read service, coordinator-op
    bookkeeping) so the edge's dispatch-cpu segment matches the
    [Cpu.exec] the handler will issue.  Both are required: a reply,
    which delivers to an already-charged coordinator fiber, passes
    [~dcost:0] in plain sight.  With tracing off this forwards to
    {!send_raw} untouched — one branch, zero allocation. *)
let send eng ~kind ~ctx ~dcost ~src ~dst f =
  if Obs.Trace.enabled eng.trace then begin
    let t_send = Sim.now eng.sim in
    let a, b = ctx in
    send_raw eng ~kind ~src ~dst (fun () ->
        record_edge eng ~kind ~a ~b ~src ~dst ~t_enq:t_send ~t_wire:t_send
          ~cost:dcost;
        f ())
  end
  else send_raw eng ~kind ~src ~dst f

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
    delivery body charges the amortized batch ~cost in a single CPU
    event. *)
let send_batch eng ~kind ~src ~dst ~n f =
  Obs.Trace.count_msg eng.trace kind;
  Network.send_coalesced eng.net ~src ~dst ~n f

(** Flush a link queue: emit the parked payloads as one wire message.
    Flush rules: (1) the window timer armed by the first enqueue, or
    (2) the [batch_max] size cap, whichever fires first; a generation
    counter voids the timer of a queue the size cap already emptied.
    A flush from a node that crashed after enqueueing is dropped whole
    (the unbatched sends would have been dropped at the source), and
    payloads enqueued by a previous incarnation of the sender are
    filtered at delivery — the same guard the unbatched path applies
    per message. *)
let flush_batch eng ~src ~dst b =
  if b.bq_n > 0 then begin
    let items = List.rev b.bq in
    let n = b.bq_n in
    let t_wire = Sim.now eng.sim in
    b.bq <- [];
    b.bq_n <- 0;
    b.bq_gen <- b.bq_gen + 1;
    Obs.Trace.span_end eng.trace b.bq_span ~t1:t_wire;
    b.bq_span <- -1;
    if eng.nodes.(src).alive then begin
      eng.batch_flushes <- eng.batch_flushes + 1;
      eng.batch_payloads <- eng.batch_payloads + n;
      let occ = if n > 16 then 16 else n in
      eng.batch_occ.(occ) <- eng.batch_occ.(occ) + 1;
      let sweep = eng.batch_flushes in
      let deliver () =
        let live = List.filter (fun it -> eng.nodes.(src).epoch = it.bepoch) items in
        if live <> [] then begin
          (* Evaluate every payload's delivery-time branch (recovery
             upserts, pending-key counts) first, then charge one CPU
             event for the whole batch: one header ([cost_msg]) plus the
             per-item marginals.  Bodies run in enqueue order;
             certification requests go through the partition server's
             batched sweep, which also lets a later prepare of the batch
             stack over versions an earlier one just installed. *)
          let works = List.map (fun it -> it.bwork ()) live in
          let total =
            List.fold_left
              (fun acc w -> acc + dispatch_cost w)
              eng.config.Config.cost_msg works
          in
          if Obs.Trace.enabled eng.trace then
            (* One causal edge per live payload: park interval
               [bt_enq, t_wire), one shared wire flight, and the whole
               batch's CPU event as each payload's service window (the
               bodies all run when the single charge completes). *)
            List.iter
              (fun it ->
                record_edge eng ~kind:it.bkind ~a:it.bctx_a ~b:it.bctx_b ~src
                  ~dst ~t_enq:it.bt_enq ~t_wire ~cost:total)
              live;
          Cpu.exec eng.nodes.(dst).cpu ~cost:total (fun () ->
              List.iter
                (function
                  | Dispatch_cpu (_, k) | Dispatch_inline k -> k ()
                  | Dispatch_prepare { dsrv; dreq; dpre; dpost; _ } ->
                    if dpre () then
                      dpost (Partition_server.certify_batch dsrv ~sweep dreq))
                works)
        end
      in
      if List.exists (fun it -> it.bkind = Obs.Trace.M_prepare) items then
        send_batch eng ~kind:Obs.Trace.M_prepare_batch ~src ~dst ~n deliver
      else send_batch eng ~kind:Obs.Trace.M_replicate_batch ~src ~dst ~n deliver
    end
  end

(** Park one payload on the (src,dst) link queue.  The first enqueue of
    a window opens the batch-flush span and arms the window timer as an
    Internal-lane event — under the model checker's controlled mode the
    flush is an ordinary transition, ordered against the protocol. *)
let enqueue_batch eng ~kind ~ctx ~src ~dst work =
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
    let bctx_a, bctx_b = ctx in
    b.bq <-
      { bkind = kind; bepoch = nd.epoch; bctx_a; bctx_b;
        bt_enq = Sim.now eng.sim; bwork = work }
      :: b.bq;
    b.bq_n <- b.bq_n + 1;
    if b.bq_n >= eng.config.Config.batch_max then flush_batch eng ~src ~dst b
  end

(** Commit-pipeline send: the payload is a {!Cluster.dispatch} evaluated at the
    destination.  With coalescing off this is exactly {!send} — same
    epoch stamping, same delivery event structure; with coalescing on,
    batchable kinds park on the link queue until the window closes or
    the size cap fires. *)
let send_work eng ~kind ~ctx ~src ~dst work =
  if eng.config.Config.batch_window_us > 0 && batchable kind then begin
    Obs.Trace.count_msg eng.trace kind;
    enqueue_batch eng ~kind ~ctx ~src ~dst work
  end
  else if Obs.Trace.enabled eng.trace then begin
    let t_send = Sim.now eng.sim in
    let a, b = ctx in
    send_raw eng ~kind ~src ~dst (fun () ->
        (* The edge is recorded at delivery, when both the destination
           backlog and the dispatch cost are known. *)
        let w = work () in
        record_edge eng ~kind ~a ~b ~src ~dst ~t_enq:t_send ~t_wire:t_send
          ~cost:(eng.config.Config.cost_msg + dispatch_cost w);
        exec_dispatch eng ~dst w)
  end
  else send_raw eng ~kind ~src ~dst (fun () -> exec_dispatch eng ~dst (work ()))

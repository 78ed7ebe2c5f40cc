(** The simulated cluster: one record per node (clock, CPU, partition
    replicas, cache partition, transaction registry, decision log), the
    cluster-wide state the protocol modules share, its construction and
    data loading, and the fiber helpers every coordinator step uses.

    Coordinators (and the emulated clients driving them) run as
    {!Dsim.Fiber} fibers; partition servers are passive state machines
    invoked from network-delivery events.  The protocol itself lives in
    {!Link} (transport and coalescing), {!Decision_log} (AC1-AC5),
    {!Certification} (Alg. 2) and {!Coordinator} (Alg. 1). *)

open Store
module Key = Keyspace.Key
module Value = Keyspace.Value
module Sim = Dsim.Sim
module Ivar = Dsim.Ivar
module Fiber = Dsim.Fiber
module Network = Dsim.Network
module Clock = Dsim.Clock
module Cpu = Dsim.Cpu
open Types

type node = {
  id : int;
  clock : Clock.t;
  cpu : Cpu.t;
  servers : Partition_server.t option array;
      (** by partition: this node's replica, if it holds one *)
  cache : Partition_server.t;
  active : tx Txid.Tbl.t;  (** local transactions, active or local-committed *)
  stats : Stats.t;
  decisions : decision Txid.Tbl.t;
      (** persistent write-once decision log of this coordinator, the
          atomic-commitment recovery anchor: consulted by participants
          resolving in-doubt prepares after a crash window.  Written only
          when the recovery protocol is enabled (the log models durable
          storage, so it survives {!Engine.crash}/{!Engine.recover}). *)
  status_waiters : (int * int) list Txid.Tbl.t;
      (** [(asker_node, partition)] pairs owed a status reply once this
          coordinator decides the transaction — registered when a status
          query arrives while certification is still in flight, so
          in-doubt resolution is event-driven rather than polled *)
  outstanding_reads : (int * Partition_server.read_reply Ivar.t) list ref;
      (** [(target_node, reply ivar)] of this node's in-flight remote
          reads — registered only when a fault layer or the recovery
          protocol is on, so {!Engine.crash} can complete reads aimed at the
          dead node with the failure sentinel instead of leaving their
          client fibers parked forever (deterministic, timer-free
          failure detection; the config's retry guard is the timed
          alternative).  Compacted opportunistically; plain transport
          plumbing, not fingerprinted protocol state. *)
  outstanding_read_count : int ref;
  mutable next_tx : int;
  mutable alive : bool;  (** false after a simulated crash (§5.6 fail-over) *)
  mutable epoch : int;
      (** incarnation number, bumped by {!Engine.recover}.  Messages sent by a
          previous incarnation must not be delivered to the cluster after
          the node restarts — they carry volatile pre-crash state that the
          crash already aborted or purged — and the delivery-time liveness
          gate cannot tell them apart once the node is alive again, so a
          message carries the sender's epoch when a fault layer or the
          recovery protocol is on ({!Link.sender_epoch}), and a stale
          one is dropped at delivery ({!Link.fresh}). *)
}

(** How a commit-pipeline message is processed at its destination.
    [Dispatch_cpu (cost, k)] charges [cost] on the destination CPU before
    running [k]; [Dispatch_inline k] runs [k] directly in the delivery
    event (reply bookkeeping, free in the historical cost model);
    [Dispatch_prepare] is a remote certification request with enough
    structure that a coalesced flush can route it through
    {!Partition_server.certify_batch} (ordered sweep + occupancy stats).
    A dispatch is built from the message at delivery time
    ({!Certification.work}), so delivery-time branches (recovery
    upserts, pending-key counts) read the replica's state then. *)
type dispatch =
  | Dispatch_cpu of int * (unit -> unit)
  | Dispatch_inline of (unit -> unit)
  | Dispatch_prepare of {
      dcost : int;  (** certification CPU cost, charged with the flush *)
      dsrv : Partition_server.t;
      dreq : Partition_server.batch_req;
      dpre : unit -> bool;
          (** incarnation guards + speculative evictions; false = stale *)
      dpost : Partition_server.prepare_outcome -> unit;
    }

(** The tally of one cooperative-termination round: the peer replies
    of a round share it, and the first decisive one settles it. *)
type tally = { expected : int; mutable absent : int; mutable settled : bool }

(** One coalesced logical message parked on a (src,dst) link queue.
    [bepoch] pins the sender incarnation at enqueue time: the flush
    drops items from a since-restarted incarnation, mirroring the
    delivery-time epoch guard of the unbatched path. *)
type batch_item = {
  bkind : Obs.Trace.msg_kind;
  bepoch : int;
  bt_enq : int;  (** enqueue time — start of the batch-park interval *)
  bmsg : Sim.msg;  (** the payload, run at delivery as if sent alone *)
}

(** Protocol messages.  A message is immutable data handed to the
    simulator as one payload ({!Sim.schedule_delivery}); the engine's
    delivery hook ({!Engine.create}) runs the handler its constructor
    selects, with the destination read from the queue entry.  A fan-out
    (replicates to a group's slaves, the decision or the abort to every
    remote replica of a group, a cooperative-termination round) sends
    one payload to every destination.

    Every message but [Batch] carries [epoch], the sender's incarnation
    when the payload was built, or [-1] when no node can crash and come
    back ({!crash_recover_possible}): a delivery from a since-restarted
    sender is dropped ({!Link.fresh}).  [sent] is the send time, the
    start of the causal edge recorded at delivery when tracing is on. *)
type Sim.msg +=
  | Read_req of {
      tx : tx;
      key : Key.t;
      iv : Partition_server.read_reply Ivar.t;
      epoch : int;
      sent : int;
    }  (** a remote snapshot read of [key] for [tx] *)
  | Read_reply of {
      txid : Txid.t;
      iv : Partition_server.read_reply Ivar.t;
      reply : Partition_server.read_reply;
      epoch : int;
      sent : int;
    }
  | Prepare of {
      tx : tx;
      p : int;
      req : Partition_server.batch_req;
      slaves : int list;  (** the master replicates to these once prepared *)
      origin_epoch : int;  (** [tx]'s coordinator incarnation at certification *)
      epoch : int;
      sent : int;
    }  (** certification request to partition [p]'s master *)
  | Replicate of {
      tx : tx;
      p : int;
      req : Partition_server.batch_req;
      origin_epoch : int;
      epoch : int;
      sent : int;
    }  (** certification request to one of [p]'s slaves *)
  | Prepare_reply of { tx : tx; ok : bool; ts : int; epoch : int; sent : int }
      (** a replica's certification outcome: proposal [ts] when [ok] *)
  | Commit of {
      txid : Txid.t;
      p : int;
      writes : (Key.t * Value.t) list;
      versions : Version.t array;  (** the group's shared committed versions *)
      epoch : int;
      sent : int;
    }
  | Abort of { txid : Txid.t; p : int; epoch : int; sent : int }
  | Status_query of { txid : Txid.t; p : int; epoch : int; sent : int }
      (** a replica of [p] asks [txid]'s coordinator for its decision *)
  | Peer_query of {
      txid : Txid.t;
      p : int;
      keys : Key.t list;
      tally : tally;
      epoch : int;
      sent : int;
    }  (** cooperative termination: a replica of [p] asks a peer *)
  | Resolution of { txid : Txid.t; p : int; d : decision; epoch : int; sent : int }
  | Peer_status of {
      txid : Txid.t;
      p : int;
      st : [ `Committed of int | `Pending | `None ];
      tally : tally;
      epoch : int;
      sent : int;
    }
  | Batch of { items : batch_item list; sweep : int; sent : int }
      (** one coalesced flush, its items in enqueue order *)

(** Per-(src,dst) coalescing queue.  [bq] holds items in reverse enqueue
    order; [bq_gen] is bumped by every flush so the armed window timer
    (which captures the generation it was armed under) turns into a
    no-op when a size-cap flush already emptied the queue. *)
type batch = {
  mutable bq : batch_item list;
  mutable bq_n : int;
  mutable bq_gen : int;
  mutable bq_span : int;
  mutable bq_first_at : int;
}

type t = {
  sim : Sim.t;
  net : Network.t;
  placement : Placement.t;
  config : Config.t;
  nodes : node array;
  nearest : int array array;  (** node -> partition -> closest replica node *)
  cur_master : int array;
      (** current master per partition; differs from the static placement
          after a fail-over promoted a slave (§5.6) *)
  trace : Obs.Trace.t;  (** span/counter recorder; a disabled one by default *)
  batches : batch array array;
      (** (src,dst) coalescing queues; all permanently empty when
          [batch_window_us = 0], restoring the unbatched engine
          bit-for-bit.  Mixed into {!Engine.fingerprint} only when nonempty. *)
  mutable batch_flushes : int;
  mutable batch_payloads : int;
  mutable spec_live : int;
  batch_occ : int array;  (** flush-size histogram; index [min n 16] *)
  mutable observer : (event -> unit) option;
  mutable fault : Dsim.Fault.t option;
      (** declarative fault layer, when installed; its link state is
          mixed into {!Engine.fingerprint} via [Fault.fingerprint] *)
  mutable recovery_on : bool;
      (** atomic-commitment recovery enabled: decision logging, in-doubt
          holds across crashes, and decision-carrying commit upserts.
          Derived from the config's recovery periods, or forced by
          {!Engine.install_fault}.  Off = the pre-recovery engine
          bit-for-bit. *)
}

let sim t = t.sim
let net t = t.net
let config t = t.config
let placement t = t.placement
let n_nodes t = Array.length t.nodes
let set_observer t f = t.observer <- Some f

(* Whether an observer is installed: callers test it before building an
   event record, so a run without one allocates none. *)
let observed t = match t.observer with None -> false | Some _ -> true

let emit t ev = match t.observer with None -> () | Some f -> f ev

(* Shared continuation for fire-and-forget CPU charges (rollback/apply
   cost accounting) — hoisted so the hot paths don't allocate a fresh
   unit closure per call. *)
let nop () = ()

(* Sentinel installed by the remote-read failure guard when every
   (re)sent request stays unanswered past the detection window.
   Compared by physical equality: a genuine [`Missing] reply is a
   distinct allocation, so it can never be mistaken for the sentinel. *)
let read_failed_reply : Partition_server.read_reply =
  { value = None; src = `Missing; writer = None }

(** Trace process id of the data center hosting [n] ([+1] keeps pid 0
    free — some trace viewers reserve it). *)
let pid_of eng n = Obs.Trace.pid_base eng.trace + Network.dc_of_node eng.net n + 1

(** Current master of a partition (reflects fail-over promotions). *)
let master_of eng p = eng.cur_master.(p)

(** Live replicas of partition [p] other than node [except], in
    placement order. *)
let live_replicas eng p ~except =
  Array.to_list (Placement.replicas eng.placement p)
  |> List.filter (fun r -> r <> except && eng.nodes.(r).alive)

(** Live slaves of a partition: its live replicas minus the current
    master. *)
let live_slaves eng p = live_replicas eng p ~except:eng.cur_master.(p)

let is_alive eng n = eng.nodes.(n).alive

(** The node's cache partition (test and introspection support). *)
let cache_of eng i = eng.nodes.(i).cache

let server eng ~node:n ~partition:p =
  let servers = eng.nodes.(n).servers in
  match if p >= 0 && p < Array.length servers then servers.(p) else None with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Engine.server: node %d does not replicate partition %d" n p)

(** Record instant [kind] on [tx]'s coordinator thread (tracing on). *)
let tx_instant ?note eng tx kind ~time =
  Obs.Trace.instant eng.trace ~kind ~pid:(pid_of eng tx.origin)
    ~tid:(Obs.Trace.coord_tid tx.origin) ~time ~a:(Txid.origin tx.id)
    ~b:(Txid.number tx.id) ?note ()

(** The replica of partition [p] closest to [src] (lowest latency,
    first in placement order on ties) among those satisfying [ok];
    [-1] when none does. *)
let closest_replica net placement ~src ~ok p =
  let best = ref (-1) and best_lat = ref max_int in
  Array.iter
    (fun r ->
      if ok r then begin
        let lat = Network.latency_us net ~src ~dst:r in
        if lat < !best_lat then begin
          best := r;
          best_lat := lat
        end
      end)
    (Placement.replicas placement p);
  !best

(** Whether a node can crash and come back: the recovery protocol or a
    fault layer is on.  Only then do sends carry the sender's
    incarnation and remote reads register for crash-time completion. *)
let crash_recover_possible eng = eng.recovery_on || eng.fault <> None

(** [f nd srv] for every partition replica [srv] of every node [nd]:
    nodes in id order, one node's replicas in partition order. *)
let iter_servers eng f =
  Array.iter (fun nd -> Array.iter (Option.iter (f nd)) nd.servers) eng.nodes

(** [nd]'s registered transactions satisfying [keep], in id order (a
    deterministic sweep order independent of the hash table). *)
let sorted_active ?(keep = fun _ -> true) nd =
  (* Hash order: sorted before use. *)
  (Txid.Tbl.fold (fun _ tx acc -> if keep tx then tx :: acc else acc) nd.active []
   [@alert "-nondet"])
  |> List.sort (fun (a : tx) b -> Txid.compare a.id b.id)

let create ~sim ~net ~placement ~config ?(seed = 42) ?trace () =
  let n = Network.node_count net in
  if Placement.n_nodes placement <> n then
    invalid_arg "Engine.create: placement/network node count mismatch";
  let trace = match trace with Some tr -> tr | None -> Obs.Trace.disabled () in
  let node_pid id = Obs.Trace.pid_base trace + Network.dc_of_node net id + 1 in
  if Obs.Trace.enabled trace then begin
    (* Declare the Chrome-trace process/thread structure up front, in a
       fixed order: one process per data center, one thread per protocol
       actor (coordinator, cache partition, each partition replica). *)
    let topo = Network.topology net in
    for dc = 0 to Dsim.Topology.size topo - 1 do
      Obs.Trace.declare_process trace
        ~pid:(Obs.Trace.pid_base trace + dc + 1)
        ~name:(Printf.sprintf "dc%d-%s" dc (Dsim.Topology.name topo dc))
    done;
    for id = 0 to n - 1 do
      let pid = node_pid id in
      Obs.Trace.declare_thread trace ~pid ~tid:(Obs.Trace.coord_tid id)
        ~name:(Printf.sprintf "node%d-coord" id);
      Obs.Trace.declare_thread trace ~pid ~tid:(Obs.Trace.cache_tid id)
        ~name:(Printf.sprintf "node%d-cache" id);
      for p = 0 to Placement.n_partitions placement - 1 do
        if Placement.replicates placement ~node:id ~partition:p then
          Obs.Trace.declare_thread trace ~pid
            ~tid:(Obs.Trace.server_tid ~node:id ~partition:p)
            ~name:(Printf.sprintf "node%d-p%d" id p)
      done
    done
  end;
  let rng = Dsim.Rng.create ~seed in
  let nodes =
    Array.init n (fun id ->
        let skew =
          if config.Config.max_clock_skew_us = 0 then 0
          else
            Dsim.Rng.int_range rng ~lo:(-config.Config.max_clock_skew_us)
              ~hi:config.Config.max_clock_skew_us
        in
        let clock = Clock.create ~sim ~skew_us:skew ~drift_ppm:0. in
        let cpu = Cpu.create sim in
        let stats = Stats.create () in
        {
          id;
          clock;
          cpu;
          servers = Array.make (Placement.n_partitions placement) None;
          cache =
            Partition_server.create ~sim ~clock ~cpu ~config ~node_id:id
              ~partition:(-1) ~is_cache:true ~stats ~trace ~pid:(node_pid id) ();
          active = Txid.Tbl.create 256;
          stats;
          decisions = Txid.Tbl.create 64;
          status_waiters = Txid.Tbl.create 8;
          outstanding_reads = ref [];
          outstanding_read_count = ref 0;
          next_tx = 0;
          alive = true;
          epoch = 0;
        })
  in
  for p = 0 to Placement.n_partitions placement - 1 do
    let replicas = Placement.replicas placement p in
    let dataset = Mvstore.create_dataset () in
    let directory = Mvstore.create_directory ~slots:(Array.length replicas) in
    Array.iteri
      (fun slot r ->
        let nd = nodes.(r) in
        nd.servers.(p) <-
          Some
            (Partition_server.create ~sim ~clock:nd.clock ~cpu:nd.cpu ~config
               ~node_id:r ~partition:p ~stats:nd.stats
               ~store:(Mvstore.create ~dataset ~directory ~slot ())
               ~trace ~pid:(node_pid r) ()))
      replicas
  done;
  let nearest =
    Array.init n (fun src ->
        Array.init (Placement.n_partitions placement) (fun p ->
            if Placement.replicates placement ~node:src ~partition:p then src
            else closest_replica net placement ~src ~ok:(fun _ -> true) p))
  in
  (* Delivery-time liveness check for every message scheduled through
     {!Link.send}: one closure per engine.  Internal events (timers, CPU
     completions, fiber wakeups) bypass the gate. *)
  Sim.set_delivery_gate sim (fun ~src ~dst -> nodes.(src).alive && nodes.(dst).alive);
  {
    sim;
    net;
    placement;
    config;
    nodes;
    nearest;
    cur_master = Array.init (Placement.n_partitions placement) (Placement.master placement);
    trace;
    batches =
      Array.init n (fun _ ->
          Array.init n (fun _ ->
              { bq = []; bq_n = 0; bq_gen = 0; bq_span = -1; bq_first_at = 0 }));
    batch_flushes = 0;
    batch_payloads = 0;
    spec_live = 0;
    batch_occ = Array.make 17 0;
    observer = None;
    fault = None;
    recovery_on =
      config.Config.prepare_timeout_us > 0
      || config.Config.status_retry_us > 0
      || config.Config.termination_timeout_us > 0
      ||
      match config.Config.seeded_bug with
      | Some (Config.Lost_commit | Config.Double_resolution) -> true
      | Some (Config.Skip_ww_check | Config.Unsafe_speculation) | None -> false;
  }

(* The writer of every loaded version. *)
let loader = Txid.make ~origin:(-1) ~number:0

(** Install an initial committed version of [key] (timestamp 0) in its
    partition's loaded dataset, which every replica of the partition
    shares, bypassing the protocol.  For dataset loading before the
    measured run. *)
let load eng key value =
  let p = Key.partition key in
  let master = Placement.master eng.placement p in
  Mvstore.load (Partition_server.store (server eng ~node:master ~partition:p)) ~writer:loader key value

(* ------------------------------------------------------------------ *)
(* Fiber helpers                                                       *)
(* ------------------------------------------------------------------ *)

(** Charge [cost] microseconds on [nd]'s CPU and wait for completion. *)
let charge eng nd cost =
  if cost > 0 then Fiber.sleep eng.sim (Cpu.book nd.cpu ~cost - Sim.now eng.sim)

(** Block the current fiber until [cond ()] holds; re-evaluated after
    every {!Types.notify} on [tx]. *)
let rec wait_until tx cond =
  if not (cond ()) then begin
    let iv = Ivar.create () in
    tx.watchers <- (fun () -> ignore (Ivar.fill_if_empty iv ())) :: tx.watchers;
    Fiber.await iv;
    wait_until tx cond
  end


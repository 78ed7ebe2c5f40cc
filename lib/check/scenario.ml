(** Tiny, fully deterministic STR deployments for the bounded model
    checker.

    All nondeterminism is squeezed out of the world itself — zero
    service costs, zero clock skew, zero latency jitter, a fixed
    transaction program per transaction index, no client retries — so
    that the {e only} branching left is which network delivery fires
    next, i.e. exactly the choices {!Dsim.Sim}'s controlled mode exposes
    to the {!Explorer}. *)

open Store

type t = {
  dcs : int;  (** data centers = nodes = partitions *)
  keys : int;
  txs : int;
  rf : int;  (** replication factor (1 exercises the cache/unsafe path) *)
  config : Core.Config.t;
  queue : [ `Heap | `Wheel ];
      (** event-queue structure backing the simulator.  Irrelevant once a
          chooser switches it to controlled mode (the lanes supersede the
          single queue), but threading it through lets the driver verify
          exactly that: exploration counts are identical either way. *)
  fault_plan : Dsim.Fault.plan;
      (** declarative crash/partition/loss schedule ([[]] = fault-free).
          Each planned action lands in the simulator's dedicated [Fault]
          lane, so under a chooser it is one more first-class transition
          to order against message deliveries and fiber wakeups: the
          explorer enumerates {e crash points}, not just delivery
          orders. *)
  recovery : bool;
      (** switch on the atomic-commitment recovery protocol when the
          fault layer is installed (decision logging, in-doubt holds,
          recover-time resolution).  Irrelevant when [fault_plan] is
          empty. *)
}

let zero_costs = (0, 0, 0, 0, 0)

(** Speculative STR with every environmental source of nondeterminism
    disabled.  [seeded_bug] selects a broken engine variant the
    checker's own validation runs must catch: SPSI violations for
    [Skip_ww_check] / [Unsafe_speculation], recovery violations
    (presumed-abort amnesia, double resolution) in the crash-schedule
    runs for [Lost_commit] / [Double_resolution].  All
    failure-detection periods stay zero so in-doubt resolution is purely
    recover-driven and the state space stays finite. *)
let config ?seeded_bug ?(batching = false) () =
  let cfg =
    Core.Config.make ~clocks:Core.Config.Precise ~speculative_reads:true ?seeded_bug
      ~max_clock_skew_us:0 ~costs:zero_costs ~prune_every_inserts:0 ()
  in
  if batching then
    (* Coalesce the commit pipeline under exploration.  The window value
       is immaterial — controlled mode orders the flush timer like any
       other transition — and the tiny size cap makes the explorer reach
       both flush rules (window expiry and cap overflow). *)
    Core.Config.with_batching ~batch_window_us:50 ~batch_max:4 cfg
  else cfg

let make ?(rf = 1) ?config:(cfg = config ()) ?(queue = `Heap) ?(fault_plan = [])
    ?(recovery = true) ~dcs ~keys ~txs () =
  if dcs < 2 then invalid_arg "Scenario.make: need at least 2 DCs";
  if keys < 1 || txs < 1 then invalid_arg "Scenario.make: need keys, txs >= 1";
  if rf < 1 || rf > dcs then invalid_arg "Scenario.make: rf out of range";
  Dsim.Fault.validate ~n:dcs fault_plan;
  { dcs; keys; txs; rf; config = cfg; queue; fault_plan; recovery }

(** Key [i] lives on partition [i mod dcs], so consecutive keys are
    mastered by different nodes and every multi-key transaction needs
    global certification. *)
let key_of s i = Keyspace.Key.v ~partition:(i mod s.dcs) (Printf.sprintf "k%d" i)

(** Deterministic program of transaction [j]:
    [(origin node, keys read, keys written)].  Each transaction reads
    {e every} key — remote keys go through the cache/speculative path
    and generate cross-DC read traffic, which is where the interesting
    races live — then writes two consecutive keys, so any two
    transactions with adjacent indices conflict on a key and the write
    sets span two partitions (two masters to certify at).  When there
    are at least three transactions the last one is a read-only
    observer: it always commits, so any forbidden observation (a
    non-atomic snapshot, a doomed speculative version) survives into
    the checked history instead of being masked by the observer's own
    certification abort. *)
let program s j =
  let origin = j mod s.dcs in
  let reads = List.init s.keys (fun i -> (j + i) mod s.keys) in
  if s.txs >= 3 && j = s.txs - 1 then (origin, reads, [])
  else
    let w1 = j mod s.keys and w2 = (j + 1) mod s.keys in
    (origin, reads, if w1 = w2 then [ w1 ] else [ w1; w2 ])

type world = {
  sim : Dsim.Sim.t;
  eng : Core.Engine.t;
  history : Spsi.History.t;
  fault : Dsim.Fault.t option;  (** the installed layer, when [fault_plan <> []] *)
}

(** Build the deployment and spawn one client fiber per transaction;
    nothing runs until {!start}.  When [chooser] is given the simulator
    is switched to controlled mode first (before any event exists). *)
let prepare ?chooser s =
  let sim = Dsim.Sim.create ~queue:s.queue () in
  (match chooser with Some c -> Dsim.Sim.set_chooser sim c | None -> ());
  let topology = Dsim.Topology.uniform ~dcs:s.dcs ~rtt_ms:50. ~intra_rtt_ms:0.5 in
  let node_dc = Array.init s.dcs (fun i -> i) in
  let rng = Dsim.Rng.create ~seed:1 in
  let net = Dsim.Network.create ~sim ~topology ~node_dc ~jitter:0. ~rng in
  let placement = Placement.ring ~n_nodes:s.dcs ~replication_factor:s.rf () in
  let eng = Core.Engine.create ~sim ~net ~placement ~config:s.config () in
  let history = Spsi.History.create () in
  Core.Engine.set_observer eng (Spsi.History.record history);
  for i = 0 to s.keys - 1 do
    Core.Engine.load eng (key_of s i) (Keyspace.Value.Int 0)
  done;
  for j = 0 to s.txs - 1 do
    let origin, reads, writes = program s j in
    Dsim.Fiber.spawn sim (fun () ->
        (* The observer begins mid-flight of the writers' certification
           (after one-way delivery, before the round trip completes), so
           its snapshot covers their in-flight pre-committed versions —
           the window the SPSI read guards must protect. *)
        if writes = [] then Dsim.Fiber.sleep sim 40_000;
        try
          (* inside the [try]: under a crash plan [begin] itself can be
             refused (crash-stop nodes serve nothing while down) *)
          let tx = Core.Engine.begin_tx eng ~origin in
          List.iter (fun i -> ignore (Core.Engine.read eng tx (key_of s i))) reads;
          List.iter
            (fun i ->
              Core.Engine.write eng tx (key_of s i) (Keyspace.Value.Int (j + 1)))
            writes;
          ignore (Core.Engine.commit eng tx)
        with Core.Types.Tx_abort _ -> ()
          (* no retry: each schedule decides each transaction's fate
             exactly once, keeping the state space finite *))
  done;
  (* The fault layer is installed after the client fibers: under FIFO
     replay equal-time client starts fire first, and under a chooser the
     plan rides its own [Fault] lane, orderable against any delivery or
     wakeup. *)
  let fault =
    if s.fault_plan = [] then None
    else begin
      let f = Dsim.Fault.create ~n:s.dcs () in
      Core.Engine.install_fault ~recovery:s.recovery eng f;
      Dsim.Fault.install f ~sim s.fault_plan;
      Some f
    end
  in
  { sim; eng; history; fault }

(** Run the world to quiescence (the event queue drains completely —
    there are no periodic timers in this configuration). *)
let start w = ignore (Dsim.Sim.run w.sim)

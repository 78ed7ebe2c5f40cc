(** Tiny, fully deterministic STR deployments for the bounded model
    checker: all environmental nondeterminism (costs, skew, jitter,
    retries) is disabled, so the only branching left is which network
    delivery fires next. *)

type t = {
  dcs : int;  (** data centers = nodes = partitions *)
  keys : int;
  txs : int;
  rf : int;  (** replication factor (1 exercises the cache/unsafe path) *)
  config : Core.Config.t;
  queue : [ `Heap | `Wheel ];
      (** event-queue structure backing the simulator (default [`Heap]).
          A chooser supersedes either with the lane structure, so
          exploration is identical — the knob exists so the driver can
          demonstrate that. *)
  fault_plan : Dsim.Fault.plan;
      (** declarative crash/partition/loss schedule (default [[]]).
          Planned actions are first-class Internal-lane transitions, so
          a chooser explores {e crash points} interleaved with message
          deliveries, not just delivery orders. *)
  recovery : bool;
      (** enable the atomic-commitment recovery protocol alongside the
          fault layer (default [true]; moot when [fault_plan] is
          empty). *)
}

(** Speculative STR with deterministic environment.  [seeded_bug]
    (default none: the correct engine) selects a deliberately broken
    engine variant for the checker's validation runs:
    [Skip_ww_check] and [Unsafe_speculation] must be caught by the SPSI
    oracle, [Lost_commit] and [Double_resolution] by the recovery
    oracles of the crash-schedule runs. *)
val config :
  ?seeded_bug:Core.Config.seeded_bug ->
  ?batching:bool ->
  unit ->
  Core.Config.t
(** [batching] turns on message coalescing (tiny window and size cap, so
    the explorer reaches both flush rules); the batched flush is an
    ordinary transition the explorer orders against every delivery. *)

val make :
  ?rf:int ->
  ?config:Core.Config.t ->
  ?queue:[ `Heap | `Wheel ] ->
  ?fault_plan:Dsim.Fault.plan ->
  ?recovery:bool ->
  dcs:int ->
  keys:int ->
  txs:int ->
  unit ->
  t
(** @raise Invalid_argument on [dcs < 2], [keys < 1], [txs < 1], [rf]
    outside [1..dcs], or a [fault_plan] that {!Dsim.Fault.validate}
    rejects for [dcs] nodes. *)

type world = {
  sim : Dsim.Sim.t;
  eng : Core.Engine.t;
  history : Spsi.History.t;
  fault : Dsim.Fault.t option;
      (** the installed fault layer when [fault_plan] is non-empty *)
}

(** Build the deployment and spawn one fiber per transaction without
    running anything.  A [chooser] switches the simulator to controlled
    mode first. *)
val prepare : ?chooser:(Dsim.Sim.candidate array -> int) -> t -> world

(** Run to quiescence (drains the event queue completely). *)
val start : world -> unit

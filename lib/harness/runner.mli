(** Experiment runner: builds a simulated cluster, attaches closed-loop
    clients, runs warmup + measurement, and reports the §6 metrics. *)

type setup = {
  topology : Dsim.Topology.t;
  replication_factor : int;
  config : Core.Config.t;
  workload : Workload.Spec.t;
  clients_per_node : int;
  warmup_us : int;
  measure_us : int;
  seed : int;
  jitter : float;  (** relative network-latency jitter, e.g. 0.02 *)
  self_tune : [ `Off | `On of int  (** tuner window, µs *) ];
  fault_plan : Dsim.Fault.plan;
      (** declarative crash/partition/loss schedule (default [[]]).  A
          non-empty plan installs the fault layer with the
          atomic-commitment recovery protocol enabled; faulted traces
          are additionally sealed with [fault_*] counters. *)
}

(** Nine EC2 regions, replication factor 6, 10 clients/node, 5 s warmup,
    10 s measurement. *)
val default_setup : workload:Workload.Spec.t -> config:Core.Config.t -> setup

type result = {
  duration_s : float;
  committed : int;
  throughput : float;  (** committed transactions per second, cluster-wide *)
  abort_rate : float;
  misspec_rate : float;  (** internal misspeculation share of attempts *)
  ext_misspec_rate : float;  (** Ext-Spec: externalized-then-aborted share *)
  final_latency : Metrics.summary;
  spec_latency : Metrics.summary;  (** Ext-Spec speculative latency *)
  stats : Core.Stats.t;  (** counter deltas over the measurement window *)
  tuner_decision : bool option;
  wan_messages : int;  (** inter-DC messages during measurement *)
  timeseries : Obs.Timeseries.t option;
      (** fixed-interval snapshot series when [run ~timeseries_us] asked
          for one; also sealed into the trace when tracing is on *)
}

(** Construct the cluster without running (advanced drivers that need
    the engine, e.g. to attach custom telemetry). *)
val build_cluster :
  ?trace:Obs.Trace.t ->
  setup ->
  Dsim.Sim.t * Dsim.Network.t * Store.Placement.t * Core.Engine.t * Dsim.Rng.t

(** Attach [clients_per_node] closed-loop clients to every node of a
    cluster built with {!build_cluster}, each on its own split of [rng]
    and staggered across the first 200 ms.  They stop at the end of the
    measurement window and record latency inside it, into the returned
    record. *)
val spawn_clients : setup -> eng:Core.Engine.t -> rng:Dsim.Rng.t -> Client.shared

(** {1 Building blocks shared with {!Openloop}} *)

(** @raise Invalid_argument, prefixed with [who] and naming the field,
    if [warmup_us] or [measure_us] is negative, [replication_factor] is
    outside [1..DCs] or [jitter] is outside [[0, 1)]. *)
val check_run_setup :
  who:string ->
  topology:Dsim.Topology.t ->
  replication_factor:int ->
  warmup_us:int ->
  measure_us:int ->
  jitter:float ->
  unit

(** One node per DC, ring placement; the RNG seeds the network and the
    engine, and is returned for the caller's further splits.  [queue]
    picks the event-queue structure (default the heap). *)
val make_cluster :
  ?trace:Obs.Trace.t ->
  ?queue:[ `Heap | `Wheel ] ->
  topology:Dsim.Topology.t ->
  replication_factor:int ->
  config:Core.Config.t ->
  seed:int ->
  jitter:float ->
  unit ->
  Dsim.Sim.t * Dsim.Network.t * Store.Placement.t * Core.Engine.t * Dsim.Rng.t

(** Run warmup, then the measurement window (network counters reset at
    its start), call [at_window_end], and drain 200 ms more.  Returns
    the events processed up to the window's end and the engine's
    counter deltas over the window. *)
val run_window :
  ?at_window_end:(unit -> unit) ->
  sim:Dsim.Sim.t ->
  net:Dsim.Network.t ->
  eng:Core.Engine.t ->
  measure_from:int ->
  measure_to:int ->
  unit ->
  int * Core.Stats.t

(** End of run, enabled traces only: close the spans still open and
    attach the run-summary stats ([eq_*], [net_*], inter-DC RTT range,
    [commits], causal edges; batching counters when coalescing ran,
    [fault_*] when [fault] is given) and [timeseries]. *)
val seal_trace :
  ?fault:Dsim.Fault.t ->
  ?timeseries:Obs.Timeseries.t ->
  Obs.Trace.t ->
  sim:Dsim.Sim.t ->
  net:Dsim.Network.t ->
  eng:Core.Engine.t ->
  topology:Dsim.Topology.t ->
  committed:int ->
  unit

val snapshot_stats : Core.Engine.t -> Core.Stats.t
val delta_stats : at_start:Core.Stats.t -> at_end:Core.Stats.t -> Core.Stats.t

(** {1 Deterministic time-series sampling} *)

(** Install a fixed-interval sampler on a cluster built with
    {!build_cluster}: [sample_fn] is evaluated at sim times
    [interval_us, 2*interval_us, ... <= until] and its rows append to
    the returned series.  An ordinary simulator event keyed on sim
    time, so the series is a pure function of (configuration, seed)
    and byte-identical across [-j] workers; it reads engine state but
    never mutates it, so the protocol outcome is unchanged. *)
val install_sampler :
  sim:Dsim.Sim.t ->
  interval_us:int ->
  until:int ->
  cols:string list ->
  (unit -> int array) ->
  Obs.Timeseries.t

val sample_columns : string list
(** The standard column set of {!standard_series}: cumulative
    commit/abort/speculation counters plus the [spec_depth] and
    [eq_depth] gauges. *)

(** {!install_sampler} with the standard columns when [timeseries_us]
    is a positive interval, else [None]. *)
val standard_series :
  ?timeseries_us:int ->
  sim:Dsim.Sim.t ->
  net:Dsim.Network.t ->
  eng:Core.Engine.t ->
  until:int ->
  unit ->
  Obs.Timeseries.t option

(** Run the whole experiment.  [observer] receives every engine event
    (e.g. {!Spsi.History.record}); [trace] attaches a span recorder to
    the whole cluster and is sealed at the end of the run
    ({!seal_trace}); [timeseries_us] additionally records the standard
    snapshot series at that interval through the end of measurement
    (returned in [result.timeseries] and sealed into the trace).
    @raise Invalid_argument as {!check_run_setup}, when
    [clients_per_node < 1], or when {!Dsim.Fault.validate} rejects
    [fault_plan]; all before any event runs. *)
val run :
  ?observer:(Core.Types.event -> unit) ->
  ?trace:Obs.Trace.t ->
  ?timeseries_us:int ->
  setup ->
  result

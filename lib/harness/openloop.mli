(** Open-loop load injection at million-client scale.

    Transactions arrive at a fixed per-DC rate ({!Workload.Arrival})
    instead of being paced by client completions.  The population is
    one idle counter per DC: which client serves an arrival never
    reaches the engine, so an idle client costs nothing and a million
    clients cost nine integers.  Fibers exist only for in-flight
    transactions, each carrying its program, origin DC and arrival
    time; arrivals that find their DC's whole population busy are
    counted as dropped, never queued.

    Runs are deterministic in the seed and identical whether the
    simulator uses the binary heap or the timer wheel ([queue]). *)

type setup = {
  topology : Dsim.Topology.t;
  replication_factor : int;
  config : Core.Config.t;
  workload : Workload.Spec.t;
  clients_per_dc : int;  (** population (idle + busy) attached to each DC *)
  arrival : Workload.Arrival.t;
  warmup_us : int;
  measure_us : int;
  seed : int;
  jitter : float;
  queue : [ `Heap | `Wheel ];
}

(** Nine EC2 regions, rf 6, 1000 clients/DC, Poisson 100 tx/s/DC, 2 s
    warmup, 5 s measurement, binary heap. *)
val default_setup : workload:Workload.Spec.t -> config:Core.Config.t -> setup

type result = {
  duration_s : float;
  clients : int;  (** total population across the grid *)
  completed : int;  (** transactions committed inside the window *)
  throughput : float;
  offered_per_dc : float;  (** configured injection rate *)
  admitted : int;  (** arrivals that found an idle client (whole run) *)
  dropped : int;  (** arrivals refused because the DC was saturated *)
  abort_rate : float;
  misspec_rate : float;
  ext_misspec_rate : float;
  final_latency : Metrics.summary;  (** arrival to final commit *)
  spec_latency : Metrics.summary;
  retries : int;  (** aborted attempts inside the window *)
  peak_in_flight : int;  (** cluster-wide concurrent-transaction peak *)
  events : int;  (** simulator events processed (warmup + window) *)
  stats : Core.Stats.t;  (** counter deltas over the window *)
  wan_messages : int;
  timeseries : Obs.Timeseries.t option;
      (** standard snapshot series when [run ~timeseries_us] asked for
          one *)
  batch_flushes : int;  (** coalesced flushes emitted (whole run) *)
  batch_payloads : int;  (** logical payloads those flushes carried *)
}

(** Build the cluster, inject arrivals through warmup + measurement,
    and report.  [observer], [trace] and [timeseries_us] are those of
    {!Runner.run}; none of them changes the simulated outcome.
    @raise Invalid_argument naming the field if [clients_per_dc < 1],
    if [arrival.rate_per_dc] is not positive and finite, or as
    {!Runner.check_run_setup}. *)
val run :
  ?observer:(Core.Types.event -> unit) ->
  ?trace:Obs.Trace.t ->
  ?timeseries_us:int ->
  setup ->
  result

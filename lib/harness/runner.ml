(** Experiment runner: builds a cluster in the simulator, attaches
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
  jitter : float;
  self_tune : [ `Off | `On of int (* window_us *) ];
  fault_plan : Dsim.Fault.plan;
      (** declarative crash/partition/loss schedule, [[]] = fault-free.
          A non-empty plan installs the fault layer with the recovery
          protocol enabled; an empty one changes nothing, keeping
          fault-free runs bit-identical to a runner without the field. *)
}

let default_setup ~workload ~config =
  {
    topology = Dsim.Topology.ec2_nine;
    replication_factor = 6;
    config;
    workload;
    clients_per_node = 10;
    warmup_us = 5_000_000;
    measure_us = 10_000_000;
    seed = 1;
    jitter = 0.02;
    self_tune = `Off;
    fault_plan = [];
  }

type result = {
  duration_s : float;  (** measurement window length *)
  committed : int;
  throughput : float;  (** committed transactions per second (cluster) *)
  abort_rate : float;
  misspec_rate : float;  (** internal misspeculation share of attempts *)
  ext_misspec_rate : float;  (** Ext-Spec: externalized-then-aborted share *)
  final_latency : Metrics.summary;
  spec_latency : Metrics.summary;
  stats : Core.Stats.t;  (** deltas over the measurement window *)
  tuner_decision : bool option;
  wan_messages : int;
  timeseries : Obs.Timeseries.t option;
      (** fixed-interval snapshot series when [run ~timeseries_us] asked
          for one *)
}

(* ------------------------------------------------------------------ *)
(* Deterministic time-series sampling                                   *)
(* ------------------------------------------------------------------ *)

(** Install a fixed-interval sampler: [sample_fn ()] is evaluated at
    sim times [interval_us, 2*interval_us, ... <= until] and its rows
    are appended to the returned series.  Sampling is an ordinary
    simulator event keyed on sim time, so the series — like the trace —
    is a pure function of (configuration, seed) and byte-identical
    across [-j] workers; unlike tracing it does schedule events, so
    enabling it changes the [eq_*] queue accounting of a sealed trace
    (never the protocol outcome: samplers only read engine state). *)
let install_sampler ~sim ~interval_us ~until ~cols sample_fn =
  let ts = Obs.Timeseries.create ~interval_us ~cols in
  let rec tick t =
    Dsim.Sim.schedule_at sim ~time:t (fun () ->
        Obs.Timeseries.sample ts ~time:t (sample_fn ());
        if t + interval_us <= until then tick (t + interval_us))
  in
  if interval_us <= until then tick interval_us;
  ts

(** The standard column set: cumulative protocol counters (recover
    per-interval rates with {!Obs.Timeseries.delta}) plus the
    [spec_depth] / [eq_depth] gauges. *)
let sample_columns =
  [
    "commits";
    "ro_commits";
    "started";
    "aborts_local";
    "aborts_remote";
    "aborts_evicted";
    "aborts_dependency";
    "aborts_stale_snapshot";
    "aborts_node_failure";
    "aborts_prepare_timeout";
    "spec_commits";
    "ext_misspec";
    "spec_depth";
    "eq_depth";
    "batch_flushes";
    "batch_payloads";
    "net_messages";
  ]

let standard_sample ~sim ~net ~eng () =
  let s = Core.Engine.total_stats eng in
  [|
    s.Core.Stats.commits;
    s.Core.Stats.read_only_commits;
    s.Core.Stats.started;
    s.Core.Stats.aborts_local;
    s.Core.Stats.aborts_remote;
    s.Core.Stats.aborts_evicted;
    s.Core.Stats.aborts_dependency;
    s.Core.Stats.aborts_stale_snapshot;
    s.Core.Stats.aborts_node_failure;
    s.Core.Stats.aborts_prepare_timeout;
    s.Core.Stats.spec_commits;
    s.Core.Stats.ext_misspec;
    Core.Engine.live_spec_depth eng;
    Dsim.Sim.pending sim;
    Core.Engine.batch_flushes eng;
    Core.Engine.batch_payloads eng;
    Dsim.Network.messages_sent net;
  |]

let standard_series ?timeseries_us ~sim ~net ~eng ~until () =
  match timeseries_us with
  | Some interval_us when interval_us > 0 ->
    Some
      (install_sampler ~sim ~interval_us ~until ~cols:sample_columns
         (standard_sample ~sim ~net ~eng))
  | Some _ | None -> None

(** Reject a malformed run set-up before anything is built; the
    message names the offending field.  [who] is the caller. *)
let check_run_setup ~who ~topology ~replication_factor ~warmup_us ~measure_us ~jitter =
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg (who ^ ": " ^ m)) fmt in
  if warmup_us < 0 then fail "warmup_us %d is negative" warmup_us;
  if measure_us < 0 then fail "measure_us %d is negative" measure_us;
  let dcs = Dsim.Topology.size topology in
  if replication_factor < 1 || replication_factor > dcs then
    fail "replication_factor %d is outside 1..%d" replication_factor dcs;
  if not (jitter >= 0. && jitter < 1.) then fail "jitter %g is outside [0, 1)" jitter

let make_cluster ?trace ?queue ~topology ~replication_factor ~config ~seed ~jitter () =
  let sim = Dsim.Sim.create ?queue () in
  let dcs = Dsim.Topology.size topology in
  let node_dc = Array.init dcs (fun i -> i) in
  let rng = Dsim.Rng.create ~seed in
  let net =
    Dsim.Network.create ~sim ~topology ~node_dc ~jitter ~rng:(Dsim.Rng.split rng)
  in
  let placement = Store.Placement.ring ~n_nodes:dcs ~replication_factor () in
  let eng =
    Core.Engine.create ~sim ~net ~placement ~config ~seed:(Dsim.Rng.next rng) ?trace ()
  in
  (sim, net, placement, eng, rng)

let build_cluster ?trace setup =
  make_cluster ?trace ~topology:setup.topology
    ~replication_factor:setup.replication_factor ~config:setup.config ~seed:setup.seed
    ~jitter:setup.jitter ()

(** Inter-DC RTT extremes of the topology (the convoy-effect report in
    [trace_stats] compares lock hold times against these). *)
let interdc_rtt_range topology =
  let dcs = Dsim.Topology.size topology in
  let lo = ref max_int and hi = ref 0 in
  for a = 0 to dcs - 1 do
    for b = a + 1 to dcs - 1 do
      let r = Dsim.Topology.rtt_us topology a b in
      if r < !lo then lo := r;
      if r > !hi then hi := r
    done
  done;
  if !lo > !hi then (0, 0) else (!lo, !hi)

let snapshot_stats eng =
  Core.Stats.copy (Core.Engine.total_stats eng)

let delta_stats ~at_start ~at_end = Core.Stats.diff at_end at_start

let run_window ?(at_window_end = ignore) ~sim ~net ~eng ~measure_from ~measure_to () =
  let ev_warm = Dsim.Sim.run ~until:measure_from sim in
  let stats0 = snapshot_stats eng in
  Dsim.Network.reset_counters net;
  let ev_meas = Dsim.Sim.run ~until:measure_to sim in
  let stats1 = snapshot_stats eng in
  at_window_end ();
  (* Let in-flight transactions drain briefly so late commits stop
     mutating state mid-report (they are outside the window anyway). *)
  ignore (Dsim.Sim.run ~until:(measure_to + 200_000) sim);
  (ev_warm + ev_meas, delta_stats ~at_start:stats0 ~at_end:stats1)

let seal_trace ?fault ?timeseries tr ~sim ~net ~eng ~topology ~committed =
  if Obs.Trace.enabled tr then begin
    (* Close spans of transactions still in flight when the run stopped,
       and attach the run-summary counters the [trace_stats] report
       reads back. *)
    Obs.Trace.close_open_spans tr ~t1:(Dsim.Sim.now sim);
    let rtt_lo, rtt_hi = interdc_rtt_range topology in
    Obs.Trace.set_stat tr "interdc_rtt_min_us" rtt_lo;
    Obs.Trace.set_stat tr "interdc_rtt_max_us" rtt_hi;
    Obs.Trace.set_stat tr "commits" committed;
    Obs.Trace.set_stat tr "eq_pushes" (Dsim.Sim.queue_pushes sim);
    Obs.Trace.set_stat tr "eq_pops" (Dsim.Sim.queue_pops sim);
    Obs.Trace.set_stat tr "eq_max_depth" (Dsim.Sim.queue_max_depth sim);
    Obs.Trace.set_stat tr "net_messages" (Dsim.Network.messages_sent net);
    Obs.Trace.set_stat tr "net_wan_messages" (Dsim.Network.wan_messages net);
    Obs.Trace.set_stat tr "net_fifo_delays" (Dsim.Network.fifo_delays net);
    (* Batching-layer counters only when coalescing actually ran,
       keeping unbatched traces byte-identical to the historical ones. *)
    if Core.Engine.batch_flushes eng > 0 then begin
      Obs.Trace.set_stat tr "batch_flushes" (Core.Engine.batch_flushes eng);
      Obs.Trace.set_stat tr "batch_payloads" (Core.Engine.batch_payloads eng);
      Obs.Trace.set_stat tr "net_batches" (Dsim.Network.batches_sent net);
      let sweeps, swept, _ = Core.Engine.cert_sweep_stats eng in
      Obs.Trace.set_stat tr "cert_sweeps" sweeps;
      Obs.Trace.set_stat tr "cert_swept" swept;
      Array.iteri
        (fun i c ->
          if c > 0 then
            Obs.Trace.set_stat tr (Printf.sprintf "batch_occ_%02d" i) c)
        (Core.Engine.batch_occupancy eng)
    end;
    (match fault with
    | Some f ->
      (* Only faulted runs carry these, keeping fault-free traces
         byte-identical. *)
      Obs.Trace.set_stat tr "fault_actions" (Dsim.Fault.actions_applied f);
      Obs.Trace.set_stat tr "fault_blackholed" (Dsim.Fault.blackholed f);
      Obs.Trace.set_stat tr "fault_dropped" (Dsim.Fault.dropped f)
    | None -> ());
    (* Causal-edge volume, only when edges were recorded (v1 traces keep
       their bytes). *)
    let edges = Obs.Causal.n_edges (Obs.Trace.causal tr) in
    if edges > 0 then Obs.Trace.set_stat tr "causal_edges" edges;
    (* Seal the snapshot series so exports carry it next to the
       aggregate counters. *)
    Option.iter (Obs.Trace.set_timeseries tr) timeseries
  end

let spawn_clients setup ~eng ~rng =
  let measure_to = setup.warmup_us + setup.measure_us in
  let shared = Client.make_shared ~measure_from:setup.warmup_us ~measure_to in
  for node = 0 to Core.Engine.n_nodes eng - 1 do
    for _ = 1 to setup.clients_per_node do
      let crng = Dsim.Rng.split rng in
      (* Stagger start-up across the first 200ms. *)
      let start_delay = Dsim.Rng.int crng 200_000 in
      Client.spawn eng setup.workload ~node ~rng:crng ~shared ~stop_at:measure_to
        ~start_delay
    done
  done;
  shared

(** Run the experiment.  [observer] optionally receives every engine
    event (e.g. to feed the SPSI checker in tests); [trace] attaches a
    span recorder to the whole cluster. *)
let run ?observer ?trace ?timeseries_us setup =
  check_run_setup ~who:"Runner.run" ~topology:setup.topology
    ~replication_factor:setup.replication_factor ~warmup_us:setup.warmup_us
    ~measure_us:setup.measure_us ~jitter:setup.jitter;
  if setup.clients_per_node < 1 then invalid_arg "Runner.run: clients_per_node < 1";
  Dsim.Fault.validate ~n:(Dsim.Topology.size setup.topology) setup.fault_plan;
  let sim, net, _placement, eng, rng = build_cluster ?trace setup in
  Option.iter (Core.Engine.set_observer eng) observer;
  setup.workload.Workload.Spec.load eng;
  let measure_from = setup.warmup_us in
  let measure_to = setup.warmup_us + setup.measure_us in
  let tseries = standard_series ?timeseries_us ~sim ~net ~eng ~until:measure_to () in
  let shared = spawn_clients setup ~eng ~rng in
  let tuner =
    match setup.self_tune with
    | `Off -> None
    | `On window_us ->
      Some (Core.Self_tuning.install eng ~window_us ~warmup_us:500_000 ())
  in
  (* Declarative fault schedule: installed after the clients so the
     planned actions land behind their start-up events at equal times.
     An empty plan installs nothing at all. *)
  let fault =
    if setup.fault_plan = [] then None
    else begin
      let f = Dsim.Fault.create ~n:(Core.Engine.n_nodes eng) () in
      Core.Engine.install_fault eng f;
      Dsim.Fault.install f ~sim setup.fault_plan;
      Some f
    end
  in
  let _events, d =
    run_window ~sim ~net ~eng ~measure_from ~measure_to
      ~at_window_end:(fun () -> Option.iter Core.Self_tuning.stop tuner)
      ()
  in
  let duration_s = Dsim.Sim.to_sec setup.measure_us in
  let committed = d.Core.Stats.commits in
  Option.iter
    (seal_trace ?fault ?timeseries:tseries ~sim ~net ~eng ~topology:setup.topology
       ~committed)
    trace;
  {
    duration_s;
    committed;
    throughput = float_of_int committed /. duration_s;
    abort_rate = Core.Stats.abort_rate d;
    misspec_rate = Core.Stats.misspeculation_rate d;
    ext_misspec_rate = Core.Stats.ext_misspeculation_rate d;
    final_latency = Metrics.summarize shared.Client.final_latency;
    spec_latency = Metrics.summarize shared.Client.spec_latency;
    stats = d;
    tuner_decision = Option.bind tuner Core.Self_tuning.decision;
    wan_messages = Dsim.Network.wan_messages net;
    timeseries = tseries;
  }

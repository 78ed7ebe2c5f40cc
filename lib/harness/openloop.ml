(* Open-loop injection (interface: openloop.mli).  The closed-loop
   harness keeps one fiber per client for the whole run, which caps
   populations around 10^4.  Here the population is one idle counter
   per DC — which client serves an arrival never reaches the engine —
   and a fiber lives only while its transaction is in flight, carrying
   the program, origin DC and arrival time; live heap scales with
   offered load x latency, not with population.

   Each DC's arrival RNG draws the program before the fiber is spawned,
   then the next interarrival gap.  That order fixes the simulated
   outcome; changing it changes every result. *)

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

let default_setup ~workload ~config =
  {
    topology = Dsim.Topology.ec2_nine;
    replication_factor = 6;
    config;
    workload;
    clients_per_dc = 1_000;
    arrival = Workload.Arrival.poisson ~rate_per_dc:100.;
    warmup_us = 2_000_000;
    measure_us = 5_000_000;
    seed = 1;
    jitter = 0.02;
    queue = `Heap;
  }

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
  retries : int;
  peak_in_flight : int;
  events : int;  (** simulator events processed (warmup + window) *)
  stats : Core.Stats.t;
  wan_messages : int;
  timeseries : Obs.Timeseries.t option;
      (** standard snapshot series when [run ~timeseries_us] asked for
          one *)
  batch_flushes : int;  (** coalesced flushes emitted (whole run) *)
  batch_payloads : int;  (** logical payloads those flushes carried *)
}

let run ?observer ?trace ?timeseries_us setup =
  Runner.check_run_setup ~who:"Openloop.run" ~topology:setup.topology
    ~replication_factor:setup.replication_factor ~warmup_us:setup.warmup_us
    ~measure_us:setup.measure_us ~jitter:setup.jitter;
  if setup.clients_per_dc < 1 then invalid_arg "Openloop.run: clients_per_dc < 1";
  let rate = setup.arrival.Workload.Arrival.rate_per_dc in
  if not (Float.is_finite rate && rate > 0.) then
    invalid_arg
      (Printf.sprintf "Openloop.run: arrival.rate_per_dc %g is not positive and finite" rate);
  let sim, net, _placement, eng, rng =
    Runner.make_cluster ?trace ~queue:setup.queue ~topology:setup.topology
      ~replication_factor:setup.replication_factor ~config:setup.config
      ~seed:setup.seed ~jitter:setup.jitter ()
  in
  Option.iter (Core.Engine.set_observer eng) observer;
  setup.workload.Workload.Spec.load eng;
  let measure_from = setup.warmup_us in
  let measure_to = setup.warmup_us + setup.measure_us in
  let shared = Client.make_shared ~measure_from ~measure_to in
  let dcs = Dsim.Topology.size setup.topology in
  let idle = Array.make dcs setup.clients_per_dc in
  let admitted = ref 0 and dropped = ref 0 in
  let in_flight = ref 0 and peak_in_flight = ref 0 in
  (* --- one transaction's life (fiber per in-flight transaction) ---- *)
  let record_commit (program : Workload.Spec.program) t0 tx =
    let now = Dsim.Sim.now sim in
    if Client.in_window shared now then begin
      Metrics.record shared.Client.final_latency (now - t0);
      Metrics.record (Client.label_metrics shared program.Workload.Spec.label) (now - t0);
      match Dsim.Ivar.peek tx.Core.Types.spec_commit with
      | Some t when t >= t0 -> Metrics.record shared.Client.spec_latency (t - t0)
      | Some _ | None -> ()
    end
  in
  let execute dc (program : Workload.Spec.program) t0 =
    let rec attempt () =
      if Dsim.Sim.now sim < measure_to && Core.Engine.is_alive eng dc then begin
        let tx = Core.Engine.begin_tx eng ~origin:dc in
        match
          program.Workload.Spec.body eng tx;
          Core.Engine.commit eng tx
        with
        | _ct -> record_commit program t0 tx
        | exception Core.Types.Tx_abort _ ->
          if Client.in_window shared (Dsim.Sim.now sim) then
            shared.Client.retries <- shared.Client.retries + 1;
          attempt ()
      end
    in
    attempt ();
    idle.(dc) <- idle.(dc) + 1;
    decr in_flight
  in
  (* --- per-DC arrival chains --------------------------------------- *)
  (* One self-rescheduling closure per DC for the whole run: each firing
     admits (or drops) one arrival, then schedules itself after the next
     interarrival draw.  The chain stops issuing at [measure_to]. *)
  for dc = 0 to dcs - 1 do
    let arng = Dsim.Rng.split rng in
    let rec arrive () =
      if Dsim.Sim.now sim < measure_to then begin
        if idle.(dc) > 0 then begin
          idle.(dc) <- idle.(dc) - 1;
          let program = setup.workload.Workload.Spec.next_program arng ~node:dc in
          let t0 = Dsim.Sim.now sim in
          incr admitted;
          incr in_flight;
          if !in_flight > !peak_in_flight then peak_in_flight := !in_flight;
          Dsim.Fiber.spawn sim (fun () -> execute dc program t0)
        end
        else incr dropped;
        Dsim.Sim.schedule sim
          ~delay:(Workload.Arrival.interarrival_us setup.arrival arng)
          arrive
      end
    in
    Dsim.Sim.schedule sim ~delay:(Workload.Arrival.interarrival_us setup.arrival arng) arrive
  done;
  let tseries = Runner.standard_series ?timeseries_us ~sim ~net ~eng ~until:measure_to () in
  let events, d = Runner.run_window ~sim ~net ~eng ~measure_from ~measure_to () in
  let duration_s = Dsim.Sim.to_sec setup.measure_us in
  let completed = d.Core.Stats.commits in
  Option.iter
    (Runner.seal_trace ?timeseries:tseries ~sim ~net ~eng ~topology:setup.topology
       ~committed:completed)
    trace;
  {
    duration_s;
    clients = dcs * setup.clients_per_dc;
    completed;
    throughput = float_of_int completed /. duration_s;
    offered_per_dc = rate;
    admitted = !admitted;
    dropped = !dropped;
    abort_rate = Core.Stats.abort_rate d;
    misspec_rate = Core.Stats.misspeculation_rate d;
    ext_misspec_rate = Core.Stats.ext_misspeculation_rate d;
    final_latency = Metrics.summarize shared.Client.final_latency;
    spec_latency = Metrics.summarize shared.Client.spec_latency;
    retries = shared.Client.retries;
    peak_in_flight = !peak_in_flight;
    events;
    stats = d;
    wan_messages = Dsim.Network.wan_messages net;
    batch_flushes = Core.Engine.batch_flushes eng;
    batch_payloads = Core.Engine.batch_payloads eng;
    timeseries = tseries;
  }

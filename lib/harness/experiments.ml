(** Reproduction of every table and figure of the paper's evaluation
    (§6), plus extensions and ablations, as data.  Each table is a grid
    of independent simulation cells and one function from the swept
    [(key, result)] list to rows; {!sweep} runs the grid through
    {!Sweep} (inline by default, or on [jobs] worker processes).  Cells
    are keyed and results assembled in grid-key order, so the rendered
    report is byte-identical whatever the worker count.  [Quick] uses
    shorter windows and fewer points (CI-friendly); [Full] matches the
    experiment index in DESIGN.md. *)

type scale = Quick | Full

(* Windows per workload family.  Think-time workloads (TPC-C, RUBiS)
   need longer self-tuning windows than the zero-think synthetic ones
   (the paper samples throughput every 10 s); warmup is sized so the
   tuner's explore phase finishes before measurement starts. *)
type timing = { warmup_us : int; measure_us : int; tuner_window_us : int }

let synth_timing = function
  | Quick -> { warmup_us = 3_000_000; measure_us = 4_000_000; tuner_window_us = 1_000_000 }
  | Full -> { warmup_us = 3_000_000; measure_us = 10_000_000; tuner_window_us = 1_000_000 }

let macro_timing = function
  | Quick -> { warmup_us = 7_000_000; measure_us = 5_000_000; tuner_window_us = 2_500_000 }
  | Full -> { warmup_us = 7_000_000; measure_us = 10_000_000; tuner_window_us = 2_500_000 }

(* The protocols compared in Figs. 3, 5 and 6.  STR runs with the
   self-tuning controller, as in the paper's default setting. *)
let protagonists =
  [
    ("STR", (fun () -> Core.Config.str ()), true);
    ("ClockSI-Rep", (fun () -> Core.Config.clocksi_rep ()), false);
    ("Ext-Spec", (fun () -> Core.Config.ext_spec ()), false);
  ]

let topology = Dsim.Topology.ec2_nine
let replication_factor = 6

let placement () =
  Store.Placement.ring ~n_nodes:(Dsim.Topology.size topology)
    ~replication_factor ()

let synth params = Workload.Synthetic.make ~params (placement ())

(* The closed-loop set-up every closed-loop cell runs; the ablations
   override [topology] and [replication_factor] with [{ ... with }]. *)
let closed ~timing ?(self_tune = false) ~clients ~seed config workload =
  {
    Runner.topology;
    replication_factor;
    config;
    workload;
    clients_per_node = clients;
    warmup_us = timing.warmup_us;
    measure_us = timing.measure_us;
    seed;
    jitter = 0.02;
    self_tune = (if self_tune then `On timing.tuner_window_us else `Off);
    fault_plan = [];
  }

(* The open-loop set-up of the offered-load sweeps: Synth-A under
   Poisson arrivals at [rate] per DC, 2000 clients per DC. *)
let open_loop ~scale ~rate config =
  let timing = synth_timing scale in
  {
    Openloop.topology;
    replication_factor;
    config;
    workload = synth Workload.Synthetic.synth_a;
    clients_per_dc = 2_000;
    arrival = Workload.Arrival.poisson ~rate_per_dc:rate;
    warmup_us = timing.warmup_us;
    measure_us = timing.measure_us;
    seed = int_of_float rate + 61;
    jitter = 0.02;
    queue = `Heap;
  }

(* ------------------------------------------------------------------ *)
(* Experiments as data                                                  *)
(* ------------------------------------------------------------------ *)

(* One grid cell: its key, the name it is traced under (cells without
   one are never traced), and its simulation, given the recorder. *)
type ('k, 'r) cell = { key : 'k; trace_as : string option; run : Obs.Trace.t option -> 'r }

let cell ?trace_as key run = { key; trace_as; run }

type table =
  | Table : {
      title : string;
      headers : string list;
      cells : ('k, 'r) cell list;
      rows : ('k * 'r) list -> string list list;
    }
      -> table

let sweep ?(jobs = 1) ?tracer (Table t) =
  let report = Report.create ~title:t.title ~headers:t.headers in
  t.cells
  |> List.map (fun c ->
         (* Register with the tracer at cell construction — sequentially,
            in the parent process — so trace process ids and cell order
            never depend on the worker count.  The recorder goes to
            [Sweep.cell ?trace] too, which brings a worker's recording
            back into it. *)
         let trace =
           match (tracer, c.trace_as) with
           | Some tr, Some cell -> Tracing.trace_for tr ~cell
           | _ -> None
         in
         Sweep.cell ?trace c.key (fun () -> c.run trace))
  |> Sweep.run ~jobs
  |> t.rows
  |> List.iter (Report.add_row report);
  report

(* ------------------------------------------------------------------ *)
(* Figures 3, 5 and 6: clients per node x protagonist                   *)
(* ------------------------------------------------------------------ *)

let protocol_row ((clients, pname), (r : Runner.result)) =
  let misspec =
    if pname = "Ext-Spec" then Report.pct r.Runner.ext_misspec_rate
    else Report.pct r.Runner.misspec_rate
  in
  let spec_lat =
    if r.Runner.spec_latency.Metrics.count = 0 then "-"
    else Report.ms_of_us r.Runner.spec_latency.Metrics.p50_us
  in
  [
    string_of_int clients;
    pname;
    Report.f1 r.Runner.throughput;
    Report.pct r.Runner.abort_rate;
    misspec;
    Report.ms_of_us r.Runner.final_latency.Metrics.p50_us;
    Report.f1 (r.Runner.final_latency.Metrics.mean_us /. 1000.);
    spec_lat;
  ]

let protocol_table ~title ~timing ~workload ~clients_list ~seed_of =
  Table
    {
      title;
      headers =
        [
          "clients"; "protocol"; "thr(tx/s)"; "abort"; "misspec"; "lat-p50(ms)";
          "lat-mean(ms)"; "spec-lat(ms)";
        ];
      cells =
        Sweep.product clients_list protagonists
        |> List.map (fun (clients, (pname, mk_config, self_tune)) ->
               cell (clients, pname)
                 ~trace_as:(Printf.sprintf "clients=%d/protocol=%s" clients pname)
                 (fun trace ->
                   Runner.run ?trace
                     (closed ~timing ~self_tune ~clients ~seed:(seed_of clients)
                        (mk_config ()) (workload ()))));
      rows = List.map protocol_row;
    }

let client_sweep = function Quick -> [ 2; 10; 30 ] | Full -> [ 2; 5; 10; 20; 40; 60 ]

let fig3 which scale =
  let params, name =
    match which with
    | `A -> (Workload.Synthetic.synth_a, "Synth-A")
    | `B -> (Workload.Synthetic.synth_b, "Synth-B")
  in
  protocol_table
    ~title:
      (Printf.sprintf "Figure 3 (%s): throughput / abort rate / latency vs clients per node"
         name)
    ~timing:(synth_timing scale)
    ~workload:(fun () -> synth params)
    ~clients_list:(client_sweep scale)
    ~seed_of:(fun clients -> clients + 17)

let tpcc_clients = function Quick -> [ 60; 240 ] | Full -> [ 30; 60; 120; 240; 480 ]

let fig5 which scale =
  let mix, name =
    match which with
    | `A -> (Workload.Tpcc.mix_a, "TPC-C A (5/83/12)")
    | `B -> (Workload.Tpcc.mix_b, "TPC-C B (45/43/12)")
    | `C -> (Workload.Tpcc.mix_c, "TPC-C C (5/43/52)")
  in
  protocol_table
    ~title:(Printf.sprintf "Figure 5 (%s): new-order/payment/order-status" name)
    ~timing:(macro_timing scale)
    ~workload:(fun () -> fst (Workload.Tpcc.make ~mix (placement ())))
    ~clients_list:(tpcc_clients scale)
    ~seed_of:(fun clients -> clients + 31)

let rubis_clients = function Quick -> [ 120; 450 ] | Full -> [ 60; 120; 250; 450; 700 ]

let fig6 scale =
  (* RUBiS's interesting regime is the slow pile-up of update clients
     behind the shard-local index keys; give the full scale a longer
     measurement window so the queueing binds. *)
  let timing =
    match scale with
    | Quick -> macro_timing Quick
    | Full -> { (macro_timing Full) with measure_us = 20_000_000 }
  in
  protocol_table ~title:"Figure 6 (RUBiS, 15% update mix, 2-10s think time)" ~timing
    ~workload:(fun () -> Workload.Rubis.make (placement ()))
    ~clients_list:(rubis_clients scale)
    ~seed_of:(fun clients -> clients + 41)

(* ------------------------------------------------------------------ *)
(* Figure 4: static SR on/off vs self-tuning, normalized                *)
(* ------------------------------------------------------------------ *)

let fig4 scale =
  let points =
    Sweep.product
      [ ("Synth-A", Workload.Synthetic.synth_a); ("Synth-B", Workload.Synthetic.synth_b) ]
      (client_sweep scale)
  in
  let get results ((wname, _), clients) v = Sweep.get results (wname, clients, v) in
  Table
    {
      title =
        "Figure 4: normalized throughput of No-SR / SR / Auto (self-tuning) on \
         Synth-A and Synth-B";
      headers = [ "workload"; "clients"; "No SR"; "SR"; "Auto"; "auto picked" ];
      cells =
        Sweep.product points [ "no-sr"; "sr"; "auto" ]
        |> List.map (fun (((wname, params), clients), variant) ->
               cell (wname, clients, variant)
                 ~trace_as:
                   (Printf.sprintf "workload=%s/clients=%d/variant=%s" wname clients variant)
                 (fun trace ->
                   Runner.run ?trace
                     (closed ~timing:(synth_timing scale) ~self_tune:(variant = "auto")
                        ~clients ~seed:(clients + 23)
                        (Core.Config.str ~speculative_reads:(variant <> "no-sr") ())
                        (synth params))));
      rows =
        (fun results ->
          List.map
            (fun (((wname, _), clients) as point) ->
              let no_sr = get results point "no-sr"
              and sr = get results point "sr"
              and auto = get results point "auto" in
              let best =
                List.fold_left max 1.
                  [ no_sr.Runner.throughput; sr.Runner.throughput; auto.Runner.throughput ]
              in
              let norm r = Report.f2 (r.Runner.throughput /. best) in
              [
                wname;
                string_of_int clients;
                norm no_sr;
                norm sr;
                norm auto;
                (match auto.Runner.tuner_decision with
                | Some true -> "SR"
                | Some false -> "No SR"
                | None -> "?");
              ])
            points);
    }

(* ------------------------------------------------------------------ *)
(* Table 1: Physical/Precise clocks x speculative reads                 *)
(* ------------------------------------------------------------------ *)

(* Moderately contended base workload; contention is held constant as
   transactions grow by scaling the key space by the same factor. *)
let table1_base =
  { Workload.Synthetic.default with local_hot = 2; remote_hot = 40; remote_access_prob = 0.3 }

let table1_variants =
  [
    ("Physical", fun () -> Core.Config.physical ());
    ("Precise", fun () -> Core.Config.precise ());
    ("Physical SR", fun () -> Core.Config.physical_sr ());
    ("Precise SR", fun () -> Core.Config.precise_sr ());
  ]

let table1 scale =
  let keys = match scale with Quick -> [ 10; 40 ] | Full -> [ 10; 20; 40; 100 ] in
  Table
    {
      title =
        "Table 1: normalized throughput / abort rate, varying keys updated per \
         transaction";
      headers = "technique" :: List.map (fun k -> Printf.sprintf "%d keys" k) keys;
      cells =
        Sweep.product keys table1_variants
        |> List.map (fun (nkeys, (vname, mk_config)) ->
               cell (nkeys, vname)
                 ~trace_as:(Printf.sprintf "keys=%d/technique=%s" nkeys vname)
                 (fun trace ->
                   Runner.run ?trace
                     (closed ~timing:(synth_timing scale) ~clients:10 ~seed:(nkeys + 3)
                        (mk_config ())
                        (synth (Workload.Synthetic.scale_keys table1_base (nkeys / 10))))));
      rows =
        (fun results ->
          List.map
            (fun (vname, _) ->
              vname
              :: List.map
                   (fun nkeys ->
                     let baseline =
                       Float.max (Sweep.get results (nkeys, "Physical")).Runner.throughput
                         0.001
                     in
                     let r = Sweep.get results (nkeys, vname) in
                     Printf.sprintf "%s/%s"
                       (Report.f2 (r.Runner.throughput /. baseline))
                       (Report.pct r.Runner.abort_rate))
                   keys)
            table1_variants);
    }

(* ------------------------------------------------------------------ *)
(* §6.1 Precise Clocks storage overhead                                 *)
(* ------------------------------------------------------------------ *)

let storage scale =
  let breakdown ~clients workload =
    let setup =
      closed ~timing:(macro_timing scale) ~clients ~seed:5 (Core.Config.str ()) workload
    in
    let sim, _net, _pl, eng, rng = Runner.build_cluster setup in
    workload.Workload.Spec.load eng;
    ignore (Runner.spawn_clients setup ~eng ~rng);
    ignore (Dsim.Sim.run ~until:(setup.Runner.warmup_us + setup.Runner.measure_us) sim);
    Core.Engine.storage_breakdown eng
  in
  Table
    {
      title = "Precise Clocks storage overhead (paper: ~9% on TPC-C/RUBiS)";
      headers = [ "benchmark"; "data (KiB)"; "LastReader metadata (KiB)"; "overhead" ];
      cells =
        [
          cell "TPC-C" (fun _ ->
              breakdown ~clients:60 (fst (Workload.Tpcc.make (placement ()))));
          cell "RUBiS" (fun _ -> breakdown ~clients:120 (Workload.Rubis.make (placement ())));
        ];
      rows =
        List.map (fun (name, (data, meta)) ->
            [
              name;
              string_of_int (data / 1024);
              string_of_int (meta / 1024);
              Report.pct (float_of_int meta /. float_of_int (max 1 data));
            ]);
    }

(* ------------------------------------------------------------------ *)
(* Region failure: goodput timeline through crash and recovery          *)
(* ------------------------------------------------------------------ *)

(** Goodput and externalized-misspeculation timeline under a region
    failure (§5.6): one DC crash-stops mid-run, the cluster fails over
    (promoted masters, read fail-over, recovery protocol holding its
    prepares in doubt), then the DC restarts from persistent state,
    catches up and re-resolves.  Every protagonist runs with the
    recovery protocol on ({!Core.Config.with_recovery}) and self-tuning
    off, so the timeline shows the protocols — not the controller —
    reacting to the failure.  Rows are bucket-major so the three
    protocols line up per time slice; [in-doubt] counts the prepares the
    recovery path resolved (commit/abort) so far. *)
let region_failure scale =
  let bucket_us = 500_000 in
  let n_buckets = match scale with Quick -> 12 | Full -> 16 in
  let victim = 3 in
  let run mk_config =
    let setup =
      {
        (closed
           ~timing:{ warmup_us = 0; measure_us = n_buckets * bucket_us; tuner_window_us = 0 }
           ~clients:10 ~seed:11
           (Core.Config.with_recovery (mk_config ()))
           (synth Workload.Synthetic.synth_a))
        with
        fault_plan =
          [ (2_000_000, Dsim.Fault.Crash victim); (4_000_000, Dsim.Fault.Recover victim) ];
      }
    in
    let sim, _net, _pl, eng, rng = Runner.build_cluster setup in
    setup.Runner.workload.Workload.Spec.load eng;
    ignore (Runner.spawn_clients setup ~eng ~rng);
    let fault = Dsim.Fault.create ~n:(Core.Engine.n_nodes eng) () in
    Core.Engine.install_fault eng fault;
    Dsim.Fault.install fault ~sim setup.Runner.fault_plan;
    (* The timeline is an ordinary {!Obs.Timeseries} sampled in-run —
       the commits column is cumulative ([delta] recovers per-bucket
       goodput), the [alive] column is a 0/1 gauge on the victim. *)
    let stop_at = setup.Runner.measure_us in
    let ts =
      Runner.install_sampler ~sim ~interval_us:bucket_us ~until:stop_at
        ~cols:[ "commits"; "ext_misspec"; "in_doubt_commits"; "in_doubt_aborts"; "alive" ]
        (fun () ->
          let s = Core.Engine.total_stats eng in
          [|
            s.Core.Stats.commits;
            s.Core.Stats.ext_misspec;
            s.Core.Stats.in_doubt_commits;
            s.Core.Stats.in_doubt_aborts;
            (if Core.Engine.is_alive eng victim then 1 else 0);
          |])
    in
    ignore (Dsim.Sim.run ~until:stop_at sim);
    ts
  in
  Table
    {
      title =
        Printf.sprintf
          "Region failure: DC %d crashes at 2.0s, recovers at 4.0s (Synth-A, 10 \
           clients/node)"
          victim;
      headers = [ "t(s)"; "protocol"; "goodput(tx/s)"; "ext-misspec"; "in-doubt(c/a)"; "DC3" ];
      cells =
        List.map (fun (pname, mk_config, _tune) -> cell pname (fun _ -> run mk_config))
          protagonists;
      rows =
        (fun results ->
          let series =
            List.map (fun (pname, ts) -> (pname, ts, Obs.Timeseries.delta ts ~col:0)) results
          in
          List.init n_buckets (fun b ->
              List.map
                (fun (pname, ts, goodput) ->
                  [
                    Report.f1 (float_of_int (Obs.Timeseries.time ts b) /. 1_000_000.);
                    pname;
                    Report.f1
                      (float_of_int goodput.(b) /. (float_of_int bucket_us /. 1_000_000.));
                    string_of_int (Obs.Timeseries.value ts ~row:b ~col:1);
                    Printf.sprintf "%d/%d"
                      (Obs.Timeseries.value ts ~row:b ~col:2)
                      (Obs.Timeseries.value ts ~row:b ~col:3);
                    (if Obs.Timeseries.value ts ~row:b ~col:4 = 1 then "up" else "DOWN");
                  ])
                series)
          |> List.concat);
    }

(* ------------------------------------------------------------------ *)
(* Open-loop: latency vs offered load                                   *)
(* ------------------------------------------------------------------ *)

let openloop_rates = function
  | Quick -> [ 100.; 400.; 1600. ]
  | Full -> [ 100.; 200.; 400.; 800.; 1600.; 3200. ]

(** Latency vs offered load under open-loop injection ({!Openloop}):
    the arrival rate is fixed per cell, so when a protocol saturates,
    the cliff shows up as latency (and dropped arrivals) instead of the
    closed-loop harness's silent self-throttling.  Self-tuning is off
    for all protocols — the controller reacts to closed-loop client
    pressure, which open-loop injection bypasses. *)
let openloop_load scale =
  Table
    {
      title =
        "Open-loop: latency vs offered load (Synth-A, Poisson arrivals, 2000 \
         clients/DC)";
      headers =
        [
          "offered(tx/s/DC)"; "protocol"; "thr(tx/s)"; "dropped"; "abort";
          "lat-p50(ms)"; "lat-mean(ms)"; "lat-p99(ms)";
        ];
      cells =
        Sweep.product (openloop_rates scale) protagonists
        |> List.map (fun (rate, (pname, mk_config, _tune)) ->
               cell (int_of_float rate, pname) (fun _ ->
                   Openloop.run (open_loop ~scale ~rate (mk_config ()))));
      rows =
        List.map (fun ((rate, pname), r) ->
            let arrivals = r.Openloop.admitted + r.Openloop.dropped in
            [
              string_of_int rate;
              pname;
              Report.f1 r.Openloop.throughput;
              Report.pct (float_of_int r.Openloop.dropped /. float_of_int (max 1 arrivals));
              Report.pct r.Openloop.abort_rate;
              Report.ms_of_us r.Openloop.final_latency.Metrics.p50_us;
              Report.f1 (r.Openloop.final_latency.Metrics.mean_us /. 1000.);
              Report.ms_of_us r.Openloop.final_latency.Metrics.p99_us;
            ]);
    }

(* ------------------------------------------------------------------ *)
(* Batching: batch window x offered load                                *)
(* ------------------------------------------------------------------ *)

let batch_windows = function Quick -> [ 0; 300 ] | Full -> [ 0; 100; 300; 1_000 ]
let batch_rates = function Quick -> [ 400.; 1_600. ] | Full -> [ 200.; 800.; 1_600.; 3_200. ]

(** Queue-oriented speculative batching: committed throughput and
    latency as the coalescing window sweeps against offered load, under
    open-loop injection on STR/Synth-A.  All cells (including window 0,
    the unbatched baseline) charge the same per-wire-message dispatch
    overhead [cost_msg], so the comparison isolates what coalescing
    amortizes: at high offered load a window trades a bounded latency
    hold for one dispatch header per flush instead of one per payload. *)
let batch_load scale =
  Table
    {
      title =
        "Batching: throughput vs batch window x offered load (STR, Synth-A, open \
         loop, cost_msg=20us)";
      headers =
        [
          "offered(tx/s/DC)"; "window(us)"; "thr(tx/s)"; "abort"; "lat-p50(ms)";
          "lat-p99(ms)"; "batches"; "payload/flush";
        ];
      cells =
        Sweep.product (batch_rates scale) (batch_windows scale)
        |> List.map (fun (rate, window) ->
               cell (int_of_float rate, window) (fun _ ->
                   Openloop.run
                     (open_loop ~scale ~rate
                        (Core.Config.with_batching ~batch_window_us:window ~batch_max:16
                           ~cost_msg:20 (Core.Config.str ())))));
      rows =
        List.map (fun ((rate, window), r) ->
            [
              string_of_int rate;
              string_of_int window;
              Report.f1 r.Openloop.throughput;
              Report.pct r.Openloop.abort_rate;
              Report.ms_of_us r.Openloop.final_latency.Metrics.p50_us;
              Report.ms_of_us r.Openloop.final_latency.Metrics.p99_us;
              string_of_int r.Openloop.batch_flushes;
              (if r.Openloop.batch_flushes = 0 then "-"
               else
                 Report.f1
                   (float_of_int r.Openloop.batch_payloads
                   /. float_of_int r.Openloop.batch_flushes));
            ]);
    }

(* ------------------------------------------------------------------ *)
(* Ablations (beyond the paper's artifacts)                             *)
(* ------------------------------------------------------------------ *)

let str_vs_clocksi =
  [
    ("STR", fun () -> Core.Config.str ());
    ("ClockSI-Rep", fun () -> Core.Config.clocksi_rep ());
  ]

(* STR against ClockSI-Rep on Synth-A at 20 clients/node, at each point
   of one deployment parameter: [deployment p] gives the topology and
   replication factor of point [p], which also seeds the run.  [row]
   renders a point from the STR run and the compared columns. *)
let deployment_table ~title ~headers ~points ~deployment ~row scale =
  let run p config =
    let topology, replication_factor = deployment p in
    let placement =
      Store.Placement.ring ~n_nodes:(Dsim.Topology.size topology) ~replication_factor ()
    in
    Runner.run
      {
        (closed ~timing:(synth_timing scale) ~clients:20 ~seed:p config
           (Workload.Synthetic.make ~params:Workload.Synthetic.synth_a placement))
        with
        topology;
        replication_factor;
      }
  in
  Table
    {
      title;
      headers;
      cells =
        Sweep.product points str_vs_clocksi
        |> List.map (fun (p, (pname, mk_config)) ->
               cell (p, pname) (fun _ -> run p (mk_config ())));
      rows =
        (fun results ->
          List.map
            (fun p ->
              let str = Sweep.get results (p, "STR")
              and base = Sweep.get results (p, "ClockSI-Rep") in
              row p str
                [
                  Report.f1 str.Runner.throughput;
                  Report.f1 base.Runner.throughput;
                  Report.f2 (str.Runner.throughput /. Float.max 0.001 base.Runner.throughput);
                ])
            points);
    }

(** Geo-scale ablation: STR's gain over ClockSI-Rep as the deployment
    grows from 3 to the paper's 9 data centers (the paper evaluates "on
    up to nine geo-distributed EC2 data centers"). *)
let ablation_dcs scale =
  deployment_table ~title:"Ablation: data-center count (Synth-A, 20 clients/node)"
    ~headers:[ "DCs"; "rf"; "STR (tx/s)"; "ClockSI (tx/s)"; "speedup"; "STR lat-p50(ms)" ]
    ~points:(match scale with Quick -> [ 3; 9 ] | Full -> [ 3; 5; 7; 9 ])
    ~deployment:(fun dcs -> (Dsim.Topology.ec2_prefix dcs, min 6 dcs))
    ~row:(fun dcs str compared ->
      (string_of_int dcs :: string_of_int (min 6 dcs) :: compared)
      @ [ Report.ms_of_us str.Runner.final_latency.Metrics.p50_us ])
    scale

(** Replication-factor ablation: more slave replicas stretch the
    certification (longer pre-commit locks), which is exactly where
    speculative reads pay off. *)
let ablation_rf scale =
  deployment_table ~title:"Ablation: replication factor (Synth-A, 20 clients/node)"
    ~headers:[ "rf"; "STR (tx/s)"; "ClockSI (tx/s)"; "speedup" ]
    ~points:(match scale with Quick -> [ 2; 6 ] | Full -> [ 2; 3; 4; 6 ])
    ~deployment:(fun rf -> (topology, rf))
    ~row:(fun rf _ compared -> string_of_int rf :: compared)
    scale

(* Rows of the two ablations below: one per cell, the cell's two key
   labels first. *)
let labelled_row ((a, b), r) =
  [
    a;
    b;
    Report.f1 r.Runner.throughput;
    Report.pct r.Runner.abort_rate;
    Report.ms_of_us r.Runner.final_latency.Metrics.p50_us;
  ]

(** Remote-access modeling ablation: reading the remote keys (instead of
    blind-writing them) stretches the execution phase by WAN round
    trips; see DESIGN.md §4b. *)
let ablation_remote_reads scale =
  Table
    {
      title = "Ablation: remote keys blind-written vs read-modify-written (Synth-A)";
      headers = [ "remote keys"; "protocol"; "thr(tx/s)"; "abort"; "lat-p50(ms)" ];
      cells =
        Sweep.product [ ("blind-write", false); ("read-modify-write", true) ] str_vs_clocksi
        |> List.map (fun ((label, rr), (pname, mk_config)) ->
               cell (label, pname) (fun _ ->
                   Runner.run
                     (closed ~timing:(synth_timing scale) ~clients:10 ~seed:3 (mk_config ())
                        (synth
                           { Workload.Synthetic.synth_a with read_remote_keys = rr }))));
      rows = List.map labelled_row;
    }

(* 8 reads over a 64-key shared local range, 2 of them updated. *)
let read_heavy () =
  let next_program rng ~node =
    let picks =
      List.init 8 (fun _ ->
          Workload.Synthetic.local_key ~partition:node (Dsim.Rng.int rng 64))
    in
    let updates = List.filteri (fun i _ -> i < 2) picks in
    {
      Workload.Spec.label = "read-heavy";
      read_only = false;
      think_us = 0;
      body =
        (fun eng tx ->
          List.iter (fun k -> ignore (Core.Engine.read eng tx k)) picks;
          List.iter
            (fun k ->
              let v = Workload.Spec.read_int eng tx k in
              Core.Engine.write eng tx k (Store.Keyspace.Value.Int (v + 1)))
            updates);
    }
  in
  { Workload.Spec.name = "read-heavy"; load = (fun _ -> ()); next_program }

(** Future-work extension (§7): STR under Serializability (read
    promotion) vs under SI.  TPC-C's update transactions write everything
    they read, so promotion is a no-op there; this workload reads eight
    keys from a shared hot range but updates only two, which is where
    the stronger criterion starts charging: promoted reads certify (and
    conflict) like writes. *)
let ablation_serializability scale =
  let clients_list = match scale with Quick -> [ 10 ] | Full -> [ 5; 10; 20 ] in
  let isolations =
    [
      ("SI (STR)", fun () -> Core.Config.str ());
      ("Serializable (STR)", fun () -> Core.Config.str_serializable ());
    ]
  in
  Table
    {
      title =
        "Extension: STR under SI vs Serializable (read promotion), read-heavy update \
         workload";
      headers = [ "isolation"; "clients"; "thr(tx/s)"; "abort"; "lat-p50(ms)" ];
      cells =
        Sweep.product clients_list isolations
        |> List.map (fun (clients, (name, mk_config)) ->
               cell (name, string_of_int clients) (fun _ ->
                   Runner.run
                     (closed ~timing:(synth_timing scale) ~clients ~seed:(clients + 51)
                        (mk_config ()) (read_heavy ()))));
      rows = List.map labelled_row;
    }

(* ------------------------------------------------------------------ *)
(* The registry                                                         *)
(* ------------------------------------------------------------------ *)

type experiment = {
  name : string;
  doc : string;
  traced : bool;
  tables : (scale -> table) list;
}

let run ?jobs ?tracer ~scale e =
  List.map (fun table -> sweep ?jobs ?tracer (table scale)) e.tables

let registry =
  let e ?(traced = false) name doc tables = { name; doc; traced; tables } in
  let each =
    [
      e ~traced:true "fig3a" "Figure 3(a): Synth-A" [ fig3 `A ];
      e ~traced:true "fig3b" "Figure 3(b): Synth-B" [ fig3 `B ];
      e ~traced:true "fig4" "Figure 4: self-tuning" [ fig4 ];
      e ~traced:true "table1" "Table 1: Precise Clocks ablation" [ table1 ];
      e ~traced:true "fig5a" "Figure 5: TPC-C mix A" [ fig5 `A ];
      e ~traced:true "fig5b" "Figure 5: TPC-C mix B" [ fig5 `B ];
      e ~traced:true "fig5c" "Figure 5: TPC-C mix C" [ fig5 `C ];
      e ~traced:true "fig6" "Figure 6: RUBiS" [ fig6 ];
      e "storage" "Precise Clocks storage overhead" [ storage ];
      e "failover"
        "Region failure: goodput and externalized misspeculation through a DC crash \
         and recovery"
        [ region_failure ];
      e "openloop" "Open-loop latency vs offered load (STR vs baselines)" [ openloop_load ];
      e "batchfig" "Queue-oriented batching: throughput vs batch window x offered load"
        [ batch_load ];
      e "ablations" "Extra ablations (DC count, replication factor, remote reads)"
        [ ablation_dcs; ablation_rf; ablation_remote_reads; ablation_serializability ];
    ]
  in
  each @ [ e "all" "All tables and figures" (List.concat_map (fun x -> x.tables) each) ]

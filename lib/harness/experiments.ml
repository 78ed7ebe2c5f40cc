(** Reproduction of every table and figure of the paper's evaluation
    (§6).  Each function enumerates the corresponding parameter sweep as
    a grid of independent simulation cells, executes them through
    {!Sweep} (inline by default, or on [jobs] worker processes),
    and renders a table with the same rows/series the paper plots.
    Cells are keyed and results assembled in grid-key order, so the
    rendered report is byte-identical whatever the worker count.
    [Quick] uses shorter windows and fewer points (CI-friendly);
    [Full] matches the experiment index in DESIGN.md. *)

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

let run_protocol ?trace ~timing ~workload_of ~clients ~config ~self_tune ~seed () =
  let setup =
    {
      Runner.topology;
      replication_factor;
      config;
      workload = workload_of (placement ());
      clients_per_node = clients;
      warmup_us = timing.warmup_us;
      measure_us = timing.measure_us;
      seed;
      jitter = 0.02;
      self_tune = (if self_tune then `On timing.tuner_window_us else `Off);
      fault_plan = [];
    }
  in
  Runner.run ?trace setup

(* Register a cell with the tracer (when there is one) at {e cell
   construction} time — sequentially, in the parent process — so trace
   process ids and cell order never depend on the worker count.  The
   recorder goes to [Sweep.cell ?trace] too, which brings a worker's
   recording back into it. *)
let cell_trace tracer name =
  match tracer with None -> None | Some t -> Tracing.trace_for t ~cell:name

(* Shared row shape of Figs. 3, 5 and 6: one row per (clients, protocol)
   cell of the grid. *)
let protocol_row ~clients ~pname (r : Runner.result) =
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

(* Grid of Figs. 3, 5 and 6: clients-per-node x protagonist. *)
let protocol_sweep ?tracer ~jobs ~timing ~workload_of ~clients_list ~seed_of report =
  Sweep.product clients_list protagonists
  |> List.map (fun (clients, (pname, mk_config, tune)) ->
         let trace =
           cell_trace tracer (Printf.sprintf "clients=%d/protocol=%s" clients pname)
         in
         Sweep.cell ?trace (clients, pname)
           (run_protocol ?trace ~timing ~workload_of ~clients ~config:(mk_config ())
              ~self_tune:tune ~seed:(seed_of clients)))
  |> Sweep.run ~jobs
  |> List.iter (fun ((clients, pname), r) ->
         Report.add_row report (protocol_row ~clients ~pname r));
  report

(* ------------------------------------------------------------------ *)
(* Figure 3: synthetic workloads, three protocols                       *)
(* ------------------------------------------------------------------ *)

let client_sweep = function Quick -> [ 2; 10; 30 ] | Full -> [ 2; 5; 10; 20; 40; 60 ]

let fig3 ?(jobs = 1) ?tracer ~scale which =
  let params, name =
    match which with
    | `A -> (Workload.Synthetic.synth_a, "Synth-A")
    | `B -> (Workload.Synthetic.synth_b, "Synth-B")
  in
  let report =
    Report.create
      ~title:
        (Printf.sprintf
           "Figure 3 (%s): throughput / abort rate / latency vs clients per node" name)
      ~headers:
        [
          "clients"; "protocol"; "thr(tx/s)"; "abort"; "misspec"; "lat-p50(ms)";
          "lat-mean(ms)"; "spec-lat(ms)";
        ]
  in
  protocol_sweep ?tracer ~jobs ~timing:(synth_timing scale)
    ~workload_of:(fun pl -> Workload.Synthetic.make ~params pl)
    ~clients_list:(client_sweep scale)
    ~seed_of:(fun clients -> clients + 17)
    report

(* ------------------------------------------------------------------ *)
(* Figure 4: static SR on/off vs self-tuning, normalized                *)
(* ------------------------------------------------------------------ *)

let fig4 ?(jobs = 1) ?tracer ~scale () =
  let report =
    Report.create
      ~title:
        "Figure 4: normalized throughput of No-SR / SR / Auto (self-tuning) on \
         Synth-A and Synth-B"
      ~headers:[ "workload"; "clients"; "No SR"; "SR"; "Auto"; "auto picked" ]
  in
  let workloads =
    [ ("Synth-A", Workload.Synthetic.synth_a); ("Synth-B", Workload.Synthetic.synth_b) ]
  in
  let variants = [ "no-sr"; "sr"; "auto" ] in
  let results =
    Sweep.product3 workloads (client_sweep scale) variants
    |> List.map (fun ((wname, params), clients, variant) ->
           let sr = variant <> "no-sr" and tune = variant = "auto" in
           let trace =
             cell_trace tracer
               (Printf.sprintf "workload=%s/clients=%d/variant=%s" wname clients variant)
           in
           Sweep.cell ?trace (wname, clients, variant)
             (run_protocol ?trace ~timing:(synth_timing scale)
                ~workload_of:(fun pl -> Workload.Synthetic.make ~params pl)
                ~clients
                ~config:(Core.Config.str ~speculative_reads:sr ())
                ~self_tune:tune ~seed:(clients + 23)))
    |> Sweep.run ~jobs
  in
  List.iter
    (fun ((wname, _), clients) ->
      let variant v = Sweep.get results (wname, clients, v) in
      let no_sr = variant "no-sr" and sr = variant "sr" and auto = variant "auto" in
      let best =
        List.fold_left max 1.
          [ no_sr.Runner.throughput; sr.Runner.throughput; auto.Runner.throughput ]
      in
      let norm r = Report.f2 (r.Runner.throughput /. best) in
      Report.add_row report
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
    (Sweep.product workloads (client_sweep scale));
  report

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

let table1 ?(jobs = 1) ?tracer ~scale () =
  let keys = match scale with Quick -> [ 10; 40 ] | Full -> [ 10; 20; 40; 100 ] in
  let clients = match scale with Quick -> 10 | Full -> 10 in
  let report =
    Report.create
      ~title:
        "Table 1: normalized throughput / abort rate, varying keys updated per \
         transaction"
      ~headers:("technique" :: List.map (fun k -> Printf.sprintf "%d keys" k) keys)
  in
  let results =
    Sweep.product keys table1_variants
    |> List.map (fun (nkeys, (vname, mk_config)) ->
           let factor = nkeys / 10 in
           let params = Workload.Synthetic.scale_keys table1_base factor in
           let trace =
             cell_trace tracer (Printf.sprintf "keys=%d/technique=%s" nkeys vname)
           in
           Sweep.cell ?trace (nkeys, vname)
             (run_protocol ?trace ~timing:(synth_timing scale)
                ~workload_of:(fun pl -> Workload.Synthetic.make ~params pl)
                ~clients ~config:(mk_config ()) ~self_tune:false ~seed:(nkeys + 3)))
    |> Sweep.run ~jobs
  in
  let columns =
    List.map
      (fun nkeys ->
        let baseline =
          Float.max (Sweep.get results (nkeys, "Physical")).Runner.throughput 0.001
        in
        List.map
          (fun (vname, _) ->
            let r = Sweep.get results (nkeys, vname) in
            ( vname,
              Printf.sprintf "%s/%s"
                (Report.f2 (r.Runner.throughput /. baseline))
                (Report.pct r.Runner.abort_rate) ))
          table1_variants)
      keys
  in
  List.iter
    (fun (vname, _) ->
      let cells =
        List.map (fun col -> match List.assoc_opt vname col with Some c -> c | None -> "-")
          columns
      in
      Report.add_row report (vname :: cells))
    table1_variants;
  report

(* ------------------------------------------------------------------ *)
(* Figure 5: TPC-C mixes A, B, C                                        *)
(* ------------------------------------------------------------------ *)

let tpcc_clients = function Quick -> [ 60; 240 ] | Full -> [ 30; 60; 120; 240; 480 ]

let fig5 ?(jobs = 1) ?tracer ~scale which =
  let mix, name =
    match which with
    | `A -> (Workload.Tpcc.mix_a, "TPC-C A (5/83/12)")
    | `B -> (Workload.Tpcc.mix_b, "TPC-C B (45/43/12)")
    | `C -> (Workload.Tpcc.mix_c, "TPC-C C (5/43/52)")
  in
  let report =
    Report.create
      ~title:(Printf.sprintf "Figure 5 (%s): new-order/payment/order-status" name)
      ~headers:
        [
          "clients"; "protocol"; "thr(tx/s)"; "abort"; "misspec"; "lat-p50(ms)";
          "lat-mean(ms)"; "spec-lat(ms)";
        ]
  in
  protocol_sweep ?tracer ~jobs ~timing:(macro_timing scale)
    ~workload_of:(fun pl -> fst (Workload.Tpcc.make ~mix pl))
    ~clients_list:(tpcc_clients scale)
    ~seed_of:(fun clients -> clients + 31)
    report

(* ------------------------------------------------------------------ *)
(* Figure 6: RUBiS                                                      *)
(* ------------------------------------------------------------------ *)

let rubis_clients = function Quick -> [ 120; 450 ] | Full -> [ 60; 120; 250; 450; 700 ]

let fig6 ?(jobs = 1) ?tracer ~scale () =
  (* RUBiS's interesting regime is the slow pile-up of update clients
     behind the shard-local index keys; give the full scale a longer
     measurement window so the queueing binds. *)
  let timing =
    match scale with
    | Quick -> macro_timing Quick
    | Full -> { (macro_timing Full) with measure_us = 20_000_000 }
  in
  let report =
    Report.create
      ~title:"Figure 6 (RUBiS, 15% update mix, 2-10s think time)"
      ~headers:
        [
          "clients"; "protocol"; "thr(tx/s)"; "abort"; "misspec"; "lat-p50(ms)";
          "lat-mean(ms)"; "spec-lat(ms)";
        ]
  in
  protocol_sweep ?tracer ~jobs ~timing
    ~workload_of:(fun pl -> Workload.Rubis.make pl)
    ~clients_list:(rubis_clients scale)
    ~seed_of:(fun clients -> clients + 41)
    report

(* ------------------------------------------------------------------ *)
(* §6.1 Precise Clocks storage overhead                                 *)
(* ------------------------------------------------------------------ *)

let storage ?(jobs = 1) ~scale () =
  let report =
    Report.create ~title:"Precise Clocks storage overhead (paper: ~9% on TPC-C/RUBiS)"
      ~headers:[ "benchmark"; "data (KiB)"; "LastReader metadata (KiB)"; "overhead" ]
  in
  let measure workload_of clients () =
    let { warmup_us; measure_us; _ } = macro_timing scale in
    let setup =
      {
        Runner.topology;
        replication_factor;
        config = Core.Config.str ();
        workload = workload_of (placement ());
        clients_per_node = clients;
        warmup_us;
        measure_us;
        seed = 5;
        jitter = 0.02;
        self_tune = `Off;
        fault_plan = [];
      }
    in
    let sim, _net, _pl, eng, rng = Runner.build_cluster setup in
    setup.Runner.workload.Workload.Spec.load eng;
    let shared =
      Client.make_shared ~measure_from:0 ~measure_to:(warmup_us + measure_us)
    in
    for node = 0 to Core.Engine.n_nodes eng - 1 do
      for _ = 1 to clients do
        let crng = Dsim.Rng.split rng in
        Client.spawn eng setup.Runner.workload ~node ~rng:crng ~shared
          ~stop_at:(warmup_us + measure_us) ~start_delay:(Dsim.Rng.int crng 200_000)
      done
    done;
    ignore (Dsim.Sim.run ~until:(warmup_us + measure_us) sim);
    Core.Engine.storage_breakdown eng
  in
  [
    Sweep.cell "TPC-C" (measure (fun pl -> fst (Workload.Tpcc.make pl)) 60);
    Sweep.cell "RUBiS" (measure (fun pl -> Workload.Rubis.make pl) 120);
  ]
  |> Sweep.run ~jobs
  |> List.iter (fun (name, (data, meta)) ->
         Report.add_row report
           [
             name;
             string_of_int (data / 1024);
             string_of_int (meta / 1024);
             Report.pct (float_of_int meta /. float_of_int (max 1 data));
           ]);
  report

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
let openloop_load ?(jobs = 1) ?(clients_per_dc = 2_000) ~scale () =
  let report =
    Report.create
      ~title:
        "Open-loop: latency vs offered load (Synth-A, Poisson arrivals, \
         2000 clients/DC)"
      ~headers:
        [
          "offered(tx/s/DC)"; "protocol"; "thr(tx/s)"; "dropped"; "abort";
          "lat-p50(ms)"; "lat-mean(ms)"; "lat-p99(ms)";
        ]
  in
  let timing = synth_timing scale in
  Sweep.product (openloop_rates scale) protagonists
  |> List.map (fun (rate, (pname, mk_config, _tune)) ->
         Sweep.cell (int_of_float rate, pname) (fun () ->
             Openloop.run
               {
                 Openloop.topology;
                 replication_factor;
                 config = mk_config ();
                 workload =
                   Workload.Synthetic.make ~params:Workload.Synthetic.synth_a
                     (placement ());
                 clients_per_dc;
                 arrival = Workload.Arrival.poisson ~rate_per_dc:rate;
                 warmup_us = timing.warmup_us;
                 measure_us = timing.measure_us;
                 seed = int_of_float rate + 61;
                 jitter = 0.02;
                 queue = `Heap;
               }))
  |> Sweep.run ~jobs
  |> List.iter (fun ((rate, pname), r) ->
         let arrivals = r.Openloop.admitted + r.Openloop.dropped in
         Report.add_row report
           [
             string_of_int rate;
             pname;
             Report.f1 r.Openloop.throughput;
             Report.pct
               (float_of_int r.Openloop.dropped /. float_of_int (max 1 arrivals));
             Report.pct r.Openloop.abort_rate;
             Report.ms_of_us r.Openloop.final_latency.Metrics.p50_us;
             Report.f1 (r.Openloop.final_latency.Metrics.mean_us /. 1000.);
             Report.ms_of_us r.Openloop.final_latency.Metrics.p99_us;
           ]);
  report

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
let batch_load ?(jobs = 1) ?(clients_per_dc = 2_000) ~scale () =
  let report =
    Report.create
      ~title:
        "Batching: throughput vs batch window x offered load (STR, Synth-A, \
         open loop, cost_msg=20us)"
      ~headers:
        [
          "offered(tx/s/DC)"; "window(us)"; "thr(tx/s)"; "abort";
          "lat-p50(ms)"; "lat-p99(ms)"; "batches"; "payload/flush";
        ]
  in
  let timing = synth_timing scale in
  Sweep.product (batch_rates scale) (batch_windows scale)
  |> List.map (fun (rate, window) ->
         Sweep.cell (int_of_float rate, window) (fun () ->
             Openloop.run
               {
                 Openloop.topology;
                 replication_factor;
                 config =
                   Core.Config.with_batching ~batch_window_us:window
                     ~batch_max:16 ~cost_msg:20 (Core.Config.str ());
                 workload =
                   Workload.Synthetic.make ~params:Workload.Synthetic.synth_a
                     (placement ());
                 clients_per_dc;
                 arrival = Workload.Arrival.poisson ~rate_per_dc:rate;
                 warmup_us = timing.warmup_us;
                 measure_us = timing.measure_us;
                 seed = int_of_float rate + 61;
                 jitter = 0.02;
                 queue = `Heap;
               }))
  |> Sweep.run ~jobs
  |> List.iter (fun ((rate, window), r) ->
         Report.add_row report
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
  report

(* ------------------------------------------------------------------ *)
(* Ablations (beyond the paper's artifacts)                             *)
(* ------------------------------------------------------------------ *)

(** Geo-scale ablation: STR's gain over ClockSI-Rep as the deployment
    grows from 3 to the paper's 9 data centers (the paper evaluates "on
    up to nine geo-distributed EC2 data centers"). *)
let ablation_dcs ?(jobs = 1) ~scale () =
  let report =
    Report.create ~title:"Ablation: data-center count (Synth-A, 20 clients/node)"
      ~headers:[ "DCs"; "rf"; "STR (tx/s)"; "ClockSI (tx/s)"; "speedup"; "STR lat-p50(ms)" ]
  in
  let dcs_list = match scale with Quick -> [ 3; 9 ] | Full -> [ 3; 5; 7; 9 ] in
  let protocols = [ ("STR", fun () -> Core.Config.str ()); ("ClockSI", fun () -> Core.Config.clocksi_rep ()) ] in
  let results =
    Sweep.product dcs_list protocols
    |> List.map (fun (dcs, (pname, mk_config)) ->
           Sweep.cell (dcs, pname) (fun () ->
               let topo = Dsim.Topology.ec2_prefix dcs in
               let rf = min 6 dcs in
               let pl = Store.Placement.ring ~n_nodes:dcs ~replication_factor:rf () in
               let timing = synth_timing scale in
               Runner.run
                 {
                   Runner.topology = topo;
                   replication_factor = rf;
                   config = mk_config ();
                   workload =
                     Workload.Synthetic.make ~params:Workload.Synthetic.synth_a pl;
                   clients_per_node = 20;
                   warmup_us = timing.warmup_us;
                   measure_us = timing.measure_us;
                   seed = dcs;
                   jitter = 0.02;
                   self_tune = `Off;
                   fault_plan = [];
                 }))
    |> Sweep.run ~jobs
  in
  List.iter
    (fun dcs ->
      let str = Sweep.get results (dcs, "STR") in
      let base = Sweep.get results (dcs, "ClockSI") in
      Report.add_row report
        [
          string_of_int dcs;
          string_of_int (min 6 dcs);
          Report.f1 str.Runner.throughput;
          Report.f1 base.Runner.throughput;
          Report.f2 (str.Runner.throughput /. Float.max 0.001 base.Runner.throughput);
          Report.ms_of_us str.Runner.final_latency.Metrics.p50_us;
        ])
    dcs_list;
  report

(** Replication-factor ablation: more slave replicas stretch the
    certification (longer pre-commit locks), which is exactly where
    speculative reads pay off. *)
let ablation_rf ?(jobs = 1) ~scale () =
  let report =
    Report.create ~title:"Ablation: replication factor (Synth-A, 20 clients/node)"
      ~headers:[ "rf"; "STR (tx/s)"; "ClockSI (tx/s)"; "speedup" ]
  in
  let rfs = match scale with Quick -> [ 2; 6 ] | Full -> [ 2; 3; 4; 6 ] in
  let protocols = [ ("STR", fun () -> Core.Config.str ()); ("ClockSI", fun () -> Core.Config.clocksi_rep ()) ] in
  let results =
    Sweep.product rfs protocols
    |> List.map (fun (rf, (pname, mk_config)) ->
           Sweep.cell (rf, pname) (fun () ->
               let pl = Store.Placement.ring ~n_nodes:9 ~replication_factor:rf () in
               let timing = synth_timing scale in
               Runner.run
                 {
                   Runner.topology;
                   replication_factor = rf;
                   config = mk_config ();
                   workload =
                     Workload.Synthetic.make ~params:Workload.Synthetic.synth_a pl;
                   clients_per_node = 20;
                   warmup_us = timing.warmup_us;
                   measure_us = timing.measure_us;
                   seed = rf;
                   jitter = 0.02;
                   self_tune = `Off;
                   fault_plan = [];
                 }))
    |> Sweep.run ~jobs
  in
  List.iter
    (fun rf ->
      let str = Sweep.get results (rf, "STR") in
      let base = Sweep.get results (rf, "ClockSI") in
      Report.add_row report
        [
          string_of_int rf;
          Report.f1 str.Runner.throughput;
          Report.f1 base.Runner.throughput;
          Report.f2 (str.Runner.throughput /. Float.max 0.001 base.Runner.throughput);
        ])
    rfs;
  report

(** Remote-access modeling ablation: reading the remote keys (instead of
    blind-writing them) stretches the execution phase by WAN round
    trips; see DESIGN.md §4b. *)
let ablation_remote_reads ?(jobs = 1) ~scale () =
  let report =
    Report.create
      ~title:"Ablation: remote keys blind-written vs read-modify-written (Synth-A)"
      ~headers:[ "remote keys"; "protocol"; "thr(tx/s)"; "abort"; "lat-p50(ms)" ]
  in
  let protocols = [ ("STR", fun () -> Core.Config.str ()); ("ClockSI-Rep", fun () -> Core.Config.clocksi_rep ()) ] in
  Sweep.product [ ("blind-write", false); ("read-modify-write", true) ] protocols
  |> List.map (fun ((label, rr), (pname, mk_config)) ->
         Sweep.cell (label, pname) (fun () ->
             let params = { Workload.Synthetic.synth_a with read_remote_keys = rr } in
             run_protocol ~timing:(synth_timing scale)
               ~workload_of:(fun pl -> Workload.Synthetic.make ~params pl)
               ~clients:10 ~config:(mk_config ()) ~self_tune:false ~seed:3 ()))
  |> Sweep.run ~jobs
  |> List.iter (fun ((label, pname), r) ->
         Report.add_row report
           [
             label;
             pname;
             Report.f1 r.Runner.throughput;
             Report.pct r.Runner.abort_rate;
             Report.ms_of_us r.Runner.final_latency.Metrics.p50_us;
           ]);
  report

(** Future-work extension (§7): STR under Serializability (read
    promotion) vs under SI.  TPC-C's update transactions write everything
    they read, so promotion is a no-op there; this workload reads eight
    keys from a shared hot range but updates only two, which is where
    the stronger criterion starts charging: promoted reads certify (and
    conflict) like writes. *)
let ablation_serializability ?(jobs = 1) ~scale () =
  let report =
    Report.create
      ~title:
        "Extension: STR under SI vs Serializable (read promotion), read-heavy \
         update workload"
      ~headers:[ "isolation"; "clients"; "thr(tx/s)"; "abort"; "lat-p50(ms)" ]
  in
  let read_heavy placement =
    let n_nodes = Store.Placement.n_nodes placement in
    ignore n_nodes;
    let next_program rng ~node =
      (* 8 reads over a 64-key shared local range, 2 of them updated. *)
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
  in
  let clients_list = match scale with Quick -> [ 10 ] | Full -> [ 5; 10; 20 ] in
  let isolations =
    [ ("SI (STR)", fun () -> Core.Config.str ()); ("Serializable (STR)", fun () -> Core.Config.str_serializable ()) ]
  in
  Sweep.product clients_list isolations
  |> List.map (fun (clients, (name, mk_config)) ->
         Sweep.cell (clients, name) (fun () ->
             run_protocol ~timing:(synth_timing scale) ~workload_of:read_heavy ~clients
               ~config:(mk_config ()) ~self_tune:false ~seed:(clients + 51) ()))
  |> Sweep.run ~jobs
  |> List.iter (fun ((clients, name), r) ->
         Report.add_row report
           [
             name;
             string_of_int clients;
             Report.f1 r.Runner.throughput;
             Report.pct r.Runner.abort_rate;
             Report.ms_of_us r.Runner.final_latency.Metrics.p50_us;
           ]);
  report

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
let region_failure ?(jobs = 1) ~scale () =
  let bucket_us = 500_000 in
  let crash_at = 2_000_000 and recover_at = 4_000_000 in
  let n_buckets = match scale with Quick -> 12 | Full -> 16 in
  let victim = 3 in
  let report =
    Report.create
      ~title:
        (Printf.sprintf
           "Region failure: DC %d crashes at 2.0s, recovers at 4.0s (Synth-A, 10 \
            clients/node)"
           victim)
      ~headers:
        [ "t(s)"; "protocol"; "goodput(tx/s)"; "ext-misspec"; "in-doubt(c/a)"; "DC3" ]
  in
  let run_cell mk_config () =
    let setup =
      {
        Runner.topology;
        replication_factor;
        config = Core.Config.with_recovery (mk_config ());
        workload =
          Workload.Synthetic.make ~params:Workload.Synthetic.synth_a (placement ());
        clients_per_node = 10;
        warmup_us = 0;
        measure_us = n_buckets * bucket_us;
        seed = 11;
        jitter = 0.02;
        self_tune = `Off;
        fault_plan = [ (crash_at, Dsim.Fault.Crash victim); (recover_at, Dsim.Fault.Recover victim) ];
      }
    in
    let sim, _net, _pl, eng, rng = Runner.build_cluster setup in
    setup.Runner.workload.Workload.Spec.load eng;
    let stop_at = n_buckets * bucket_us in
    let shared = Client.make_shared ~measure_from:0 ~measure_to:stop_at in
    for node = 0 to Core.Engine.n_nodes eng - 1 do
      for _ = 1 to setup.Runner.clients_per_node do
        let crng = Dsim.Rng.split rng in
        Client.spawn eng setup.Runner.workload ~node ~rng:crng ~shared ~stop_at
          ~start_delay:(Dsim.Rng.int crng 200_000)
      done
    done;
    let fault = Dsim.Fault.create ~n:(Core.Engine.n_nodes eng) () in
    Core.Engine.install_fault eng fault;
    Dsim.Fault.install fault ~sim setup.Runner.fault_plan;
    (* The timeline is an ordinary {!Obs.Timeseries} sampled in-run —
       the commits column is cumulative ([delta] recovers per-bucket
       goodput), the [alive] column is a 0/1 gauge on the victim. *)
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
  let results =
    protagonists
    |> List.map (fun (pname, mk_config, _tune) -> Sweep.cell pname (run_cell mk_config))
    |> Sweep.run ~jobs
  in
  let goodputs =
    List.map
      (fun (pname, _, _) ->
        (pname, Obs.Timeseries.delta (Sweep.get results pname) ~col:0))
      protagonists
  in
  for b = 0 to n_buckets - 1 do
    List.iter
      (fun (pname, _, _) ->
        let ts = Sweep.get results pname in
        Report.add_row report
          [
            Report.f1 (float_of_int (Obs.Timeseries.time ts b) /. 1_000_000.);
            pname;
            Report.f1
              (float_of_int (List.assoc pname goodputs).(b)
              /. (float_of_int bucket_us /. 1_000_000.));
            string_of_int (Obs.Timeseries.value ts ~row:b ~col:1);
            Printf.sprintf "%d/%d"
              (Obs.Timeseries.value ts ~row:b ~col:2)
              (Obs.Timeseries.value ts ~row:b ~col:3);
            (if Obs.Timeseries.value ts ~row:b ~col:4 = 1 then "up" else "DOWN");
          ])
      protagonists
  done;
  report

let ablations ?(jobs = 1) ~scale () =
  [
    ablation_dcs ~jobs ~scale ();
    ablation_rf ~jobs ~scale ();
    ablation_remote_reads ~jobs ~scale ();
    ablation_serializability ~jobs ~scale ();
  ]

let all ?(jobs = 1) ~scale () =
  [
    fig3 ~jobs ~scale `A;
    fig3 ~jobs ~scale `B;
    fig4 ~jobs ~scale ();
    table1 ~jobs ~scale ();
    fig5 ~jobs ~scale `A;
    fig5 ~jobs ~scale `B;
    fig5 ~jobs ~scale `C;
    fig6 ~jobs ~scale ();
    storage ~jobs ~scale ();
    region_failure ~jobs ~scale ();
    openloop_load ~jobs ~scale ();
    batch_load ~jobs ~scale ();
  ]
  @ ablations ~jobs ~scale ()

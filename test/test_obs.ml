(* Observability layer tests: the log-scale histogram against a
   sorted-list oracle, the closed abort taxonomy and its engine wiring,
   off-mode inertness, and byte determinism of the trace export across
   sweep worker counts. *)

module Trace = Obs.Trace
module Hist = Obs.Histogram

(* --- histogram vs sorted-list oracle -------------------------------- *)

let prop_histogram_percentiles =
  (* [percentile] returns the inclusive upper bound of the bucket
     holding the oracle rank: never below the true order statistic,
     and above it by at most one sub-bucket width (<= true/8, or 1). *)
  QCheck.Test.make ~name:"percentiles track the sorted-list oracle" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 300) (int_bound 5_000_000))
    (fun xs ->
      let h = Hist.create () in
      List.iter (Hist.record h) xs;
      let sorted = Array.of_list (List.sort Int.compare xs) in
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          let tv = sorted.(int_of_float (p *. float_of_int (n - 1))) in
          let r = Hist.percentile h p in
          r >= tv && r <= tv + max 1 (tv / 8))
        [ 0.0; 0.5; 0.9; 0.99; 0.999; 1.0 ])

let test_histogram_small_values_exact () =
  let h = Hist.create () in
  List.iter (Hist.record h) [ 0; 3; 3; 7; 12; 15 ];
  Alcotest.(check int) "count" 6 (Hist.summary h).Hist.count;
  Alcotest.(check int) "p0" 0 (Hist.percentile h 0.0);
  Alcotest.(check int) "p50" 3 (Hist.percentile h 0.5);
  Alcotest.(check int) "p100" 15 (Hist.percentile h 1.0)

let test_histogram_summary () =
  let h = Hist.create () in
  Alcotest.(check int) "empty" 0 (Hist.summary h).Hist.count;
  for v = 1 to 1000 do
    Hist.record h (v * 100)
  done;
  let s = Hist.summary h in
  Alcotest.(check int) "count" 1000 s.Hist.count;
  Alcotest.(check int) "max exact" 100_000 s.Hist.max_us;
  Alcotest.(check bool) "p50 near 50_000" true
    (s.Hist.p50_us >= 50_000 && s.Hist.p50_us <= 50_000 + (50_000 / 8));
  Alcotest.(check bool) "p50 <= p90" true (s.Hist.p50_us <= s.Hist.p90_us);
  Alcotest.(check bool) "p90 <= p99" true (s.Hist.p90_us <= s.Hist.p99_us);
  Alcotest.(check bool) "p99 <= max" true (s.Hist.p99_us <= s.Hist.max_us)

(* --- taxonomy -------------------------------------------------------- *)

let test_taxonomy_closed () =
  Alcotest.(check int) "count" 6 Obs.Taxonomy.count;
  Alcotest.(check int) "|all|" Obs.Taxonomy.count (List.length Obs.Taxonomy.all);
  (* The v1 prefix is frozen: post-v1 buckets only ever append, so
     exports that serialize nonzero post-v1 entries stay byte-compatible
     with pre-recovery goldens. *)
  Alcotest.(check int) "v1 prefix" 5 Obs.Taxonomy.v1_count;
  List.iteri
    (fun i t -> Alcotest.(check int) "index follows all-order" i (Obs.Taxonomy.index t))
    Obs.Taxonomy.all;
  Alcotest.(check (list string))
    "names"
    [ "ww-conflict"; "stale-snapshot"; "spec-misprediction"; "cascade"; "timeout"; "partition" ]
    (List.map Obs.Taxonomy.name Obs.Taxonomy.all)

let test_taxonomy_of_abort () =
  (* The compiler enforces exhaustiveness; this pins the mapping. *)
  List.iter
    (fun (reason, expect) ->
      Alcotest.(check string)
        (Core.Types.abort_reason_to_string reason)
        expect
        (Obs.Taxonomy.name (Core.Types.taxonomy_of_abort reason)))
    [
      (Core.Types.Local_conflict, "ww-conflict");
      (Core.Types.Remote_conflict, "ww-conflict");
      (Core.Types.Snapshot_too_old, "stale-snapshot");
      (Core.Types.Evicted, "spec-misprediction");
      (Core.Types.Dependency_aborted, "cascade");
      (Core.Types.Node_failure, "partition");
      (Core.Types.Prepare_timeout, "timeout");
    ]

(* --- trace recording ------------------------------------------------- *)

let test_off_mode_records_nothing () =
  let tr = Trace.disabled () in
  Alcotest.(check bool) "off" false (Trace.enabled tr);
  let h = Trace.span_begin tr ~kind:Trace.S_tx ~pid:1 ~tid:1 ~t0:0 () in
  Alcotest.(check int) "off handle" (-1) h;
  Trace.span_end tr h ~t1:5;
  Trace.instant tr ~kind:Trace.I_commit ~pid:1 ~tid:1 ~time:3 ();
  Trace.count_abort tr Obs.Taxonomy.Ww_conflict;
  Trace.count_msg tr Trace.M_prepare;
  Trace.set_stat tr "x" 1;
  Alcotest.(check int) "no events" 0 (Trace.n_events tr);
  Alcotest.(check (list int)) "no abort counts" [ 0; 0; 0; 0; 0 ]
    (List.map snd (Trace.abort_counts tr))

let make_traced_cluster () =
  let sim = Dsim.Sim.create () in
  let dcs = 3 in
  let topology = Dsim.Topology.uniform ~dcs ~rtt_ms:80. ~intra_rtt_ms:0.5 in
  let node_dc = Array.init dcs (fun i -> i) in
  let rng = Dsim.Rng.create ~seed:11 in
  let net = Dsim.Network.create ~sim ~topology ~node_dc ~jitter:0. ~rng in
  let placement = Store.Placement.ring ~n_nodes:dcs ~replication_factor:2 () in
  let trace = Trace.create () in
  let eng =
    Core.Engine.create ~sim ~net ~placement ~config:(Core.Config.str ()) ~trace ()
  in
  (sim, eng, trace)

let test_abort_taxonomy_buckets () =
  (* Drive every abort reason through the one funnel (Engine.abort_tx)
     and check each lands in its taxonomy bucket. *)
  let sim, eng, trace = make_traced_cluster () in
  Dsim.Fiber.spawn sim (fun () ->
      List.iter
        (fun reason ->
          let tx = Core.Engine.begin_tx eng ~origin:0 in
          Core.Engine.abort_tx eng tx reason)
        [
          Core.Types.Local_conflict;
          Core.Types.Remote_conflict;
          Core.Types.Snapshot_too_old;
          Core.Types.Evicted;
          Core.Types.Dependency_aborted;
          Core.Types.Node_failure;
          Core.Types.Prepare_timeout;
        ]);
  ignore (Dsim.Sim.run sim);
  List.iter
    (fun (name, expected) ->
      Alcotest.(check int) name expected (List.assoc name (Trace.abort_counts trace)))
    [
      ("ww-conflict", 2);
      ("stale-snapshot", 1);
      ("spec-misprediction", 1);
      ("cascade", 1);
      ("timeout", 1);
      ("partition", 1);
    ]

(* --- end-to-end traced run ------------------------------------------- *)

let small_setup ?(clients = 8) ~seed () =
  let placement = Store.Placement.ring ~n_nodes:3 ~replication_factor:2 () in
  (* The paper's high-contention workload, with the hotspot heated up
     so w-w conflicts are certain within the short window. *)
  let params = { Workload.Synthetic.synth_b with Workload.Synthetic.hot_prob = 0.4 } in
  {
    (Harness.Runner.default_setup
       ~workload:(Workload.Synthetic.make ~params placement)
       ~config:(Core.Config.str ()))
    with
    Harness.Runner.topology = Dsim.Topology.uniform ~dcs:3 ~rtt_ms:80. ~intra_rtt_ms:0.5;
    replication_factor = 2;
    clients_per_node = clients;
    warmup_us = 100_000;
    measure_us = 400_000;
    seed;
    jitter = 0.;
  }

let run_traced ~seed =
  let trace = Trace.create () in
  let r = Harness.Runner.run ~trace (small_setup ~seed ()) in
  (r, trace)

let test_traced_run_contents () =
  let r, trace = run_traced ~seed:5 in
  Alcotest.(check bool) "events recorded" true (Trace.n_events trace > 0);
  (* Taxonomy buckets reconcile with the run's whole-life Stats counters
     (the trace sees warmup + drain too, so compare against the engine
     totals, not the measurement-window delta in [r.stats]). *)
  Alcotest.(check bool) "ww conflicts observed" true
    (List.assoc "ww-conflict" (Trace.abort_counts trace) > 0);
  ignore r;
  (* Lifecycle spans and instants are present. *)
  let spans = Hashtbl.create 8 and instants = Hashtbl.create 8 in
  Trace.iter trace (fun ev ->
      match ev.Trace.kind with
      | `Span k -> Hashtbl.replace spans (Trace.span_name k) ()
      | `Instant k -> Hashtbl.replace instants (Trace.instant_name k) ());
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " span present") true (Hashtbl.mem spans s))
    [ "tx"; "read"; "lock-hold"; "local-cert"; "repl-wait" ];
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " instant present") true (Hashtbl.mem instants s))
    [ "local-commit"; "commit"; "abort" ];
  (* Message counters and the run-summary stats are sealed in. *)
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " counted") true
        (List.assoc m (Trace.msg_counts trace) > 0))
    [ "prepare"; "prepare-reply"; "replicate"; "commit" ];
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " stat set") true
        (match Trace.find_stat trace s with Some v -> v > 0 | None -> false))
    [ "commits"; "eq_pushes"; "eq_pops"; "eq_max_depth"; "net_messages"; "interdc_rtt_max_us" ]

let test_trace_stats_reconcile_engine_stats () =
  (* Same setup, traced and untraced: tracing must not perturb the
     simulation (same commits), and the sealed commit stat must agree
     with the runner's own accounting. *)
  let r0 = Harness.Runner.run (small_setup ~seed:5 ()) in
  let r1, trace = run_traced ~seed:5 in
  Alcotest.(check int) "same commits with tracing on"
    r0.Harness.Runner.committed r1.Harness.Runner.committed;
  Alcotest.(check (option int))
    "sealed commit count" (Some r1.Harness.Runner.committed)
    (Trace.find_stat trace "commits")

let test_chrome_export_parses () =
  let _, trace = run_traced ~seed:5 in
  let chrome = Obs.Export.chrome [ ("cell", trace) ] in
  (match Harness.Bench_json.parse chrome with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("chrome export does not parse: " ^ e));
  let jsonl = Obs.Export.jsonl [ ("cell", trace) ] in
  String.split_on_char '\n' jsonl
  |> List.iter (fun line ->
         if line <> "" then
           match Harness.Bench_json.parse line with
           | Ok _ -> ()
           | Error e -> Alcotest.fail ("jsonl line does not parse: " ^ e))

(* --- export determinism across worker counts ------------------------- *)

let sweep_export ~jobs =
  let tracer = Harness.Tracing.create () in
  let cells =
    List.map
      (fun (name, seed) ->
        let trace = Harness.Tracing.trace_for tracer ~cell:name in
        Harness.Sweep.cell ?trace name (fun () ->
            (Harness.Runner.run ?trace (small_setup ~clients:4 ~seed ())).Harness.Runner
              .committed))
      [ ("seed=3", 3); ("seed=4", 4); ("seed=5", 5) ]
  in
  let results = Harness.Sweep.run ~jobs cells in
  (List.map snd results, Harness.Tracing.export_chrome tracer, Harness.Tracing.export_jsonl tracer)

let test_export_bytes_jobs_invariant () =
  let r1, chrome1, jsonl1 = sweep_export ~jobs:1 in
  let r4, chrome4, jsonl4 = sweep_export ~jobs:4 in
  Alcotest.(check (list int)) "results identical" r1 r4;
  Alcotest.(check bool) "chrome bytes identical" true (String.equal chrome1 chrome4);
  Alcotest.(check bool) "jsonl bytes identical" true (String.equal jsonl1 jsonl4);
  Alcotest.(check int) "fingerprints agree"
    (Obs.Export.fingerprint chrome1) (Obs.Export.fingerprint chrome4)

let test_tracing_filter_pins_pids () =
  (* A filtered-out cell still consumes its pid-base slot, so the pids
     of later cells do not depend on the filter. *)
  let t_all = Harness.Tracing.create () in
  let t_some = Harness.Tracing.create ~filter:"keep" () in
  let reg t cell = Harness.Tracing.trace_for t ~cell in
  let a_all = reg t_all "drop=1" and a_some = reg t_some "drop=1" in
  let b_all = reg t_all "keep=1" and b_some = reg t_some "keep=1" in
  Alcotest.(check bool) "unfiltered traces first cell" true (a_all <> None);
  Alcotest.(check bool) "filter drops first cell" true (a_some = None);
  (match (b_all, b_some) with
  | Some x, Some y ->
    Alcotest.(check int) "same pid base either way" (Trace.pid_base x) (Trace.pid_base y)
  | _ -> Alcotest.fail "second cell must be traced in both");
  Alcotest.(check int) "n_selected respects filter" 1 (Harness.Tracing.n_selected t_some)

(* --- critical-path decomposition ------------------------------------- *)

module Critpath = Obs.Critpath
module Ts = Obs.Timeseries

let csum = Array.fold_left ( + ) 0

let test_critpath_painting () =
  let t = Critpath.make_txn ~a:0 ~b:1 ~t0:100 ~t1:200 in
  let d0 = Critpath.decompose t in
  Alcotest.(check int) "bare span is all coordinator" 100
    d0.(Critpath.index Critpath.C_coord_cpu);
  Alcotest.(check int) "bare sum" 100 (csum d0);
  Critpath.add_ival t Critpath.C_repl_wait ~lo:120 ~hi:180;
  Critpath.add_ival t Critpath.C_network ~lo:150 ~hi:160 (* overpaints repl-wait *);
  Critpath.add_ival t Critpath.C_lock_wait ~lo:190 ~hi:250 (* clipped at t1 *);
  Critpath.add_ival t Critpath.C_olc_wait ~lo:150 ~hi:150 (* empty: dropped *);
  let d = Critpath.decompose t in
  Alcotest.(check int) "network overpaints repl-wait" 10
    d.(Critpath.index Critpath.C_network);
  Alcotest.(check int) "repl-wait keeps the rest" 50
    d.(Critpath.index Critpath.C_repl_wait);
  Alcotest.(check int) "lock-wait clipped to the span" 10
    d.(Critpath.index Critpath.C_lock_wait);
  Alcotest.(check int) "base fills every hole" 30
    d.(Critpath.index Critpath.C_coord_cpu);
  Alcotest.(check int) "exact sum" (Critpath.total_us t) (csum d)

let test_critpath_edge_and_hidden () =
  let t = Critpath.make_txn ~a:1 ~b:2 ~t0:0 ~t1:100 in
  Critpath.add_edge t
    {
      Obs.Causal.ekind = 2;
      ea = 1;
      eb = 2;
      esrc = 0;
      edst = 1;
      et_enq = 10;
      et_wire = 14;
      et_deliver = 40;
      equeue = 6;
      ecost = 5;
    };
  let d = Critpath.decompose t in
  Alcotest.(check int) "batch-park" 4 d.(Critpath.index Critpath.C_batch_park);
  Alcotest.(check int) "network" 26 d.(Critpath.index Critpath.C_network);
  Alcotest.(check int) "queue-wait" 6 d.(Critpath.index Critpath.C_queue_wait);
  Alcotest.(check int) "dispatch-cpu" 5 d.(Critpath.index Critpath.C_dispatch_cpu);
  Alcotest.(check int) "exact sum" 100 (csum d);
  Alcotest.(check int) "no spec commit: all externalized" 100 (Critpath.externalized_us t);
  t.Critpath.t_spec_commit <- 30;
  Alcotest.(check int) "externalized stops at spec commit" 30 (Critpath.externalized_us t);
  Alcotest.(check int) "hidden is the rest" 70 (Critpath.hidden_us t)

(* Contended burst through a hand-built cluster, so the property can
   range over the queue discipline (heap vs wheel) and batching —
   dimensions the closed-loop Runner does not expose. *)
let drive_traced ?(base_config = Core.Config.str ()) ~queue ~batch ~seed ~txs ~spread () =
  let sim = Dsim.Sim.create ~queue () in
  let dcs = 3 in
  let topology = Dsim.Topology.uniform ~dcs ~rtt_ms:60. ~intra_rtt_ms:0.5 in
  let node_dc = Array.init dcs (fun i -> i) in
  let rng = Dsim.Rng.create ~seed in
  let net = Dsim.Network.create ~sim ~topology ~node_dc ~jitter:0. ~rng in
  let placement = Store.Placement.ring ~n_nodes:dcs ~replication_factor:2 () in
  let trace = Trace.create () in
  let config =
    if batch then Core.Config.with_batching ~batch_window_us:300 ~batch_max:4 base_config
    else base_config
  in
  let eng = Core.Engine.create ~sim ~net ~placement ~config ~trace () in
  let key ~p name = Store.Keyspace.Key.v ~partition:p name in
  let hot = key ~p:0 "hot" in
  Core.Engine.load eng hot (Store.Keyspace.Value.Int 0);
  for i = 0 to txs - 1 do
    Dsim.Fiber.spawn sim (fun () ->
        Dsim.Fiber.sleep sim (i * spread);
        let tx = Core.Engine.begin_tx eng ~origin:(i mod dcs) in
        try
          let v = Workload.Spec.read_int eng tx hot in
          Core.Engine.write eng tx hot (Store.Keyspace.Value.Int (v + 1));
          Core.Engine.write eng tx
            (key ~p:((i mod 2) + 1) (Printf.sprintf "k%d" i))
            (Store.Keyspace.Value.Int i);
          ignore (Core.Engine.commit eng tx)
        with Core.Types.Tx_abort _ -> ())
  done;
  ignore (Dsim.Sim.run sim);
  trace

let prop_critpath_exact_sum =
  (* The ISSUE's headline invariant: for every transaction of a traced
     run, the component sums partition the S_tx span exactly — across
     random contention, both simulator queues, batching on and off. *)
  QCheck.Test.make ~name:"components sum exactly to the tx span" ~count:20
    QCheck.(
      quad (int_range 1 500) bool bool (int_range 100 2_500))
    (fun (seed, wheel, batch, spread) ->
      let queue = if wheel then `Wheel else `Heap in
      let trace = drive_traced ~queue ~batch ~seed ~txs:12 ~spread () in
      let txns = Critpath.of_trace trace in
      txns <> []
      && List.for_all
           (fun t ->
             csum (Critpath.decompose t) = Critpath.total_us t
             && Critpath.externalized_us t + Critpath.hidden_us t
                = Critpath.total_us t)
           txns)

let test_critpath_of_trace_attributes_waits () =
  (* A contended traced run must attribute real latency to non-base
     components.  The non-speculative baseline keeps certification
     inside the S_tx span; there the convoy (lock-wait) and the wire
     show up directly, while repl-wait itself is overpainted by the
     finer per-hop components of whatever prepare is in flight — the
     documented paint semantics. *)
  let trace =
    drive_traced ~base_config:(Core.Config.clocksi_rep ()) ~queue:`Heap ~batch:false
      ~seed:5 ~txs:12 ~spread:800 ()
  in
  let txns = Critpath.of_trace trace in
  let totals = Array.make Critpath.n_components 0 in
  List.iter
    (fun t ->
      Array.iteri (fun i v -> totals.(i) <- totals.(i) + v) (Critpath.decompose t))
    txns;
  Alcotest.(check bool) "transactions assembled" true (txns <> []);
  Alcotest.(check bool) "lock-wait attributed" true
    (totals.(Critpath.index Critpath.C_lock_wait) > 0);
  Alcotest.(check bool) "network attributed" true
    (totals.(Critpath.index Critpath.C_network) > 0);
  Alcotest.(check bool) "destination queue/dispatch attributed" true
    (totals.(Critpath.index Critpath.C_queue_wait)
     + totals.(Critpath.index Critpath.C_dispatch_cpu)
    > 0);
  (* Batching on: parked time appears. *)
  let trb =
    drive_traced ~base_config:(Core.Config.clocksi_rep ()) ~queue:`Heap ~batch:true
      ~seed:5 ~txs:12 ~spread:800 ()
  in
  let parked =
    List.fold_left
      (fun acc t -> acc + (Critpath.decompose t).(Critpath.index Critpath.C_batch_park))
      0 (Critpath.of_trace trb)
  in
  Alcotest.(check bool) "batch-park attributed under batching" true (parked > 0)

(* --- timeseries ------------------------------------------------------- *)

let test_timeseries_basics () =
  let ts = Ts.create ~interval_us:100 ~cols:[ "a"; "b" ] in
  Alcotest.(check int) "no rows yet" 0 (Ts.n_rows ts);
  Ts.sample ts ~time:100 [| 3; 10 |];
  Ts.sample ts ~time:200 [| 7; 10 |];
  Ts.sample ts ~time:300 [| 8; 4 |];
  Alcotest.(check int) "rows" 3 (Ts.n_rows ts);
  Alcotest.(check (list string)) "cols" [ "a"; "b" ] (Ts.cols ts);
  Alcotest.(check int) "time" 200 (Ts.time ts 1);
  Alcotest.(check int) "value" 7 (Ts.value ts ~row:1 ~col:0);
  Alcotest.(check (array int)) "delta of cumulative col" [| 3; 4; 1 |]
    (Ts.delta ts ~col:0);
  Alcotest.(check string) "csv"
    "t_us,a,b\n100,3,10\n200,7,10\n300,8,4\n" (Ts.to_csv ts);
  (match Ts.to_jsonl ts |> String.split_on_char '\n' with
  | first :: _ -> (
    match Harness.Bench_json.parse first with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("jsonl row does not parse: " ^ e))
  | [] -> Alcotest.fail "empty jsonl");
  (* Sampling after creation validates the row width. *)
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Timeseries.sample: row width mismatch") (fun () ->
      Ts.sample ts ~time:400 [| 1 |]);
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Timeseries.create: interval_us <= 0") (fun () ->
      ignore (Ts.create ~interval_us:0 ~cols:[ "a" ]))

let test_timeseries_sampler_in_runner () =
  (* A timeseries-recording run reports the same protocol outcome as a
     plain one (sampling is observational), and the series rows land on
     the exact interval grid with cumulative commits. *)
  let r0 = Harness.Runner.run (small_setup ~seed:5 ()) in
  let r1 = Harness.Runner.run ~timeseries_us:50_000 (small_setup ~seed:5 ()) in
  Alcotest.(check int) "same commits with sampling on"
    r0.Harness.Runner.committed r1.Harness.Runner.committed;
  match r1.Harness.Runner.timeseries with
  | None -> Alcotest.fail "no timeseries recorded"
  | Some ts ->
    Alcotest.(check (list string)) "standard columns" Harness.Runner.sample_columns
      (Ts.cols ts);
    Alcotest.(check bool) "rows recorded" true (Ts.n_rows ts > 0);
    for i = 0 to Ts.n_rows ts - 1 do
      Alcotest.(check int) (Printf.sprintf "row %d on the grid" i)
        ((i + 1) * 50_000) (Ts.time ts i)
    done;
    (* "commits" heads the standard columns checked above. *)
    let last = Ts.value ts ~row:(Ts.n_rows ts - 1) ~col:0 in
    Alcotest.(check bool) "cumulative commits reach the engine total" true
      (last > 0 && last >= r1.Harness.Runner.committed)

let test_timeseries_jobs_invariant () =
  (* Same setup swept at -j1 and -j4: the recorded series must be
     byte-identical (it rides inside the traced cells). *)
  let run_ts () =
    let r = Harness.Runner.run ~timeseries_us:50_000 (small_setup ~clients:4 ~seed:3 ()) in
    match r.Harness.Runner.timeseries with Some ts -> Ts.to_csv ts | None -> ""
  in
  let cells jobs =
    Harness.Sweep.run ~jobs [ Harness.Sweep.cell "a" run_ts; Harness.Sweep.cell "b" run_ts ]
  in
  let c1 = cells 1 and c4 = cells 4 in
  Alcotest.(check bool) "csv bytes invariant under jobs" true
    (List.map snd c1 = List.map snd c4);
  Alcotest.(check bool) "non-empty" true (List.for_all (fun (_, s) -> s <> "") c1)

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          QCheck_alcotest.to_alcotest prop_histogram_percentiles;
          Alcotest.test_case "small values exact" `Quick test_histogram_small_values_exact;
          Alcotest.test_case "summary" `Quick test_histogram_summary;
        ] );
      ( "taxonomy",
        [
          Alcotest.test_case "closed, indexed, named" `Quick test_taxonomy_closed;
          Alcotest.test_case "abort-reason mapping" `Quick test_taxonomy_of_abort;
          Alcotest.test_case "engine funnels into buckets" `Quick test_abort_taxonomy_buckets;
        ] );
      ( "trace",
        [
          Alcotest.test_case "off mode records nothing" `Quick test_off_mode_records_nothing;
          Alcotest.test_case "traced run contents" `Quick test_traced_run_contents;
          Alcotest.test_case "tracing does not perturb the run" `Quick
            test_trace_stats_reconcile_engine_stats;
          Alcotest.test_case "exports parse as JSON" `Quick test_chrome_export_parses;
        ] );
      ( "export-determinism",
        [
          Alcotest.test_case "bytes invariant under jobs" `Quick
            test_export_bytes_jobs_invariant;
          Alcotest.test_case "filter pins pid bases" `Quick test_tracing_filter_pins_pids;
        ] );
      ( "critpath",
        [
          Alcotest.test_case "paint priority and clipping" `Quick test_critpath_painting;
          Alcotest.test_case "edge intervals and hidden latency" `Quick
            test_critpath_edge_and_hidden;
          QCheck_alcotest.to_alcotest prop_critpath_exact_sum;
          Alcotest.test_case "of_trace attributes real waits" `Quick
            test_critpath_of_trace_attributes_waits;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "recorder basics" `Quick test_timeseries_basics;
          Alcotest.test_case "sampler rides the runner" `Quick
            test_timeseries_sampler_in_runner;
          Alcotest.test_case "bytes invariant under jobs" `Quick
            test_timeseries_jobs_invariant;
        ] );
    ]

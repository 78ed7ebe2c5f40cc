(* Tests for the measurement harness: metrics, report rendering, the
   runner, client retry behaviour, and the parallel sweep harness
   (Procpool, Sweep, and the determinism contract — experiment reports
   render byte-identical whatever the worker count). *)

let test_metrics_percentiles () =
  let m = Harness.Metrics.create () in
  for i = 1 to 100 do
    Harness.Metrics.record m (i * 10)
  done;
  let s = Harness.Metrics.summarize m in
  Alcotest.(check int) "count" 100 s.Harness.Metrics.count;
  Alcotest.(check int) "p50" 500 s.Harness.Metrics.p50_us;
  Alcotest.(check int) "p95" 950 s.Harness.Metrics.p95_us;
  Alcotest.(check int) "max" 1000 s.Harness.Metrics.max_us;
  Alcotest.(check (float 0.01)) "mean" 505. s.Harness.Metrics.mean_us

let test_metrics_empty () =
  let s = Harness.Metrics.summarize (Harness.Metrics.create ()) in
  Alcotest.(check int) "empty count" 0 s.Harness.Metrics.count

let test_metrics_growth () =
  (* Force the internal buffer to grow several times. *)
  let m = Harness.Metrics.create () in
  for i = 1 to 10_000 do
    Harness.Metrics.record m i
  done;
  Alcotest.(check int) "all recorded" 10_000 (Harness.Metrics.summarize m).Harness.Metrics.count;
  Alcotest.(check int) "max" 10_000 (Harness.Metrics.summarize m).Harness.Metrics.max_us

let test_metrics_interleaved () =
  (* The summary cache must be invalidated by every record: an
     interleaved record/summarize sequence has to agree at each step
     with a freshly built accumulator over the same prefix. *)
  let fresh samples =
    let m = Harness.Metrics.create () in
    List.iter (Harness.Metrics.record m) samples;
    Harness.Metrics.summarize m
  in
  let m = Harness.Metrics.create () in
  let seen = ref [] in
  List.iteri
    (fun i v ->
      seen := !seen @ [ v ];
      Harness.Metrics.record m v;
      if i mod 2 = 0 then
        Alcotest.(check bool)
          (Printf.sprintf "summary agrees after %d samples" (i + 1))
          true
          (Harness.Metrics.summarize m = fresh !seen))
    [ 50; 3; 91; 14; 120; 7; 66; 2; 1000; 33 ];
  (* Back-to-back summaries with no record in between are identical
     (served from the cache), and a later record is still visible. *)
  let s1 = Harness.Metrics.summarize m in
  let s2 = Harness.Metrics.summarize m in
  Alcotest.(check bool) "cached summary stable" true (s1 = s2);
  Harness.Metrics.record m 4;
  Alcotest.(check int) "record after summarize invalidates" 11
    (Harness.Metrics.summarize m).Harness.Metrics.count;
  Alcotest.(check int) "min sample visible via full agreement" 4
    (let f = fresh (!seen @ [ 4 ]) in
     if Harness.Metrics.summarize m = f then 4 else -1)

let prop_metrics_p50_is_median =
  QCheck.Test.make ~name:"p50 equals sorted median element" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_bound 100_000))
    (fun samples ->
      let m = Harness.Metrics.create () in
      List.iter (Harness.Metrics.record m) samples;
      let sorted = List.sort compare samples in
      let n = List.length samples in
      let median = List.nth sorted (n / 2 * 1 - (if n mod 2 = 0 && n > 1 then 0 else 0)) in
      ignore median;
      let expected = List.nth sorted (int_of_float (0.5 *. float_of_int (n - 1))) in
      (Harness.Metrics.summarize m).Harness.Metrics.p50_us = expected)

let test_report_render () =
  let r = Harness.Report.create ~title:"demo" ~headers:[ "a"; "bb" ] in
  Harness.Report.add_row r [ "1"; "2" ];
  Harness.Report.add_row r [ "333"; "4" ];
  let s = Harness.Report.render r in
  Alcotest.(check bool) "title present" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  Alcotest.(check int) "two rows" 2 (List.length (Harness.Report.rows r));
  (* Column width adapts to the widest cell. *)
  Alcotest.(check bool) "contains padded row" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = " 333  4  ") lines)

let small_setup config =
  let placement = Store.Placement.ring ~n_nodes:3 ~replication_factor:2 () in
  let params =
    {
      Workload.Synthetic.default with
      local_hot = 2;
      remote_hot = 10;
      local_space = 100;
      remote_space = 100;
    }
  in
  {
    Harness.Runner.topology = Dsim.Topology.uniform ~dcs:3 ~rtt_ms:40. ~intra_rtt_ms:0.5;
    replication_factor = 2;
    config;
    workload = Workload.Synthetic.make ~params placement;
    clients_per_node = 4;
    warmup_us = 500_000;
    measure_us = 2_000_000;
    seed = 3;
    jitter = 0.;
    self_tune = `Off;
    fault_plan = [];
  }

let test_runner_end_to_end () =
  let r = Harness.Runner.run (small_setup (Core.Config.str ())) in
  Alcotest.(check bool) "throughput positive" true (r.Harness.Runner.throughput > 0.);
  Alcotest.(check bool) "latency recorded" true
    (r.Harness.Runner.final_latency.Harness.Metrics.count > 0);
  Alcotest.(check bool) "abort rate within [0,1]" true
    (r.Harness.Runner.abort_rate >= 0. && r.Harness.Runner.abort_rate <= 1.);
  Alcotest.(check bool) "wan traffic happened" true (r.Harness.Runner.wan_messages > 0);
  (* Throughput must equal committed / duration. *)
  Alcotest.(check (float 0.01)) "throughput consistent"
    (float_of_int r.Harness.Runner.committed /. r.Harness.Runner.duration_s)
    r.Harness.Runner.throughput

let test_runner_deterministic () =
  let r1 = Harness.Runner.run (small_setup (Core.Config.str ())) in
  let r2 = Harness.Runner.run (small_setup (Core.Config.str ())) in
  Alcotest.(check int) "same committed count" r1.Harness.Runner.committed
    r2.Harness.Runner.committed;
  Alcotest.(check (float 0.0001)) "same abort rate" r1.Harness.Runner.abort_rate
    r2.Harness.Runner.abort_rate

let test_runner_ext_spec_records_spec_latency () =
  let r = Harness.Runner.run (small_setup (Core.Config.ext_spec ())) in
  Alcotest.(check bool) "spec latency recorded" true
    (r.Harness.Runner.spec_latency.Harness.Metrics.count > 0);
  Alcotest.(check bool) "spec latency below final" true
    (r.Harness.Runner.spec_latency.Harness.Metrics.p50_us
     <= r.Harness.Runner.final_latency.Harness.Metrics.p50_us)

let test_runner_observer () =
  let events = ref 0 in
  let _ = Harness.Runner.run ~observer:(fun _ -> incr events) (small_setup (Core.Config.str ())) in
  Alcotest.(check bool) "observer saw events" true (!events > 100)

let test_delta_stats () =
  let a = Core.Stats.create () in
  a.Core.Stats.commits <- 10;
  a.Core.Stats.reads <- 50;
  let b = Core.Stats.create () in
  b.Core.Stats.commits <- 25;
  b.Core.Stats.reads <- 90;
  b.Core.Stats.aborts_local <- 3;
  let d = Harness.Runner.delta_stats ~at_start:a ~at_end:b in
  Alcotest.(check int) "commit delta" 15 d.Core.Stats.commits;
  Alcotest.(check int) "read delta" 40 d.Core.Stats.reads;
  Alcotest.(check int) "abort delta" 3 d.Core.Stats.aborts_local;
  (* Every counter distinct and nonzero: a field the field-wise
     operation forgets breaks one of the identities below. *)
  let x =
    {
      Core.Stats.started = 1;
      commits = 2;
      read_only_commits = 3;
      aborts_local = 4;
      aborts_remote = 5;
      aborts_evicted = 6;
      aborts_dependency = 7;
      aborts_stale_snapshot = 8;
      aborts_node_failure = 9;
      aborts_prepare_timeout = 10;
      spec_reads = 11;
      cache_reads = 12;
      reads = 13;
      remote_reads = 14;
      spec_commits = 15;
      ext_misspec = 16;
      olc_blocks = 17;
      server_blocks = 18;
      in_doubt_commits = 19;
      in_doubt_aborts = 20;
    }
  in
  let zero = Core.Stats.create () in
  Alcotest.(check bool) "diff x zero = x" true (Core.Stats.diff x zero = x);
  Alcotest.(check bool) "diff x x = zero" true (Core.Stats.diff x x = zero);
  Alcotest.(check bool) "copy x = x" true (Core.Stats.copy x = x);
  Alcotest.(check bool) "sum [x; x] - x = x" true
    (Core.Stats.diff (Core.Stats.sum [ x; x ]) x = x)

let test_stats_rates () =
  let s = Core.Stats.create () in
  s.Core.Stats.commits <- 60;
  s.Core.Stats.aborts_local <- 10;
  s.Core.Stats.aborts_dependency <- 20;
  s.Core.Stats.aborts_stale_snapshot <- 10;
  Alcotest.(check (float 1e-9)) "abort rate" 0.4 (Core.Stats.abort_rate s);
  Alcotest.(check (float 1e-9)) "misspec rate" 0.3 (Core.Stats.misspeculation_rate s);
  s.Core.Stats.ext_misspec <- 5;
  Alcotest.(check (float 1e-9)) "ext misspec rate" 0.05
    (Core.Stats.ext_misspeculation_rate s)

let test_stats_sum () =
  let a = Core.Stats.create () and b = Core.Stats.create () in
  a.Core.Stats.commits <- 1;
  b.Core.Stats.commits <- 2;
  b.Core.Stats.spec_reads <- 7;
  let s = Core.Stats.sum [ a; b ] in
  Alcotest.(check int) "summed commits" 3 s.Core.Stats.commits;
  Alcotest.(check int) "summed spec reads" 7 s.Core.Stats.spec_reads

let test_client_retries_counted () =
  (* Very contended single-key workload: retries must show up. *)
  let placement = Store.Placement.ring ~n_nodes:3 ~replication_factor:2 () in
  let params =
    {
      Workload.Synthetic.default with
      keys_per_tx = 2;
      local_hot = 1;
      local_space = 1;
      remote_access_prob = 0.5;
      remote_hot = 1;
      remote_space = 1;
    }
  in
  let setup =
    {
      (small_setup (Core.Config.clocksi_rep ())) with
      workload = Workload.Synthetic.make ~params placement;
      clients_per_node = 6;
    }
  in
  let sim, _net, _pl, eng, rng = Harness.Runner.build_cluster setup in
  setup.Harness.Runner.workload.Workload.Spec.load eng;
  let shared = Harness.Client.make_shared ~measure_from:0 ~measure_to:2_000_000 in
  for node = 0 to 2 do
    for _ = 1 to 6 do
      let crng = Dsim.Rng.split rng in
      Harness.Client.spawn eng setup.Harness.Runner.workload ~node ~rng:crng ~shared
        ~stop_at:2_000_000 ~start_delay:0
    done
  done;
  ignore (Dsim.Sim.run ~until:2_500_000 sim);
  Alcotest.(check bool) "retries happened" true (shared.Harness.Client.retries > 0)

(* --- BENCH.json reports -------------------------------------------- *)

module BJ = Harness.Bench_json

let sample_report ?(chain_ns = 1000.) ?(tput = 120.) () =
  BJ.make
    ~micro:
      [
        { BJ.bench_name = "chain-200-inserts"; ns_per_run = chain_ns };
        { BJ.bench_name = "event-queue-1k"; ns_per_run = 150_000. };
      ]
    ~experiments:
      [
        {
          BJ.protocol = "str";
          workload = "synth-a";
          throughput = tput;
          abort_rate = 0.14;
        };
      ]
    ~wall_clock_s:12.5

let test_bench_json_roundtrip () =
  let report = sample_report () in
  (match BJ.validate report with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let text = BJ.to_string report in
  match BJ.parse text with
  | Error e -> Alcotest.fail e
  | Ok reparsed ->
    Alcotest.(check string) "print/parse/print fixpoint" text
      (BJ.to_string reparsed);
    (match BJ.validate reparsed with
     | Ok () -> ()
     | Error e -> Alcotest.fail e)

let test_bench_json_rejects_malformed () =
  let reject what v =
    match BJ.validate v with
    | Ok () -> Alcotest.fail (what ^ ": accepted")
    | Error _ -> ()
  in
  reject "not an object" (BJ.Arr []);
  reject "wrong schema version"
    (BJ.Obj [ ("schema_version", BJ.Num 99.); ("wall_clock_s", BJ.Num 1.) ]);
  reject "non-finite number"
    (BJ.Obj
       [
         ("schema_version", BJ.Num 1.);
         ("wall_clock_s", BJ.Num Float.nan);
         ("micro", BJ.Arr []);
         ("experiments", BJ.Arr []);
       ]);
  reject "duplicate micro name"
    (BJ.make
       ~micro:
         [
           { BJ.bench_name = "dup"; ns_per_run = 1. };
           { BJ.bench_name = "dup"; ns_per_run = 2. };
         ]
       ~experiments:[] ~wall_clock_s:0.1);
  match BJ.parse "{ not json" with
  | Ok _ -> Alcotest.fail "parser accepted garbage"
  | Error _ -> ()

let test_bench_json_diff_verdicts () =
  let baseline = sample_report () in
  (* 2x slower micro + 40% throughput drop: both must be flagged. *)
  let worse = sample_report ~chain_ns:2000. ~tput:72. () in
  (match BJ.diff ~baseline ~current:worse with
   | Error e -> Alcotest.fail e
   | Ok deltas ->
     let verdict_of metric =
       match List.find_opt (fun (d : BJ.delta) -> d.metric = metric) deltas with
       | Some d -> d.verdict
       | None -> Alcotest.fail ("missing delta for " ^ metric)
     in
     Alcotest.(check bool) "slower micro flagged" true
       (verdict_of "micro/chain-200-inserts" = BJ.Regressed);
     Alcotest.(check bool) "unchanged micro ok" true
       (verdict_of "micro/event-queue-1k" = BJ.Unchanged);
     Alcotest.(check bool) "throughput drop flagged" true
       (verdict_of "experiments/str/synth-a" = BJ.Regressed);
     Alcotest.(check bool) "summary mentions regression" true
       (String.length (BJ.render_diff deltas) > 0));
  (* Identical reports: nothing regresses. *)
  match BJ.diff ~baseline ~current:baseline with
  | Error e -> Alcotest.fail e
  | Ok deltas ->
    Alcotest.(check bool) "self-diff clean" true
      (List.for_all (fun (d : BJ.delta) -> d.verdict = BJ.Unchanged) deltas)

(* End-to-end smoke test of the report the bench driver emits: a real
   (tiny) experiment cell flows into a report that validates and
   round-trips — the same schema `bench/main.exe json` writes. *)
let test_bench_json_from_runner () =
  let r = Harness.Runner.run (small_setup (Core.Config.str ())) in
  let report =
    BJ.make
      ~micro:[ { BJ.bench_name = "chain-200-inserts"; ns_per_run = 1234.5 } ]
      ~experiments:
        [
          {
            BJ.protocol = "str";
            workload = "synth-a";
            throughput = r.Harness.Runner.throughput;
            abort_rate = r.Harness.Runner.abort_rate;
          };
        ]
      ~wall_clock_s:r.Harness.Runner.duration_s
  in
  (match BJ.validate report with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  match BJ.parse (BJ.to_string report) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* --- per-label rendering determinism ------------------------------- *)

let test_per_label_sorted () =
  let shared = Harness.Client.make_shared ~measure_from:0 ~measure_to:1 in
  (* Scrambled insertion order; the sorted view must not depend on it
     (Hashtbl iteration order is what it fixes). *)
  List.iteri
    (fun i label -> Harness.Metrics.record (Harness.Client.label_metrics shared label) i)
    [ "payment"; "delivery"; "new-order"; "stock-level"; "order-status" ];
  let labels = List.map fst (Harness.Client.per_label_sorted shared) in
  Alcotest.(check (list string)) "ascending label order"
    [ "delivery"; "new-order"; "order-status"; "payment"; "stock-level" ]
    labels;
  (* The recorders themselves are the live ones, not copies. *)
  Harness.Metrics.record (Harness.Client.label_metrics shared "payment") 7;
  let payment = List.assoc "payment" (Harness.Client.per_label_sorted shared) in
  Alcotest.(check int) "live recorder" 2 (Harness.Metrics.summarize payment).Harness.Metrics.count

(* --- open-loop harness --------------------------------------------- *)

let openloop_setup ?(clients_per_dc = 150) ?(rate = 100.) ?(queue = `Heap) config =
  let placement = Store.Placement.ring ~n_nodes:3 ~replication_factor:2 () in
  (* Mild contention: latency stays near the WAN floor, so at 100 tx/s
     per DC the in-flight count sits far below the 150-client population
     and the no-drop assertion below is robust. *)
  let params =
    {
      Workload.Synthetic.default with
      hot_prob = 0.02;
      local_hot = 2;
      remote_hot = 10;
      local_space = 400;
      remote_space = 400;
    }
  in
  {
    (Harness.Openloop.default_setup
       ~workload:(Workload.Synthetic.make ~params placement)
       ~config)
    with
    Harness.Openloop.topology = Dsim.Topology.uniform ~dcs:3 ~rtt_ms:40. ~intra_rtt_ms:0.5;
    replication_factor = 2;
    clients_per_dc;
    arrival = Workload.Arrival.poisson ~rate_per_dc:rate;
    warmup_us = 400_000;
    measure_us = 1_500_000;
    seed = 5;
    jitter = 0.;
    queue;
  }

let test_openloop_end_to_end () =
  let r = Harness.Openloop.run (openloop_setup (Core.Config.str ())) in
  Alcotest.(check int) "population" 450 r.Harness.Openloop.clients;
  Alcotest.(check bool) "completed some" true (r.Harness.Openloop.completed > 0);
  Alcotest.(check bool) "latency recorded" true
    (r.Harness.Openloop.final_latency.Harness.Metrics.count > 0);
  Alcotest.(check bool) "admitted arrivals" true (r.Harness.Openloop.admitted > 0);
  Alcotest.(check bool) "no drops with ample population" true
    (r.Harness.Openloop.dropped = 0);
  Alcotest.(check bool) "peak bounded by population" true
    (r.Harness.Openloop.peak_in_flight <= r.Harness.Openloop.clients);
  Alcotest.(check (float 0.01)) "throughput consistent"
    (float_of_int r.Harness.Openloop.completed /. r.Harness.Openloop.duration_s)
    r.Harness.Openloop.throughput

let test_openloop_saturation_drops () =
  (* One client per DC at 150 tx/s/DC: almost every arrival finds the
     lone client busy and must be counted as dropped, never queued. *)
  let r =
    Harness.Openloop.run (openloop_setup ~clients_per_dc:1 (Core.Config.str ()))
  in
  Alcotest.(check bool) "dropped counted" true (r.Harness.Openloop.dropped > 0);
  Alcotest.(check bool) "still commits" true (r.Harness.Openloop.completed > 0);
  Alcotest.(check int) "peak equals population" r.Harness.Openloop.clients
    r.Harness.Openloop.peak_in_flight

let test_openloop_wheel_matches_heap () =
  (* The whole result record — metrics, counters, stats deltas — must be
     identical whichever structure backs the event queue. *)
  let rh = Harness.Openloop.run (openloop_setup ~queue:`Heap (Core.Config.str ())) in
  let rw = Harness.Openloop.run (openloop_setup ~queue:`Wheel (Core.Config.str ())) in
  Alcotest.(check bool) "identical results" true (rh = rw)

let test_openloop_deterministic () =
  let r1 = Harness.Openloop.run (openloop_setup (Core.Config.ext_spec ())) in
  let r2 = Harness.Openloop.run (openloop_setup (Core.Config.ext_spec ())) in
  Alcotest.(check bool) "same run twice" true (r1 = r2)

(* Tracing and observing are read-only hooks: a traced run and an
   observed run must return exactly the untraced run's result, on both
   event-queue structures. *)
let test_openloop_hooks_preserve_outcome () =
  List.iter
    (fun queue ->
      let setup = openloop_setup ~queue (Core.Config.str ()) in
      let plain = Harness.Openloop.run setup in
      let trace = Obs.Trace.create () in
      let traced = Harness.Openloop.run ~trace setup in
      let observed = Harness.Openloop.run ~observer:(fun _ -> ()) setup in
      let name = match queue with `Heap -> "heap" | `Wheel -> "wheel" in
      Alcotest.(check bool) (name ^ ": traced = untraced") true (traced = plain);
      Alcotest.(check bool) (name ^ ": observed = untraced") true (observed = plain);
      Alcotest.(check bool) (name ^ ": trace sealed") true
        (Obs.Trace.find_stat trace "commits" <> None
        && Obs.Trace.find_stat trace "eq_pops" <> None))
    [ `Heap; `Wheel ]

let test_openloop_trace_critpath_exact () =
  let trace = Obs.Trace.create () in
  ignore (Harness.Openloop.run ~trace (openloop_setup (Core.Config.str ())));
  let txns = Obs.Critpath.of_trace trace in
  Alcotest.(check bool) "transactions traced" true (List.length txns > 100);
  List.iter
    (fun t ->
      Alcotest.(check int) "components sum to the span" (Obs.Critpath.total_us t)
        (Array.fold_left ( + ) 0 (Obs.Critpath.decompose t)))
    txns

let test_openloop_observed_spsi_clean () =
  let h = Spsi.History.create () in
  let r =
    Harness.Openloop.run ~observer:(Spsi.History.record h)
      (openloop_setup (Core.Config.str ()))
  in
  Alcotest.(check bool) "history recorded" true
    (Spsi.History.size h >= r.Harness.Openloop.completed);
  match Spsi.Checker.check_spsi h with
  | [] -> ()
  | vs -> Alcotest.fail (Spsi.Checker.report vs)

(* The population is one idle counter per DC: three million clients
   must cost nothing beyond the cluster itself.  A per-client array of
   any kind would alone allocate 3M words. *)
let test_openloop_population_is_free () =
  let setup =
    {
      (openloop_setup ~clients_per_dc:1_000_000 (Core.Config.str ())) with
      Harness.Openloop.warmup_us = 0;
      measure_us = 0;
    }
  in
  let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  let g0 = Gc.quick_stat () in
  let r = Harness.Openloop.run setup in
  let allocated = words (Gc.quick_stat ()) -. words g0 in
  Alcotest.(check int) "population" 3_000_000 r.Harness.Openloop.clients;
  if allocated >= 1e6 then
    Alcotest.failf "a zero-window run of 3M clients allocated %.0f words" allocated

(* --- malformed set-ups fail fast, naming the field ------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let rejects ~field what run =
  match run () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument msg ->
    if not (contains msg field) then
      Alcotest.failf "%s: message %S does not name %s" what msg field

(* Each bad value goes through both harnesses. *)
let rejects_both ~field ~closed ~opened =
  rejects ~field ("Runner.run " ^ field) (fun () ->
      Harness.Runner.run (closed (small_setup (Core.Config.str ()))));
  rejects ~field ("Openloop.run " ^ field) (fun () ->
      Harness.Openloop.run (opened (openloop_setup (Core.Config.str ()))))

let test_rejects_negative_warmup () =
  rejects_both ~field:"warmup_us"
    ~closed:(fun s -> { s with Harness.Runner.warmup_us = -1 })
    ~opened:(fun s -> { s with Harness.Openloop.warmup_us = -1 })

let test_rejects_negative_measure () =
  rejects_both ~field:"measure_us"
    ~closed:(fun s -> { s with Harness.Runner.measure_us = -1 })
    ~opened:(fun s -> { s with Harness.Openloop.measure_us = -1 })

let test_rejects_replication_factor () =
  List.iter
    (fun rf ->
      rejects_both ~field:"replication_factor"
        ~closed:(fun s -> { s with Harness.Runner.replication_factor = rf })
        ~opened:(fun s -> { s with Harness.Openloop.replication_factor = rf }))
    [ 0; 4 ]

let test_rejects_jitter () =
  List.iter
    (fun jitter ->
      rejects_both ~field:"jitter"
        ~closed:(fun s -> { s with Harness.Runner.jitter })
        ~opened:(fun s -> { s with Harness.Openloop.jitter }))
    [ -0.1; 1.; Float.nan ]

let test_rejects_arrival_rate () =
  List.iter
    (fun rate_per_dc ->
      rejects ~field:"rate_per_dc" (Printf.sprintf "rate %g" rate_per_dc) (fun () ->
          Harness.Openloop.run
            {
              (openloop_setup (Core.Config.str ())) with
              Harness.Openloop.arrival =
                { Workload.Arrival.rate_per_dc };
            }))
    [ 0.; -5.; Float.nan; Float.infinity ]

let test_rejects_no_clients () =
  rejects ~field:"clients_per_node" "Runner.run clients_per_node 0" (fun () ->
      Harness.Runner.run
        { (small_setup (Core.Config.str ())) with Harness.Runner.clients_per_node = 0 })

(* A plan naming a node the 3-DC set-up lacks, or an impossible loss
   probability, is rejected by both entry points that take a plan. *)
let test_rejects_fault_plan () =
  List.iter
    (fun (field, action) ->
      let fault_plan = [ (1_000, action) ] in
      rejects ~field ("Runner.run " ^ field) (fun () ->
          Harness.Runner.run
            { (small_setup (Core.Config.str ())) with Harness.Runner.fault_plan });
      rejects ~field ("Scenario.make " ^ field) (fun () ->
          Check.Scenario.make ~fault_plan ~dcs:3 ~keys:1 ~txs:1 ()))
    [
      ("node 12", Dsim.Fault.Crash 12);
      ("node 3", Dsim.Fault.Link_up (0, 3));
      ("node -1", Dsim.Fault.Partition ([ -1 ], [ 0 ]));
      ("probability 1", Dsim.Fault.Drop (0, 1, 1.));
    ]

let test_procpool_matches_inline () =
  (* Forked workers must return the same values in the same order as
     sequential execution, whatever the worker count. *)
  let cells = List.init 11 (fun i -> Harness.Sweep.cell i (fun () -> (i, i * i))) in
  let inline = Harness.Sweep.run ~jobs:1 cells in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d matches inline" jobs)
        true
        (Harness.Sweep.run ~jobs cells = inline))
    [ 2; 3; 16 ]

let test_procpool_propagates_failure () =
  let cells =
    [
      Harness.Sweep.cell "ok" (fun () -> 1);
      Harness.Sweep.cell "boom" (fun () -> failwith "cell exploded");
    ]
  in
  match Harness.Sweep.run ~jobs:2 cells with
  | _ -> Alcotest.fail "expected Cell_failed"
  | exception Harness.Procpool.Cell_failed msg ->
    Alcotest.(check bool) "message names the cell error" true
      (contains msg "cell exploded")

(* --- §6.1 storage accounting after load ---------------------------- *)

(* The 9-DC, rf-6 clusters of the paper's TPC-C and RUBiS experiments,
   right after the dataset load.  The figures were recorded when every
   replica still held its own copy of each loaded row; sharing one loaded
   dataset per partition must not move them.  [per_partition] lists, per
   partition, the (keys, versions, data bytes) every replica reports.
   Returns each partition's first replica store. *)
let check_loaded_storage ~workload_of ~breakdown ~per_partition =
  let placement = Store.Placement.ring ~n_nodes:9 ~replication_factor:6 () in
  let setup =
    Harness.Runner.default_setup ~workload:(workload_of placement)
      ~config:(Core.Config.str ())
  in
  let _sim, _net, pl, eng, _rng = Harness.Runner.build_cluster setup in
  setup.Harness.Runner.workload.Workload.Spec.load eng;
  Alcotest.(check (pair int int)) "storage breakdown" breakdown
    (Core.Engine.storage_breakdown eng);
  List.iteri
    (fun p expect ->
      Array.iter
        (fun node ->
          let s =
            Core.Partition_server.store (Core.Engine.server eng ~node ~partition:p)
          in
          Alcotest.(check (triple int int int))
            (Printf.sprintf "p%d at node %d: keys, versions, bytes" p node)
            expect
            Store.Mvstore.(key_count s, version_count s, fst (storage_bytes s)))
        (Store.Placement.replicas pl p))
    per_partition;
  List.mapi
    (fun p _ ->
      let node = (Store.Placement.replicas pl p).(0) in
      Core.Partition_server.store (Core.Engine.server eng ~node ~partition:p))
    per_partition

(* The loaded TPC-C rows repeat (every customer row is the same, stock
   rows differ only in price), and keys loaded with one row share its
   version, so a row costs its key and table cell. *)
let test_storage_tpcc_loaded () =
  let a = (10105, 10105, 2039810) and b = (10105, 10105, 2049915) in
  let stores =
    check_loaded_storage
      ~workload_of:(fun pl -> fst (Workload.Tpcc.make pl))
      ~breakdown:(110574150, 13096080)
      ~per_partition:[ a; a; b; b; b; b; b; b; b ]
  in
  let rows = List.fold_left (fun n s -> n + Store.Mvstore.key_count s) 0 stores in
  let words =
    Obj.reachable_words (Obj.repr (List.map Store.Mvstore.dataset stores))
  in
  let per_row = float_of_int words /. float_of_int rows in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f <= 13.66 dataset words per loaded row" per_row)
    true (per_row <= 13.66)

let test_storage_rubis_loaded () =
  let mid = (614, 614, 177954) in
  ignore
    (check_loaded_storage ~workload_of:Workload.Rubis.make ~breakdown:(9610824, 795888)
       ~per_partition:
         [ (615, 615, 178128); (615, 615, 178132); mid; mid; mid; mid; mid; mid; (613, 613, 177820) ])

let () =
  Alcotest.run "harness"
    [
      ( "metrics",
        [
          Alcotest.test_case "percentiles" `Quick test_metrics_percentiles;
          Alcotest.test_case "empty" `Quick test_metrics_empty;
          Alcotest.test_case "buffer growth" `Quick test_metrics_growth;
          Alcotest.test_case "interleaved record/summarize" `Quick test_metrics_interleaved;
          QCheck_alcotest.to_alcotest prop_metrics_p50_is_median;
        ] );
      ("report", [ Alcotest.test_case "render" `Quick test_report_render ]);
      ( "storage",
        [
          Alcotest.test_case "tpcc loaded" `Quick test_storage_tpcc_loaded;
          Alcotest.test_case "rubis loaded" `Quick test_storage_rubis_loaded;
        ] );
      ( "runner",
        [
          Alcotest.test_case "end to end" `Quick test_runner_end_to_end;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "ext-spec latency" `Quick test_runner_ext_spec_records_spec_latency;
          Alcotest.test_case "observer" `Quick test_runner_observer;
        ] );
      ( "stats",
        [
          Alcotest.test_case "delta" `Quick test_delta_stats;
          Alcotest.test_case "rates" `Quick test_stats_rates;
          Alcotest.test_case "sum" `Quick test_stats_sum;
        ] );
      ( "client",
        [
          Alcotest.test_case "retries counted" `Quick test_client_retries_counted;
          Alcotest.test_case "per-label sorted" `Quick test_per_label_sorted;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "end to end" `Quick test_openloop_end_to_end;
          Alcotest.test_case "saturation drops" `Quick test_openloop_saturation_drops;
          Alcotest.test_case "wheel matches heap" `Quick test_openloop_wheel_matches_heap;
          Alcotest.test_case "deterministic" `Quick test_openloop_deterministic;
          Alcotest.test_case "trace and observer keep the outcome" `Quick
            test_openloop_hooks_preserve_outcome;
          Alcotest.test_case "traced critical paths exact" `Quick
            test_openloop_trace_critpath_exact;
          Alcotest.test_case "observed history SPSI-clean" `Quick
            test_openloop_observed_spsi_clean;
          Alcotest.test_case "population allocates nothing" `Quick
            test_openloop_population_is_free;
          Alcotest.test_case "procpool matches inline" `Quick test_procpool_matches_inline;
          Alcotest.test_case "procpool propagates failure" `Quick test_procpool_propagates_failure;
        ] );
      ( "setup-validation",
        [
          Alcotest.test_case "negative warmup_us" `Quick test_rejects_negative_warmup;
          Alcotest.test_case "negative measure_us" `Quick test_rejects_negative_measure;
          Alcotest.test_case "replication_factor out of range" `Quick
            test_rejects_replication_factor;
          Alcotest.test_case "jitter out of range" `Quick test_rejects_jitter;
          Alcotest.test_case "arrival rate not positive" `Quick test_rejects_arrival_rate;
          Alcotest.test_case "clients_per_node below 1" `Quick test_rejects_no_clients;
          Alcotest.test_case "fault plan out of range" `Quick test_rejects_fault_plan;
        ] );
      ( "bench-json",
        [
          Alcotest.test_case "roundtrip" `Quick test_bench_json_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_bench_json_rejects_malformed;
          Alcotest.test_case "diff verdicts" `Quick test_bench_json_diff_verdicts;
          Alcotest.test_case "runner smoke" `Quick test_bench_json_from_runner;
        ] );
    ]

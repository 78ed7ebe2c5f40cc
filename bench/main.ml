(* Benchmark harness.

   Default mode runs a Bechamel suite with one Test.make per paper
   artifact (a scaled-down simulation of that experiment) plus
   micro-benchmarks of the core data structures.  The paper's tables
   themselves are printed by `str_sim all` (`make tables-quick`).

     dune exec bench/main.exe            # bechamel suite
     dune exec bench/main.exe -- micro   # same
     dune exec bench/main.exe -- json [OUT]  # write OUT (default BENCH.json)
                                             # + diff baseline
     dune exec bench/main.exe -- scale [OUT] # million-client open-loop probe
                                             # (wheel vs heap) + json rows *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Bechamel suite                                                       *)
(* ------------------------------------------------------------------ *)

(* A miniature run of one experiment cell: small client count, short
   window.  One of these per paper table/figure, so the suite exercises
   every experiment code path under the measurement loop. *)
let mini_experiment_result ?trace ?(fault_plan = []) ~workload_of ~config () =
  let placement = Store.Placement.ring ~n_nodes:9 ~replication_factor:6 () in
  let setup =
    {
      (Harness.Runner.default_setup ~workload:(workload_of placement) ~config) with
      clients_per_node = 5;
      warmup_us = 200_000;
      measure_us = 500_000;
      jitter = 0.;
      fault_plan;
    }
  in
  Harness.Runner.run ?trace setup

let mini_experiment ~workload_of ~config () =
  let r = mini_experiment_result ~workload_of ~config () in
  Sys.opaque_identity r.Harness.Runner.committed

let synth params () =
  mini_experiment
    ~workload_of:(fun pl -> Workload.Synthetic.make ~params pl)
    ~config:(Core.Config.str ()) ()

let experiment_tests =
  Test.make_grouped ~name:"experiments"
    [
      Test.make ~name:"fig3a-synth-a" (Staged.stage (fun () -> synth Workload.Synthetic.synth_a ()));
      Test.make ~name:"fig3b-synth-b" (Staged.stage (fun () -> synth Workload.Synthetic.synth_b ()));
      Test.make ~name:"fig4-selftuning"
        (Staged.stage (fun () ->
             mini_experiment
               ~workload_of:(fun pl ->
                 Workload.Synthetic.make ~params:Workload.Synthetic.synth_b pl)
               ~config:(Core.Config.str ()) ()));
      Test.make ~name:"table1-precise-clocks"
        (Staged.stage (fun () ->
             mini_experiment
               ~workload_of:(fun pl ->
                 Workload.Synthetic.make ~params:Harness.Experiments.table1_base pl)
               ~config:(Core.Config.precise_sr ()) ()));
      Test.make ~name:"fig5-tpcc"
        (Staged.stage (fun () ->
             mini_experiment
               ~workload_of:(fun pl -> fst (Workload.Tpcc.make pl))
               ~config:(Core.Config.str ()) ()));
      Test.make ~name:"fig6-rubis"
        (Staged.stage (fun () ->
             mini_experiment
               ~workload_of:(fun pl -> Workload.Rubis.make pl)
               ~config:(Core.Config.str ()) ()));
    ]

(* Micro-benchmarks of the substrate hot paths. *)
let micro_tests =
  let eq_bench () =
    let q = Dsim.Event_queue.create () in
    for i = 0 to 999 do
      Dsim.Event_queue.push q ~time:(i * 7919 mod 1000) i
    done;
    let acc = ref 0 in
    while not (Dsim.Event_queue.is_empty q) do
      acc := !acc + snd (Dsim.Event_queue.pop q)
    done;
    Sys.opaque_identity !acc
  in
  (* Protocol-shaped chain workout: every insert is preceded by the
     timestamp-proposal lookup (the newest version, as
     [Partition_server.prepare] reads it) and followed by a
     mid-history snapshot read (as transaction reads do); the tail is
     the local-commit path — a pending version raised and repositioned — and a GC
     prune.  This is the per-prepare cost profile of the simulator's
     innermost loop. *)
  let chain_bench () =
    let c = ref (Store.Chain.create ()) in
    let acc = ref 0 in
    for i = 1 to 200 do
      (match Store.Chain.latest_before !c ~rs:max_int with
       | Some v -> acc := !acc + Store.Version.ts v
       | None -> ());
      c :=
        Store.Chain.insert !c
          (Store.Version.make
             ~writer:(Store.Txid.make ~origin:0 ~number:i)
             ~state:Store.Version.Committed ~ts:(i * 3)
             ~value:(Store.Keyspace.Value.Int i));
      (match Store.Chain.latest_before !c ~rs:(i * 3 / 2) with
       | Some v -> acc := !acc + Store.Version.ts v
       | None -> ())
    done;
    let v =
      Store.Version.make
        ~writer:(Store.Txid.make ~origin:0 ~number:201)
        ~state:Store.Version.Pre_committed ~ts:601 ~value:(Store.Keyspace.Value.Int 201)
    in
    c := Store.Chain.insert !c v;
    Store.Version.local_commit v ~lc:602;
    Store.Chain.reposition !c v;
    acc := !acc + Store.Chain.length (Store.Chain.prune !c ~horizon:300);
    Sys.opaque_identity !acc
  in
  let rng_bench () =
    let rng = Dsim.Rng.create ~seed:7 in
    let acc = ref 0 in
    for _ = 1 to 1000 do
      acc := !acc + Dsim.Rng.int rng 1_000_000
    done;
    Sys.opaque_identity !acc
  in
  let zipf_bench () =
    let z = Workload.Zipf.make ~n:1000 ~theta:0.9 in
    let rng = Dsim.Rng.create ~seed:7 in
    let acc = ref 0 in
    for _ = 1 to 1000 do
      acc := !acc + Workload.Zipf.draw z rng
    done;
    Sys.opaque_identity !acc
  in
  (* Observability overhead probe: the same mini experiment with
     tracing off (the [Obs] hooks reduce to one branch each) and with a
     live recorder.  The off row must stay within noise of the
     pre-tracing baseline; the on row prices the recorder itself. *)
  let trace_bench ~on () =
    let trace = if on then Some (Obs.Trace.create ()) else None in
    let r =
      mini_experiment_result ?trace
        ~workload_of:(fun pl ->
          Workload.Synthetic.make ~params:Workload.Synthetic.synth_a pl)
        ~config:(Core.Config.str ()) ()
    in
    Sys.opaque_identity r.Harness.Runner.committed
  in
  (* Causal-edge overhead probe: the same traced mini experiment with
     the causal-edge store disabled.  It is full span tracing minus edge
     recording (each [Trace.edge] is one branch); the delta against the
     trace-on row, whose recorder keeps edges by default, prices exactly
     what the critical-path decomposition costs — one appended edge
     record per delivered wire message. *)
  let causal_off_bench () =
    let trace = Obs.Trace.create ~causal:false () in
    let r =
      mini_experiment_result ~trace
        ~workload_of:(fun pl ->
          Workload.Synthetic.make ~params:Workload.Synthetic.synth_a pl)
        ~config:(Core.Config.str ()) ()
    in
    Sys.opaque_identity r.Harness.Runner.committed
  in
  (* Fault-machinery overhead probe: the same mini experiment with the
     fault layer installed but no fault ever firing (the plan is one
     immediate [Heal] of an already-clean link state).  This prices
     what every faulted run pays on the hot path — the per-delivery
     cut/loss gate plus the per-send incarnation-epoch capture — and
     must stay within noise of the fig3a row, which runs the identical
     workload with no layer at all. *)
  let fault_off_bench () =
    let r =
      mini_experiment_result
        ~fault_plan:[ (0, Dsim.Fault.Heal) ]
        ~workload_of:(fun pl ->
          Workload.Synthetic.make ~params:Workload.Synthetic.synth_a pl)
        ~config:(Core.Config.str ()) ()
    in
    Sys.opaque_identity r.Harness.Runner.committed
  in
  (* Coalescing machinery probe: the same mini experiment with the
     per-wire-message dispatch cost on ([cost_msg = 20]) for BOTH rows,
     unbatched vs a 300 µs window.  The off row prices the dispatch-cost
     model itself; the on row prices the link queues + flush timers on
     top (at mini-cell load the occupancy is near 1, so this is the
     overhead floor, not the amortization win — that is measured by the
     open-loop experiment cells in BENCH.json). *)
  let batch_bench ~on () =
    let config =
      Core.Config.with_batching
        ~batch_window_us:(if on then 300 else 0)
        ~batch_max:16 ~cost_msg:20 (Core.Config.str ())
    in
    let r =
      mini_experiment_result
        ~workload_of:(fun pl ->
          Workload.Synthetic.make ~params:Workload.Synthetic.synth_a pl)
        ~config ()
    in
    Sys.opaque_identity r.Harness.Runner.committed
  in
  Test.make_grouped ~name:"micro"
    [
      Test.make ~name:"event-queue-1k" (Staged.stage eq_bench);
      Test.make ~name:"chain-200-inserts" (Staged.stage chain_bench);
      Test.make ~name:"rng-1k" (Staged.stage rng_bench);
      Test.make ~name:"zipf-1k" (Staged.stage zipf_bench);
      Test.make ~name:"trace-off-mini" (Staged.stage (fun () -> trace_bench ~on:false ()));
      Test.make ~name:"trace-on-mini" (Staged.stage (fun () -> trace_bench ~on:true ()));
      Test.make ~name:"fault-off-mini" (Staged.stage fault_off_bench);
      Test.make ~name:"batch-off-mini" (Staged.stage (fun () -> batch_bench ~on:false ()));
      Test.make ~name:"batch-on-mini" (Staged.stage (fun () -> batch_bench ~on:true ()));
      Test.make ~name:"causal-off-mini" (Staged.stage causal_off_bench);
    ]

(* Run a bechamel suite and return [(name, ns_per_run option)] rows
   sorted by name. *)
let bechamel_rows tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~stabilize:false ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.map
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ t ] -> (name, Some t)
      | Some _ | None -> (name, None))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

let run_bechamel () =
  let tests = Test.make_grouped ~name:"str" [ experiment_tests; micro_tests ] in
  print_endline "== Bechamel: one Test per paper artifact + substrate micro-benches ==";
  List.iter
    (fun (name, est) ->
      match est with
      | Some t -> Printf.printf "  %-45s %14.0f ns/run\n" name t
      | None -> Printf.printf "  %-45s (no estimate)\n" name)
    (bechamel_rows tests)

(* ------------------------------------------------------------------ *)
(* Machine-readable report (BENCH.json)                                 *)
(* ------------------------------------------------------------------ *)

module BJ = Harness.Bench_json

(* Quick-experiment cells: one per protocol on the synthetic workload
   the paper's Fig. 3(a) uses; throughput/abort-rate go into the
   report so baseline diffs catch protocol-level slowdowns, not just
   data-structure ones. *)
let json_experiment_cells =
  [
    ("str", fun () -> Core.Config.str ());
    ("clocksi-rep", fun () -> Core.Config.clocksi_rep ());
    ("ext-spec", fun () -> Core.Config.ext_spec ());
  ]

(* Batching A/B cell: contended open-loop Synth-A at high offered load
   (2000 clients/DC injected at 1600 tx/s/DC — far past saturation, so
   committed tx/s is CPU-bound), with the per-wire-message dispatch
   cost on ([cost_msg = 60 µs]) for BOTH sides.  The on side coalesces
   with a 2 ms window; the committed-tx/s delta is the amortization win
   of batching the certification/replication pipeline.  Deterministic
   in the seed, so the ratio is exactly reproducible. *)
let batch_ab_result ~window () =
  let placement = Store.Placement.ring ~n_nodes:9 ~replication_factor:6 () in
  let config =
    Core.Config.with_batching ~batch_window_us:window ~batch_max:32 ~cost_msg:60
      (Core.Config.str ())
  in
  let setup =
    {
      (Harness.Openloop.default_setup
         ~workload:
           (Workload.Synthetic.make ~params:Workload.Synthetic.synth_a placement)
         ~config)
      with
      Harness.Openloop.clients_per_dc = 2_000;
      arrival = Workload.Arrival.poisson ~rate_per_dc:1_600.;
      warmup_us = 300_000;
      measure_us = 700_000;
      seed = 61;
      jitter = 0.02;
    }
  in
  Harness.Openloop.run setup

let batch_ab_cells () =
  let off = batch_ab_result ~window:0 () in
  let on = batch_ab_result ~window:2_000 () in
  let gain =
    100. *. (on.Harness.Openloop.throughput /. off.Harness.Openloop.throughput -. 1.)
  in
  Printf.printf
    "batching A/B (open-loop synth-a, 1600 tx/s/DC, cost_msg=60us): off %.1f tx/s, \
     on %.1f tx/s (%+.1f%%, %.2f payloads/flush)\n"
    off.Harness.Openloop.throughput on.Harness.Openloop.throughput gain
    (float_of_int on.Harness.Openloop.batch_payloads
    /. float_of_int (max 1 on.Harness.Openloop.batch_flushes));
  [
    {
      BJ.protocol = "str-batch-off";
      workload = "synth-a-open";
      throughput = off.Harness.Openloop.throughput;
      abort_rate = off.Harness.Openloop.abort_rate;
    };
    {
      BJ.protocol = "str-batch-on";
      workload = "synth-a-open";
      throughput = on.Harness.Openloop.throughput;
      abort_rate = on.Harness.Openloop.abort_rate;
    };
  ]

let baseline_paths = [ "bench/BENCH.baseline.json"; "BENCH.baseline.json" ]

let strip_group name =
  match String.index_opt name '/' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let run_json ?(extra_micro = []) ?(out = "BENCH.json") () =
  let t0 = Unix.gettimeofday () in
  let micro =
    List.filter_map
      (fun (name, est) ->
        match est with
        | Some ns -> Some { BJ.bench_name = strip_group name; ns_per_run = ns }
        | None -> None)
      (bechamel_rows micro_tests)
    @ extra_micro
  in
  let experiments =
    List.map
      (fun (proto, config) ->
        let r =
          mini_experiment_result
            ~workload_of:(fun pl ->
              Workload.Synthetic.make ~params:Workload.Synthetic.synth_a pl)
            ~config:(config ()) ()
        in
        {
          BJ.protocol = proto;
          workload = "synth-a";
          throughput = r.Harness.Runner.throughput;
          abort_rate = r.Harness.Runner.abort_rate;
        })
      json_experiment_cells
    @ batch_ab_cells ()
  in
  let report =
    BJ.make ~micro ~experiments ~wall_clock_s:(Unix.gettimeofday () -. t0)
  in
  (match BJ.validate report with
   | Ok () -> ()
   | Error e ->
     Printf.eprintf "internal error: generated report invalid: %s\n" e;
     exit 1);
  (match BJ.write_file out report with
   | Ok () -> Printf.printf "wrote %s (%d micro, %d experiment cells)\n" out
                (List.length micro) (List.length experiments)
   | Error e ->
     Printf.eprintf "cannot write %s: %s\n" out e;
     exit 1);
  match List.find_opt Sys.file_exists baseline_paths with
  | None ->
    print_endline "no baseline (bench/BENCH.baseline.json); skipping diff"
  | Some path -> (
    match BJ.read_file path with
    | Error e ->
      Printf.eprintf "cannot read baseline %s: %s\n" path e;
      exit 1
    | Ok baseline -> (
      match BJ.diff ~baseline ~current:report with
      | Error e ->
        Printf.eprintf "cannot diff against %s: %s\n" path e;
        exit 1
      | Ok deltas ->
        Printf.printf "== diff vs %s ==\n%s" path (BJ.render_diff deltas)))

(* ------------------------------------------------------------------ *)
(* Million-client scale probe (`scale` mode, `make bench-scale`)        *)
(* ------------------------------------------------------------------ *)

(* Peak resident set size in KiB from /proc/self/status (Linux VmHWM);
   0 where the file or the field is missing. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          let digits =
            String.to_seq line
            |> Seq.filter (fun c -> c >= '0' && c <= '9')
            |> String.of_seq
          in
          scan (match int_of_string_opt digits with Some k -> k | None -> acc)
        else scan acc
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> scan 0)

(* Arrival-heavy, contention-light: every access cold-uniform so latency
   stays near the WAN floor and the event queue is dominated by the
   near-horizon arrival/timer churn the wheel is built for. *)
let scale_params =
  {
    Workload.Synthetic.default with
    hot_prob = 0.0;
    local_space = 20_000;
    remote_space = 20_000;
    remote_access_prob = 0.1;
  }

let scale_clients_per_dc = 111_112 (* 9 DCs -> 1,000,008 clients *)

let scale_setup ?(batch = false) ~queue () =
  let placement = Store.Placement.ring ~n_nodes:9 ~replication_factor:6 () in
  let config =
    if batch then
      Core.Config.with_batching ~batch_window_us:300 ~batch_max:16
        (Core.Config.str ())
    else Core.Config.str ()
  in
  {
    (Harness.Openloop.default_setup
       ~workload:(Workload.Synthetic.make ~params:scale_params placement)
       ~config)
    with
    clients_per_dc = scale_clients_per_dc;
    arrival = Workload.Arrival.poisson ~rate_per_dc:5_000.;
    warmup_us = 300_000;
    measure_us = 700_000;
    seed = 9;
    queue;
  }

let scale_probe ?batch ~queue () =
  Gc.compact ();
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let r = Harness.Openloop.run (scale_setup ?batch ~queue ()) in
  let wall = Unix.gettimeofday () -. t0 in
  let bytes = Gc.allocated_bytes () -. alloc0 in
  (r, wall, bytes)

let run_scale ?(out = "BENCH.json") () =
  Printf.eprintf "scale: open-loop, %d clients, heap...\n%!" (9 * scale_clients_per_dc);
  let rh, wall_h, bytes_h = scale_probe ~queue:`Heap () in
  Printf.eprintf "scale: same run on the timer wheel...\n%!";
  let rw, wall_w, bytes_w = scale_probe ~queue:`Wheel () in
  Printf.eprintf "scale: same run with message coalescing on...\n%!";
  let rb, wall_b, _ = scale_probe ~batch:true ~queue:`Heap () in
  let eps_h = float_of_int rh.Harness.Openloop.events /. wall_h in
  let eps_w = float_of_int rw.Harness.Openloop.events /. wall_w in
  let identical =
    rh.Harness.Openloop.completed = rw.Harness.Openloop.completed
    && rh.Harness.Openloop.admitted = rw.Harness.Openloop.admitted
    && rh.Harness.Openloop.dropped = rw.Harness.Openloop.dropped
    && rh.Harness.Openloop.events = rw.Harness.Openloop.events
    && rh.Harness.Openloop.final_latency = rw.Harness.Openloop.final_latency
  in
  Printf.printf
    "== scale: open-loop, %d clients on the 9-DC grid ==\n\
    \  completed %d, admitted %d, dropped %d, peak in flight %d\n\
    \  heap : %10.0f events/s  (%.1fs wall, %.0f B/event)\n\
    \  wheel: %10.0f events/s  (%.1fs wall, %.0f B/event)\n\
    \  wheel/heap results identical: %b\n\
    \  peak RSS: %d KiB\n"
    rh.Harness.Openloop.clients rh.Harness.Openloop.completed
    rh.Harness.Openloop.admitted rh.Harness.Openloop.dropped
    rh.Harness.Openloop.peak_in_flight eps_h wall_h
    (bytes_h /. float_of_int rh.Harness.Openloop.events)
    eps_w wall_w
    (bytes_w /. float_of_int rw.Harness.Openloop.events)
    identical (peak_rss_kb ());
  (* Batched row: the coalescing machinery at 1M-client scale.  This
     workload is arrival-heavy and contention-light, so per-link
     occupancy sits near 1 and the row prices the overhead floor
     (flush-timer events, window-held completions) rather than the
     amortization win — that is what the contended A/B cells measure. *)
  Printf.printf
    "  batched (300us window): completed %d, %d events (%.2fx), %.2f \
     payloads/flush, %.1fs wall\n"
    rb.Harness.Openloop.completed rb.Harness.Openloop.events
    (float_of_int rb.Harness.Openloop.events /. float_of_int rh.Harness.Openloop.events)
    (float_of_int rb.Harness.Openloop.batch_payloads
    /. float_of_int (max 1 rb.Harness.Openloop.batch_flushes))
    wall_b;
  if not identical then begin
    prerr_endline "scale: wheel and heap runs diverged (determinism bug)";
    exit 1
  end;
  let row name v = { BJ.bench_name = name; ns_per_run = v } in
  let rows =
    [
      row "openloop-1m-clients" (float_of_int rh.Harness.Openloop.clients);
      row "openloop-1m-completed" (float_of_int rh.Harness.Openloop.completed);
      row "openloop-1m-dropped" (float_of_int rh.Harness.Openloop.dropped);
      row "openloop-1m-peak-in-flight"
        (float_of_int rh.Harness.Openloop.peak_in_flight);
      row "openloop-1m-events" (float_of_int rh.Harness.Openloop.events);
      row "openloop-1m-heap-events-per-s" eps_h;
      row "openloop-1m-wheel-events-per-s" eps_w;
      row "openloop-1m-heap-bytes-per-event"
        (bytes_h /. float_of_int rh.Harness.Openloop.events);
      row "openloop-1m-wheel-bytes-per-event"
        (bytes_w /. float_of_int rw.Harness.Openloop.events);
      row "openloop-1m-peak-rss-kb" (float_of_int (peak_rss_kb ()));
      row "openloop-1m-batch-completed" (float_of_int rb.Harness.Openloop.completed);
      row "openloop-1m-batch-events" (float_of_int rb.Harness.Openloop.events);
      row "openloop-1m-batch-events-per-s"
        (float_of_int rb.Harness.Openloop.events /. wall_b);
      row "openloop-1m-batch-payloads-per-flush"
        (float_of_int rb.Harness.Openloop.batch_payloads
        /. float_of_int (max 1 rb.Harness.Openloop.batch_flushes));
    ]
  in
  run_json ~extra_micro:rows ~out ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ "micro" ] -> run_bechamel ()
  | [ "json" ] -> run_json ()
  | [ "json"; out ] -> run_json ~out ()
  | [ "scale" ] -> run_scale ()
  | [ "scale"; out ] -> run_scale ~out ()
  | other ->
    Printf.eprintf "unknown arguments: %s\n" (String.concat " " other);
    exit 2

(* TPC-C on nine regions: run the paper's TPC-C mix A under STR and
   under ClockSI-Rep and compare the order-processing pipeline end to
   end, with per-transaction-type latency.

     dune exec examples/tpcc_demo.exe *)

let run name config =
  let placement = Store.Placement.ring ~n_nodes:9 ~replication_factor:6 () in
  let workload, counters = Workload.Tpcc.make ~mix:Workload.Tpcc.mix_a placement in
  let setup =
    {
      (Harness.Runner.default_setup ~workload ~config) with
      clients_per_node = 120;
      warmup_us = 3_000_000;
      measure_us = 6_000_000;
      seed = 7;
    }
  in
  (* Peek into per-type latency via the shared client metrics: re-run the
     runner logic inline so we keep the `shared` record. *)
  let sim, _net, _pl, eng, rng = Harness.Runner.build_cluster setup in
  workload.Workload.Spec.load eng;
  let shared = Harness.Runner.spawn_clients setup ~eng ~rng in
  let measure_from = setup.Harness.Runner.warmup_us in
  ignore (Dsim.Sim.run ~until:measure_from sim);
  let s1 = Core.Stats.copy (Core.Engine.total_stats eng) in
  ignore (Dsim.Sim.run ~until:(measure_from + setup.Harness.Runner.measure_us) sim);
  let s2 = Core.Stats.copy (Core.Engine.total_stats eng) in
  let commits = s2.Core.Stats.commits - s1.Core.Stats.commits in
  Printf.printf "=== %s ===\n" name;
  Printf.printf "  throughput : %.1f tx/s\n"
    (float_of_int commits /. Dsim.Sim.to_sec setup.Harness.Runner.measure_us);
  Printf.printf "  spec reads : %d\n" (s2.Core.Stats.spec_reads - s1.Core.Stats.spec_reads);
  List.iter
    (fun (label, m) ->
      let s = Harness.Metrics.summarize m in
      Printf.printf "  %-14s n=%5d  p50=%7.1fms  p95=%7.1fms\n" label
        s.Harness.Metrics.count
        (float_of_int s.Harness.Metrics.p50_us /. 1000.)
        (float_of_int s.Harness.Metrics.p95_us /. 1000.))
    (Harness.Client.per_label_sorted shared);
  Printf.printf "  order-status scans: %d orders, %d broken order-lines (must be 0)\n\n"
    counters.Workload.Tpcc.orders_checked counters.Workload.Tpcc.null_order_lines;
  if counters.Workload.Tpcc.null_order_lines > 0 then exit 1

let () =
  run "STR (speculation on)" (Core.Config.str ());
  run "ClockSI-Rep (baseline)" (Core.Config.clocksi_rep ())

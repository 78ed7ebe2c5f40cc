(* Fault tolerance (§5.6): a nine-region cluster running TPC-C loses a
   whole data center mid-run; the failure detector purges its in-doubt
   transactions, the closest live slaves are promoted to masters, and
   the surviving regions keep committing.

     dune exec examples/failover_demo.exe *)

let () =
  let placement = Store.Placement.ring ~n_nodes:9 ~replication_factor:6 () in
  let workload, _ = Workload.Tpcc.make ~mix:Workload.Tpcc.mix_b placement in
  let setup =
    {
      (Harness.Runner.default_setup ~workload ~config:(Core.Config.str ())) with
      clients_per_node = 80;
      warmup_us = 0;
      measure_us = 20_000_000;
      seed = 23;
    }
  in
  let sim, _net, _pl, eng, rng = Harness.Runner.build_cluster setup in
  workload.Workload.Spec.load eng;
  let horizon = setup.Harness.Runner.measure_us in
  ignore (Harness.Runner.spawn_clients setup ~eng ~rng);
  let victim = 3 in
  Dsim.Sim.schedule sim ~delay:8_000_000 (fun () ->
      Printf.printf "[ 8.0s] *** data center %d (%s) crashes ***\n" victim
        (Dsim.Topology.name Dsim.Topology.ec2_nine victim);
      Core.Engine.crash eng victim);
  let last = ref 0 in
  let rec telemetry () =
    Dsim.Sim.schedule sim ~delay:2_000_000 (fun () ->
        let now = Core.Engine.total_commits eng in
        Printf.printf "[%4.1fs] throughput %4d tx/s   (%d/9 regions alive)\n"
          (Dsim.Sim.to_sec (Dsim.Sim.now sim))
          ((now - !last) / 2)
          (let alive = ref 0 in
           for n = 0 to 8 do
             if Core.Engine.is_alive eng n then incr alive
           done;
           !alive);
        last := now;
        if Dsim.Sim.now sim < horizon then telemetry ())
  in
  telemetry ();
  ignore (Dsim.Sim.run ~until:horizon sim);
  let stats = Core.Engine.total_stats eng in
  Printf.printf
    "\ntotal: %d commits; aborts by node failure: %d; cluster invariants: %s\n"
    stats.Core.Stats.commits stats.Core.Stats.aborts_node_failure
    (match Core.Engine.check_invariants eng with Ok () -> "OK" | Error e -> e)

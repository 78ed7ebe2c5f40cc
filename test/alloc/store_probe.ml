(* The replica stores' size at the end of a run, shared by [alloc_words]
   (the [alloc.expected] golden) and [test_protocol]'s layout checks.

   [open_loop] transcribes [Harness.Openloop.run] (same construction
   order, RNG splits and arrival chains) with [open-1m]'s synthetic
   parameters, and returns the engine after the drain, which
   [Openloop.run] keeps to itself. *)

module Mvstore = Store.Mvstore
module Placement = Store.Placement

(* [open-1m]'s workload: uniform cold keys, 10% remote accesses. *)
let open_params =
  {
    Workload.Synthetic.default with
    hot_prob = 0.0;
    local_space = 20_000;
    remote_space = 20_000;
    remote_access_prob = 0.1;
  }

(* Nine EC2 DCs, rf 6, STR, 111,112 clients per DC at Poisson 200 tx/s
   per DC, [warmup_us] + [measure_us] and a 200 ms drain. *)
let open_loop ~warmup_us ~measure_us ~seed =
  let topology = Dsim.Topology.ec2_nine in
  let sim, net, placement, eng, rng =
    Harness.Runner.make_cluster ~topology ~replication_factor:6
      ~config:(Core.Config.str ()) ~seed ~jitter:0.02 ()
  in
  let spec = Workload.Synthetic.make ~params:open_params placement in
  spec.Workload.Spec.load eng;
  let arrival = Workload.Arrival.poisson ~rate_per_dc:200. in
  let measure_from = warmup_us and measure_to = warmup_us + measure_us in
  let shared = Harness.Client.make_shared ~measure_from ~measure_to in
  let dcs = Dsim.Topology.size topology in
  let idle = Array.make dcs 111_112 in
  for dc = 0 to dcs - 1 do
    let arng = Dsim.Rng.split rng in
    let rec arrive () =
      if Dsim.Sim.now sim < measure_to then begin
        if idle.(dc) > 0 then begin
          idle.(dc) <- idle.(dc) - 1;
          let program = spec.Workload.Spec.next_program arng ~node:dc in
          let t0 = Dsim.Sim.now sim in
          Dsim.Fiber.spawn sim (fun () ->
              Harness.Client.execute eng shared ~node:dc ~stop_at:measure_to program ~t0;
              idle.(dc) <- idle.(dc) + 1)
        end;
        Dsim.Sim.schedule sim ~delay:(Workload.Arrival.interarrival_us arrival arng) arrive
      end
    in
    Dsim.Sim.schedule sim ~delay:(Workload.Arrival.interarrival_us arrival arng) arrive
  done;
  ignore (Harness.Runner.run_window ~sim ~net ~eng ~measure_from ~measure_to ());
  eng

(* Every replica store of every partition, partition by partition in
   replica-rank order. *)
let replica_stores eng =
  let placement = Core.Engine.placement eng in
  Array.concat
    (List.init (Placement.n_partitions placement) (fun p ->
         Array.map
           (fun r -> Core.Partition_server.store (Core.Engine.server eng ~node:r ~partition:p))
           (Placement.replicas placement p)))

(* Heap words reachable from all the replica stores at once, so a block
   the replicas share (a directory, a chain, a version) counts once. *)
let store_words eng = Obj.reachable_words (Obj.repr (replica_stores eng))

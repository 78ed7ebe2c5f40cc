(* Unit + property tests for the discrete-event substrate. *)

module Sim = Dsim.Sim
module EQ = Dsim.Event_queue

let test_event_order () =
  let q = EQ.create () in
  EQ.push q ~time:5 "c";
  EQ.push q ~time:1 "a";
  EQ.push q ~time:3 "b";
  EQ.push q ~time:1 "a2";
  let order = List.init 4 (fun _ -> snd (EQ.pop q)) in
  Alcotest.(check (list string)) "pop order" [ "a"; "a2"; "b"; "c" ] order

let test_sim_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:10 (fun () -> log := "b" :: !log);
  Sim.schedule sim ~delay:5 (fun () ->
      log := "a" :: !log;
      Sim.schedule sim ~delay:20 (fun () -> log := "c" :: !log));
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "exec order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "final time" 25 (Sim.now sim)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(i * 10) (fun () -> incr fired)
  done;
  ignore (Sim.run ~until:55 sim);
  Alcotest.(check int) "events before cutoff" 5 !fired;
  Alcotest.(check int) "clock at cutoff" 55 (Sim.now sim);
  ignore (Sim.run sim);
  Alcotest.(check int) "rest flushed" 10 !fired

let test_fiber_sleep () =
  let sim = Sim.create () in
  let t = ref (-1) in
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.sleep sim 100;
      Dsim.Fiber.sleep sim 50;
      t := Sim.now sim);
  ignore (Sim.run sim);
  Alcotest.(check int) "slept 150" 150 !t

let test_ivar_fiber_handoff () =
  let sim = Sim.create () in
  let iv = Dsim.Ivar.create () in
  let got = ref 0 in
  Dsim.Fiber.spawn sim (fun () -> got := Dsim.Fiber.await iv);
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.sleep sim 42;
      Dsim.Ivar.fill iv 7);
  ignore (Sim.run sim);
  Alcotest.(check int) "value" 7 !got

(* A fiber counts as live from its spawn until its function returns or
   raises, blocked or not. *)
let test_fiber_live_count () =
  let sim = Sim.create () in
  let iv = Dsim.Ivar.create () in
  let live = ref [] in
  let probe () = live := Dsim.Fiber.live sim :: !live in
  Dsim.Fiber.spawn sim (fun () -> ignore (Dsim.Fiber.await iv));
  Dsim.Fiber.spawn sim (fun () -> Dsim.Fiber.sleep sim 10);
  Dsim.Fiber.spawn sim (fun () -> failwith "boom");
  probe ();
  (match Sim.run ~until:5 sim with
   | _ -> Alcotest.fail "the raising fiber's exception escapes the run"
   | exception Failure _ -> ());
  probe ();
  ignore (Sim.run ~until:20 sim);
  probe ();
  Dsim.Ivar.fill iv ();
  ignore (Sim.run sim);
  probe ();
  Alcotest.(check (list int)) "spawned, raised, slept, awaited" [ 3; 2; 1; 0 ] (List.rev !live)

let test_clock_skew_monotone () =
  let sim = Sim.create () in
  let c = Dsim.Clock.create ~sim ~skew_us:250 ~drift_ppm:100. in
  let prev = ref (Dsim.Clock.now c) in
  for _ = 1 to 50 do
    Sim.schedule sim ~delay:13 (fun () ->
        let v = Dsim.Clock.now c in
        Alcotest.(check bool) "monotone" true (v >= !prev);
        prev := v)
  done;
  ignore (Sim.run sim)

let test_clock_delay_until () =
  let sim = Sim.create () in
  let c = Dsim.Clock.create ~sim ~skew_us:(-300) ~drift_ppm:0. in
  let target = 1_000 in
  let d = Dsim.Clock.delay_until c target in
  Alcotest.(check bool) "positive delay" true (d > 0);
  Sim.schedule sim ~delay:d (fun () ->
      Alcotest.(check bool) "caught up" true (Dsim.Clock.now c >= target));
  ignore (Sim.run sim)

let test_network_latency () =
  let sim = Sim.create () in
  let topology = Dsim.Topology.uniform ~dcs:2 ~rtt_ms:80. ~intra_rtt_ms:0.5 in
  let rng = Dsim.Rng.create ~seed:1 in
  let net =
    Dsim.Network.create ~sim ~topology ~node_dc:[| 0; 0; 1 |] ~jitter:0. ~rng
  in
  let arrive = ref (-1) in
  Dsim.Network.send net ~src:0 ~dst:2 (fun () -> arrive := Sim.now sim);
  ignore (Sim.run sim);
  Alcotest.(check int) "one-way 40ms" 40_000 !arrive;
  Alcotest.(check int) "intra-DC" 250 (Dsim.Network.latency_us net ~src:0 ~dst:1);
  Alcotest.(check int) "wan count" 1 (Dsim.Network.wan_messages net)

let test_topology_ec2 () =
  let t = Dsim.Topology.ec2_nine in
  Alcotest.(check int) "nine DCs" 9 (Dsim.Topology.size t);
  (* symmetry *)
  for i = 0 to 8 do
    for j = 0 to 8 do
      Alcotest.(check int)
        (Printf.sprintf "sym %d %d" i j)
        (Dsim.Topology.oneway_us t i j)
        (Dsim.Topology.oneway_us t j i)
    done
  done;
  Alcotest.(check string) "first" "virginia" (Dsim.Topology.name t 0);
  Alcotest.(check bool) "wan >= 10ms" true (Dsim.Topology.rtt_us t 0 8 >= 10_000)

let test_cpu_fifo () =
  let sim = Sim.create () in
  let cpu = Dsim.Cpu.create sim in
  let finishes = ref [] in
  Dsim.Cpu.exec cpu ~cost:100 (fun () -> finishes := ("a", Sim.now sim) :: !finishes);
  Dsim.Cpu.exec cpu ~cost:50 (fun () -> finishes := ("b", Sim.now sim) :: !finishes);
  ignore (Sim.run sim);
  Alcotest.(check (list (pair string int)))
    "fifo" [ ("a", 100); ("b", 150) ] (List.rev !finishes)

let test_network_fifo () =
  (* Messages between a node pair are delivered in send order even with
     jitter (TCP-like channels). *)
  let sim = Sim.create () in
  let topology = Dsim.Topology.uniform ~dcs:2 ~rtt_ms:80. ~intra_rtt_ms:0.5 in
  let rng = Dsim.Rng.create ~seed:2 in
  let net = Dsim.Network.create ~sim ~topology ~node_dc:[| 0; 1 |] ~jitter:0.3 ~rng in
  let order = ref [] in
  for i = 1 to 50 do
    Dsim.Network.send net ~src:0 ~dst:1 (fun () -> order := i :: !order);
    (* Advance time a little between sends. *)
    ignore (Sim.run ~until:(Sim.now sim + 100) sim)
  done;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "FIFO per channel" (List.init 50 (fun i -> i + 1))
    (List.rev !order)

let test_fiber_nested_spawn () =
  let sim = Sim.create () in
  let log = ref [] in
  Dsim.Fiber.spawn sim (fun () ->
      log := "outer-start" :: !log;
      Dsim.Fiber.spawn sim (fun () ->
          Dsim.Fiber.sleep sim 10;
          log := "inner" :: !log);
      Dsim.Fiber.sleep sim 20;
      log := "outer-end" :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "nesting order"
    [ "outer-start"; "inner"; "outer-end" ] (List.rev !log)

let test_fiber_many_waiters_one_ivar () =
  let sim = Sim.create () in
  let iv = Dsim.Ivar.create () in
  let got = ref 0 in
  for _ = 1 to 10 do
    Dsim.Fiber.spawn sim (fun () ->
        let v = Dsim.Fiber.await iv in
        got := !got + v)
  done;
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.sleep sim 5;
      Dsim.Ivar.fill iv 3);
  ignore (Sim.run sim);
  Alcotest.(check int) "all ten resumed" 30 !got

let test_ivar_double_fill () =
  let iv = Dsim.Ivar.create () in
  Dsim.Ivar.fill iv 1;
  Alcotest.check_raises "second fill raises" (Invalid_argument "Ivar.fill: already full")
    (fun () -> Dsim.Ivar.fill iv 2);
  Alcotest.(check bool) "fill_if_empty is a no-op" false (Dsim.Ivar.fill_if_empty iv 3);
  Alcotest.(check (option int)) "value kept" (Some 1) (Dsim.Ivar.peek iv)

let test_topology_prefix_and_validation () =
  let t5 = Dsim.Topology.ec2_prefix 5 in
  Alcotest.(check int) "five regions" 5 (Dsim.Topology.size t5);
  Alcotest.(check string) "fifth is frankfurt" "frankfurt" (Dsim.Topology.name t5 4);
  Alcotest.(check int) "latency preserved" (Dsim.Topology.oneway_us Dsim.Topology.ec2_nine 0 4)
    (Dsim.Topology.oneway_us t5 0 4);
  Alcotest.check_raises "prefix bound" (Invalid_argument "Topology.ec2_prefix") (fun () ->
      ignore (Dsim.Topology.ec2_prefix 10));
  Alcotest.check_raises "asymmetric matrix"
    (Invalid_argument "Topology.of_rtt_ms: matrix not symmetric") (fun () ->
      ignore
        (Dsim.Topology.of_rtt_ms ~names:[| "a"; "b" |]
           ~rtt_ms:[| [| 0.; 10. |]; [| 20.; 0. |] |]
           ~intra_rtt_ms:0.5))

let test_cpu_backlog () =
  let sim = Sim.create () in
  let cpu = Dsim.Cpu.create sim in
  Dsim.Cpu.exec cpu ~cost:500 (fun () -> ());
  Dsim.Cpu.exec cpu ~cost:300 (fun () -> ());
  Alcotest.(check int) "backlog" 800 (Dsim.Cpu.backlog_us cpu);
  ignore (Sim.run sim);
  Alcotest.(check int) "drained" 0 (Dsim.Cpu.backlog_us cpu)

let test_rng_exponential_mean () =
  let rng = Dsim.Rng.create ~seed:11 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Dsim.Rng.exponential rng ~mean:50.
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "sample mean %.2f within 5%% of 50" mean)
    true
    (abs_float (mean -. 50.) < 2.5)

let test_event_queue_accounting () =
  (* Lifetime pushes/pops and the high-water depth mark are O(1)
     counters the tracing layer reads back after a run. *)
  let q = EQ.create () in
  Alcotest.(check (list int)) "fresh" [ 0; 0; 0 ] [ EQ.pushes q; EQ.pops q; EQ.max_depth q ];
  for i = 1 to 5 do
    EQ.push q ~time:i i
  done;
  ignore (EQ.pop q);
  ignore (EQ.pop q);
  EQ.push q ~time:9 9;
  Alcotest.(check int) "pushes" 6 (EQ.pushes q);
  Alcotest.(check int) "pops" 2 (EQ.pops q);
  (* depth peaked at 5: the sixth push happened after two pops *)
  Alcotest.(check int) "max depth" 5 (EQ.max_depth q);
  while not (EQ.is_empty q) do
    ignore (EQ.pop q)
  done;
  Alcotest.(check int) "drained pops" 6 (EQ.pops q);
  Alcotest.(check int) "max depth unchanged by drain" 5 (EQ.max_depth q)

(* --- wheel vs heap differential oracle --- *)

module Wheel = Dsim.Wheel

(* Drive the binary heap and the timer wheel with an identical random
   push/pop script and demand bit-for-bit agreement: same pop times,
   same payloads (which pins FIFO order at equal times), same peeked
   keys, same sorted key streams, same lifetime counters.  The time
   distribution deliberately covers every placement class: dense
   same-instant ties, each wheel level, the far-horizon overflow heap,
   and late pushes behind an advanced base (forced by peeking, which
   may settle the wheel forward). *)
let differential_script seed n =
  let rng = Dsim.Rng.create ~seed in
  let h = EQ.create () and w = Wheel.create () in
  let next_id = ref 0 in
  let last = ref 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  let pop_both () =
    let th, vh = EQ.pop h and tw, vw = Wheel.pop w in
    check (th = tw && vh = vw);
    last := th
  in
  for _ = 1 to n do
    let op = Dsim.Rng.int rng 100 in
    if op < 55 || EQ.is_empty h then begin
      let bucket = Dsim.Rng.int rng 100 in
      let t =
        if bucket < 35 then !last + Dsim.Rng.int rng 8 (* level 0, many ties *)
        else if bucket < 60 then !last + Dsim.Rng.int rng 2_000 (* levels 0-1 *)
        else if bucket < 75 then !last + Dsim.Rng.int rng 2_000_000 (* level 2 *)
        else if bucket < 85 then !last + Dsim.Rng.int rng 2_000_000_000 (* level 3 *)
        else if bucket < 92 then !last + (1 lsl 40) + Dsim.Rng.int rng 10_000
          (* beyond the horizon: overflow heap *)
        else max 0 (!last - Dsim.Rng.int rng 5_000)
        (* at-or-behind the floor: hits the wheel's late path when a
           peek has advanced its base *)
      in
      let v = !next_id in
      incr next_id;
      EQ.push h ~time:t v;
      Wheel.push w ~time:t v
    end
    else if op < 90 then pop_both ()
    else begin
      (* peek: settles the wheel (may advance base); keys must agree *)
      check (EQ.peek_key h = Wheel.peek_key w);
      check (EQ.min_time h = Wheel.min_time w)
    end
  done;
  let stream fold q = List.rev (fold (fun t s acc -> (t, s) :: acc) q []) in
  check (stream EQ.fold_keys_sorted h = stream Wheel.fold_keys_sorted w);
  check (EQ.length h = Wheel.length w);
  while not (EQ.is_empty h) do
    pop_both ()
  done;
  check (Wheel.is_empty w);
  check (EQ.pushes h = Wheel.pushes w);
  check (EQ.pops h = Wheel.pops w);
  !ok

let prop_wheel_heap_differential =
  QCheck.Test.make ~name:"wheel and heap pop identically" ~count:60 QCheck.int
    (fun seed -> differential_script seed 1_500)

let test_wheel_heap_deep () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "differential seed %d" seed)
        true
        (differential_script seed 25_000))
    [ 1; 42; 1337 ]

let test_wheel_fifo_ties () =
  (* Same-instant FIFO order survives a cascade: events pushed for one
     instant at different wheel levels (before and after base advances)
     still pop in push order. *)
  let w = Wheel.create () in
  let t = 5_000_000 in
  Wheel.push w ~time:t "far";
  (* place within level 0 of that window after advancing base there *)
  Wheel.push w ~time:(t - 1) "warm";
  let _, v1 = Wheel.pop w in
  Alcotest.(check string) "warm first" "warm" v1;
  Wheel.push w ~time:t "near";
  Wheel.push w ~time:t "last";
  let order = List.init 3 (fun _ -> snd (Wheel.pop w)) in
  Alcotest.(check (list string)) "push order at equal time" [ "far"; "near"; "last" ] order

let sim_script queue =
  (* A small fiber + message + until/resume workload; the log (event
     identity, firing time) must not depend on the backing queue. *)
  let sim = Sim.create ~queue () in
  let log = ref [] in
  let record tag = log := (tag, Sim.now sim) :: !log in
  Sim.schedule sim ~delay:2_000_000 (fun () -> record "far");
  for i = 1 to 5 do
    Sim.schedule sim ~delay:(i * 10) (fun () -> record "tick")
  done;
  Sim.schedule_msg sim ~time:40 ~src:0 ~dst:1 (fun () -> record "msg");
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.sleep sim 25;
      record "fiber";
      Dsim.Fiber.sleep sim 0;
      record "fiber-wake");
  ignore (Sim.run ~until:45 sim);
  (* push behind the wheel's (possibly advanced) base *)
  Sim.schedule sim ~delay:5 (fun () -> record "late");
  ignore (Sim.run sim);
  (List.rev !log, Sim.now sim)

let test_sim_wheel_matches_heap () =
  let lh = sim_script `Heap and lw = sim_script `Wheel in
  Alcotest.(check (pair (list (pair string int)) int)) "identical runs" lh lw

let test_sim_delivery_gate () =
  let sim = Sim.create () in
  let fired = ref [] in
  Sim.set_delivery_gate sim (fun ~src ~dst:_ -> src <> 7);
  Sim.schedule_msg sim ~time:10 ~src:7 ~dst:1 (fun () -> fired := "dropped" :: !fired);
  Sim.schedule_msg sim ~time:20 ~src:2 ~dst:1 (fun () -> fired := "kept" :: !fired);
  Sim.schedule sim ~delay:30 (fun () -> fired := "internal" :: !fired);
  let processed = Sim.run sim in
  Alcotest.(check int) "all events consumed" 3 processed;
  Alcotest.(check (list string)) "gate drops src=7" [ "internal"; "kept" ] !fired

(* --- fault layer --- *)

let test_fault_cut_and_heal () =
  let f = Dsim.Fault.create ~n:3 () in
  Alcotest.(check bool) "inert at creation" false (Dsim.Fault.active f);
  Dsim.Fault.apply f (Dsim.Fault.Link_down (0, 1));
  Alcotest.(check bool) "0->1 cut" false (Dsim.Fault.deliverable f ~src:0 ~dst:1);
  Alcotest.(check bool) "reverse direction open" true
    (Dsim.Fault.deliverable f ~src:1 ~dst:0);
  Alcotest.(check int) "one directed cut" 1 (Dsim.Fault.cut_links f);
  Dsim.Fault.apply f (Dsim.Fault.Isolate 2);
  Alcotest.(check int) "isolation cuts both ways to each peer" 5
    (Dsim.Fault.cut_links f);
  Dsim.Fault.apply f (Dsim.Fault.Link_up (0, 1));
  Alcotest.(check bool) "0->1 restored" true (Dsim.Fault.deliverable f ~src:0 ~dst:1);
  Dsim.Fault.apply f Dsim.Fault.Heal;
  Alcotest.(check int) "heal clears everything" 0 (Dsim.Fault.cut_links f);
  Alcotest.(check bool) "inert again" false (Dsim.Fault.active f)

let test_fault_partition_groups () =
  let f = Dsim.Fault.create ~n:4 () in
  Dsim.Fault.apply f (Dsim.Fault.Partition ([ 0; 1 ], [ 2; 3 ]));
  (* 2 x 2 cross-group pairs, both directions. *)
  Alcotest.(check int) "cross-group links cut" 8 (Dsim.Fault.cut_links f);
  Alcotest.(check bool) "intra-group open" true
    (Dsim.Fault.deliverable f ~src:0 ~dst:1);
  Alcotest.(check bool) "cross-group cut" false
    (Dsim.Fault.deliverable f ~src:1 ~dst:2);
  Alcotest.(check int) "blackhole counter" 1 (Dsim.Fault.blackholed f)

let test_fault_drop_deterministic () =
  (* The loss draw comes from the layer's private seeded RNG: two layers
     with the same seed agree on every draw, and a lossless link draws
     nothing (so fault-free links never consume randomness). *)
  let draw seed =
    let f = Dsim.Fault.create ~seed ~n:2 () in
    Dsim.Fault.apply f (Dsim.Fault.Drop (0, 1, 0.5));
    List.init 64 (fun _ -> Dsim.Fault.deliverable f ~src:0 ~dst:1)
  in
  Alcotest.(check (list bool)) "same seed, same losses" (draw 11) (draw 11);
  let f = Dsim.Fault.create ~n:2 () in
  Dsim.Fault.apply f (Dsim.Fault.Drop (0, 1, 0.5));
  for _ = 1 to 32 do
    ignore (Dsim.Fault.deliverable f ~src:1 ~dst:0)
  done;
  Alcotest.(check int) "lossless link loses nothing" 0 (Dsim.Fault.dropped f);
  Alcotest.(check bool) "lossy link loses something in 64 draws" true
    (let lost = ref 0 in
     for _ = 1 to 64 do
       if not (Dsim.Fault.deliverable f ~src:0 ~dst:1) then incr lost
     done;
     !lost > 0 && !lost < 64)

let test_fault_plan_installs_in_order () =
  (* A plan drives handler callbacks at its scheduled times, and the
     applied-action counter tracks it. *)
  let sim = Sim.create () in
  let f = Dsim.Fault.create ~n:2 () in
  let log = ref [] in
  Dsim.Fault.set_handlers f
    ~crash:(fun n -> log := ("crash", n, Sim.now sim) :: !log)
    ~recover:(fun n -> log := ("recover", n, Sim.now sim) :: !log);
  Dsim.Fault.install f ~sim
    [ (200, Dsim.Fault.Recover 1); (100, Dsim.Fault.Crash 1) ];
  ignore (Sim.run sim);
  Alcotest.(check (list (triple string int int))) "plan fired in time order"
    [ ("crash", 1, 100); ("recover", 1, 200) ]
    (List.rev !log);
  Alcotest.(check int) "both actions applied" 2 (Dsim.Fault.actions_applied f)

let test_fault_malformed_plan_schedules_nothing () =
  (* The whole plan is validated before the first action is scheduled:
     a bad action late in the list leaves the event queue untouched. *)
  let sim = Sim.create () in
  let f = Dsim.Fault.create ~n:3 () in
  List.iter
    (fun bad ->
      match Dsim.Fault.install f ~sim [ (100, Dsim.Fault.Crash 1); (200, bad) ] with
      | () -> Alcotest.fail "malformed plan installed"
      | exception Invalid_argument _ -> ())
    [
      Dsim.Fault.Crash 3;
      Dsim.Fault.Link_down (0, -1);
      Dsim.Fault.Partition ([ 0 ], [ 1; 12 ]);
      Dsim.Fault.Drop (0, 1, 1.);
      Dsim.Fault.Drop_all Float.nan;
    ];
  Alcotest.(check int) "nothing scheduled" 0 (Sim.queue_pushes sim);
  Alcotest.(check int) "nothing applied" 0 (Dsim.Fault.actions_applied f)

let test_fault_negative_time_rejected () =
  (* An action before time 0 is rejected with a message naming its
     time, instead of silently firing at 0. *)
  let sim = Sim.create () in
  let f = Dsim.Fault.create ~n:3 () in
  let plan = [ (100, Dsim.Fault.Crash 1); (-5_000, Dsim.Fault.Recover 1) ] in
  Alcotest.check_raises "validate names the time"
    (Invalid_argument "Fault: action time -5000 us is before the run starts (0)")
    (fun () -> Dsim.Fault.validate ~n:3 plan);
  (match Dsim.Fault.install f ~sim plan with
   | () -> Alcotest.fail "plan with a negative time installed"
   | exception Invalid_argument _ -> ());
  Alcotest.(check int) "nothing scheduled" 0 (Sim.queue_pushes sim);
  (* Time 0 itself is the start of the run, and valid. *)
  Dsim.Fault.validate ~n:3 [ (0, Dsim.Fault.Crash 1) ]

let test_fault_fingerprint_tracks_link_state () =
  let f = Dsim.Fault.create ~n:3 () in
  let fp0 = Dsim.Fault.fingerprint f in
  Dsim.Fault.apply f (Dsim.Fault.Link_down (0, 1));
  let fp1 = Dsim.Fault.fingerprint f in
  Alcotest.(check bool) "cut changes the fingerprint" true (fp0 <> fp1);
  Dsim.Fault.apply f Dsim.Fault.Heal;
  Alcotest.(check int) "heal restores it" fp0 (Dsim.Fault.fingerprint f)

(* --- properties --- *)

let prop_event_queue_sorted =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = EQ.create () in
      List.iter (fun t -> EQ.push q ~time:t t) times;
      let rec drain prev =
        if EQ.is_empty q then true
        else begin
          let t, _ = EQ.pop q in
          t >= prev && drain t
        end
      in
      drain min_int)

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let rng = Dsim.Rng.create ~seed in
      let v = Dsim.Rng.int rng n in
      v >= 0 && v < n)

let prop_rng_deterministic =
  QCheck.Test.make ~name:"rng is deterministic per seed" ~count:100 QCheck.int
    (fun seed ->
      let a = Dsim.Rng.create ~seed and b = Dsim.Rng.create ~seed in
      List.init 20 (fun _ -> Dsim.Rng.next a)
      = List.init 20 (fun _ -> Dsim.Rng.next b))

let prop_rng_float_unit =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:500 QCheck.int (fun seed ->
      let rng = Dsim.Rng.create ~seed in
      let f = Dsim.Rng.float rng in
      f >= 0. && f < 1.)

let () =
  Alcotest.run "dsim"
    [
      ( "event-queue",
        [
          Alcotest.test_case "fifo at equal times" `Quick test_event_order;
          Alcotest.test_case "push/pop/depth accounting" `Quick test_event_queue_accounting;
          QCheck_alcotest.to_alcotest prop_event_queue_sorted;
        ] );
      ( "wheel",
        [
          QCheck_alcotest.to_alcotest prop_wheel_heap_differential;
          Alcotest.test_case "deep differential" `Quick test_wheel_heap_deep;
          Alcotest.test_case "FIFO ties across levels" `Quick test_wheel_fifo_ties;
          Alcotest.test_case "sim runs identically on wheel" `Quick test_sim_wheel_matches_heap;
          Alcotest.test_case "delivery gate" `Quick test_sim_delivery_gate;
        ] );
      ( "sim",
        [
          Alcotest.test_case "schedule order" `Quick test_sim_schedule;
          Alcotest.test_case "run until" `Quick test_sim_until;
        ] );
      ( "fiber",
        [
          Alcotest.test_case "sleep" `Quick test_fiber_sleep;
          Alcotest.test_case "ivar handoff" `Quick test_ivar_fiber_handoff;
          Alcotest.test_case "nested spawn" `Quick test_fiber_nested_spawn;
          Alcotest.test_case "many waiters" `Quick test_fiber_many_waiters_one_ivar;
          Alcotest.test_case "ivar double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "live count" `Quick test_fiber_live_count;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotone under skew+drift" `Quick test_clock_skew_monotone;
          Alcotest.test_case "delay until target" `Quick test_clock_delay_until;
        ] );
      ( "network",
        [
          Alcotest.test_case "latencies" `Quick test_network_latency;
          Alcotest.test_case "ec2 topology" `Quick test_topology_ec2;
          Alcotest.test_case "FIFO channels" `Quick test_network_fifo;
          Alcotest.test_case "ec2 prefix + validation" `Quick test_topology_prefix_and_validation;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "fifo queueing" `Quick test_cpu_fifo;
          Alcotest.test_case "backlog accounting" `Quick test_cpu_backlog;
        ] );
      ( "fault",
        [
          Alcotest.test_case "cut and heal" `Quick test_fault_cut_and_heal;
          Alcotest.test_case "partition groups" `Quick test_fault_partition_groups;
          Alcotest.test_case "deterministic loss" `Quick test_fault_drop_deterministic;
          Alcotest.test_case "plan installation" `Quick test_fault_plan_installs_in_order;
          Alcotest.test_case "malformed plan schedules nothing" `Quick
            test_fault_malformed_plan_schedules_nothing;
          Alcotest.test_case "negative action time rejected" `Quick
            test_fault_negative_time_rejected;
          Alcotest.test_case "fingerprint tracks links" `Quick
            test_fault_fingerprint_tracks_link_state;
        ] );
      ( "rng",
        [
          QCheck_alcotest.to_alcotest prop_rng_bounds;
          QCheck_alcotest.to_alcotest prop_rng_deterministic;
          QCheck_alcotest.to_alcotest prop_rng_float_unit;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        ] );
    ]

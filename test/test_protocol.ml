(* Deeper protocol-behaviour tests: Precise Clocks, LastReader (P1/P2),
   write stacking, the cache partition, eviction, Ext-Spec
   externalization, read-only dependencies, Clock-SI read delays, and
   the self-tuning machinery. *)

open Store
module Key = Keyspace.Key
module Value = Keyspace.Value
module Sim = Dsim.Sim

let key ~p name = Key.v ~partition:p name

let make_cluster ?(dcs = 3) ?(rf = 2) ?(rtt_ms = 100.) ?(config = Core.Config.str ())
    ?(skew = 0) () =
  let sim = Sim.create () in
  let topology = Dsim.Topology.uniform ~dcs ~rtt_ms ~intra_rtt_ms:0.5 in
  let node_dc = Array.init dcs (fun i -> i) in
  let rng = Dsim.Rng.create ~seed:7 in
  let net = Dsim.Network.create ~sim ~topology ~node_dc ~jitter:0. ~rng in
  let placement = Placement.ring ~n_nodes:dcs ~replication_factor:rf () in
  let config = { config with Core.Config.max_clock_skew_us = skew } in
  let eng = Core.Engine.create ~sim ~net ~placement ~config () in
  (sim, eng)

let commit_result eng tx =
  match Core.Engine.commit eng tx with
  | ct -> Ok ct
  | exception Core.Types.Tx_abort r -> Error r

(* --- Precise Clocks (§5.3) ------------------------------------------ *)

let test_precise_commit_timestamp_small () =
  (* With Precise Clocks and no readers, the commit timestamp collapses
     to RS+1 even though certification takes a WAN round trip. *)
  let sim, eng = make_cluster () in
  let k = key ~p:1 "x" (* remote master for node 0 *) in
  let result = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      Core.Engine.write eng tx k (Value.Int 1);
      match commit_result eng tx with
      | Ok ct -> result := Some (tx.Core.Types.rs, ct)
      | Error _ -> ());
  ignore (Sim.run sim);
  match !result with
  | Some (rs, ct) ->
    Alcotest.(check bool) "P1: ct > rs" true (ct > rs);
    Alcotest.(check bool)
      (Printf.sprintf "ct=%d stays near rs=%d (not physical-commit time)" ct rs)
      true
      (ct <= rs + 1_000)
  | None -> Alcotest.fail "tx did not commit"

let test_physical_commit_timestamp_large () =
  let sim, eng = make_cluster ~config:(Core.Config.clocksi_rep ()) () in
  let k = key ~p:1 "x" in
  let result = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      Core.Engine.write eng tx k (Value.Int 1);
      match commit_result eng tx with
      | Ok ct -> result := Some (tx.Core.Types.rs, ct)
      | Error _ -> ());
  ignore (Sim.run sim);
  match !result with
  | Some (rs, ct) ->
    (* The master is one 50ms hop away; its physical proposal reflects
       that. *)
    Alcotest.(check bool)
      (Printf.sprintf "physical ct=%d >> rs=%d" ct rs)
      true
      (ct > rs + 40_000)
  | None -> Alcotest.fail "tx did not commit"

let test_last_reader_orders_writer () =
  (* P2: a writer's commit timestamp must exceed the read snapshot of
     every transaction that read the overwritten key before it. *)
  let sim, eng = make_cluster () in
  let k = key ~p:0 "x" in
  Core.Engine.load eng k (Value.Int 0);
  let reader_rs = ref 0 and writer_ct = ref 0 in
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.sleep sim 10_000;
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      reader_rs := tx.Core.Types.rs;
      ignore (Core.Engine.read eng tx k);
      ignore (commit_result eng tx));
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.sleep sim 20_000;
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      Core.Engine.write eng tx k (Value.Int 9);
      match commit_result eng tx with
      | Ok ct -> writer_ct := ct
      | Error _ -> ());
  ignore (Sim.run sim);
  Alcotest.(check bool)
    (Printf.sprintf "writer ct=%d > reader rs=%d" !writer_ct !reader_rs)
    true
    (!writer_ct > !reader_rs)

(* --- speculative write stacking -------------------------------------- *)

let test_write_stacking_pipeline () =
  (* A chain of read-modify-writes on one hot key, all issued while the
     predecessors are still certifying: all must commit, in order. *)
  let sim, eng = make_cluster () in
  let hot = key ~p:0 "hot" in
  let side = key ~p:1 "side" (* makes each tx cross-DC, stretching certification *) in
  Core.Engine.load eng hot (Value.Int 0);
  let finals = ref [] in
  for i = 0 to 4 do
    Dsim.Fiber.spawn sim (fun () ->
        Dsim.Fiber.sleep sim (i * 2_000);
        let tx = Core.Engine.begin_tx eng ~origin:0 in
        try
          let v = Workload.Spec.read_int eng tx hot in
          Core.Engine.write eng tx hot (Value.Int (v + 1));
          Core.Engine.write eng tx (key ~p:1 (Printf.sprintf "%s/%d" (Key.name side) i))
            (Value.Int i);
          let ct = Core.Engine.commit eng tx in
          finals := (i, v + 1, ct) :: !finals
        with Core.Types.Tx_abort _ -> ())
  done;
  ignore (Sim.run sim);
  let finals = List.sort compare !finals in
  Alcotest.(check int) "all five committed" 5 (List.length finals);
  List.iteri
    (fun i (idx, value, _ct) ->
      Alcotest.(check int) "chain order" i idx;
      Alcotest.(check int) "incremented in order" (i + 1) value)
    finals;
  (* Commit timestamps strictly increase along the chain. *)
  let cts = List.map (fun (_, _, ct) -> ct) finals in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "cts increasing" true (increasing cts)

(* --- cache partition -------------------------------------------------- *)

let test_cache_partition_serves_nonlocal () =
  (* Node 0 updates a key of a partition it does not replicate; until
     final commit, a later node-0 transaction reads it from the cache
     partition (instantly), not over the WAN. *)
  let sim, eng = make_cluster ~dcs:3 ~rf:1 () in
  let far = key ~p:1 "far" in
  Core.Engine.load eng far (Value.Int 0);
  let read_time = ref 0 and value = ref 0 and spec_reads = ref 0 in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      Core.Engine.write eng tx far (Value.Int 33);
      try ignore (Core.Engine.commit eng tx) with Core.Types.Tx_abort _ -> ());
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.sleep sim 3_000 (* writer has local-committed; cert in flight *);
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      (try
         value := Workload.Spec.read_int eng tx far;
         read_time := Sim.now sim;
         ignore (Core.Engine.commit eng tx)
       with Core.Types.Tx_abort _ -> ());
      spec_reads := (Core.Engine.total_stats eng).Core.Stats.cache_reads);
  ignore (Sim.run sim);
  Alcotest.(check int) "speculative value from cache" 33 !value;
  Alcotest.(check bool)
    (Printf.sprintf "read served locally at %dus (no 50ms hop)" !read_time)
    true
    (!read_time < 20_000);
  Alcotest.(check bool) "counted as cache read" true (!spec_reads >= 1)

let test_cache_cleared_after_commit () =
  let sim, eng = make_cluster ~dcs:3 ~rf:1 () in
  let far = key ~p:1 "far" in
  Core.Engine.load eng far (Value.Int 0);
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      Core.Engine.write eng tx far (Value.Int 1);
      try ignore (Core.Engine.commit eng tx) with Core.Types.Tx_abort _ -> ());
  ignore (Sim.run sim);
  let cache = Core.Engine.cache_of eng 0 in
  Alcotest.(check bool) "no version left in cache" true
    (Mvstore.latest_before (Core.Partition_server.store cache) far ~rs:max_int = None)

(* --- eviction --------------------------------------------------------- *)

let test_eviction_by_remote_prepare () =
  (* Node 0 speculates on a key of its own partition; a remote
     transaction that won the master race replicates into node 2's slave
     replica... we instead exercise the documented slave-eviction path
     directly: node 1 masters partition 1 replicated on node 2; node 2
     speculatively updates a *local* key of partition 2 and a key of
     partition 1; a node-1 transaction prepares the same partition-1 key
     at its master and replicates to node 2, evicting node 2's
     speculative state. *)
  let sim, eng = make_cluster ~dcs:3 ~rf:2 () in
  let contested = key ~p:1 "contested" (* master n1, slave n2 *) in
  Core.Engine.load eng contested (Value.Int 0);
  let n2_result = ref None and n1_result = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      (* Node 2 local-commits an update of [contested] via its slave
         replica and goes to n1's master for certification. *)
      let tx = Core.Engine.begin_tx eng ~origin:2 in
      Core.Engine.write eng tx contested (Value.Int 2);
      n2_result := Some (commit_result eng tx));
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.sleep sim 1_000;
      (* Node 1 (the master) certifies first locally; its replicate will
         reach node 2 and evict the speculation if node 1 wins. *)
      let tx = Core.Engine.begin_tx eng ~origin:1 in
      Core.Engine.write eng tx contested (Value.Int 1);
      n1_result := Some (commit_result eng tx));
  ignore (Sim.run sim);
  let committed r = match r with Some (Ok _) -> 1 | _ -> 0 in
  Alcotest.(check int) "exactly one writer commits" 1
    (committed !n2_result + committed !n1_result);
  match Core.Engine.check_invariants eng with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* --- Ext-Spec --------------------------------------------------------- *)

let test_ext_spec_latency_and_misspec () =
  let sim, eng = make_cluster ~config:(Core.Config.ext_spec ()) () in
  let k = key ~p:1 "x" in
  Core.Engine.load eng k (Value.Int 0);
  let spec_at = ref (-1) and final_at = ref (-1) in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      Core.Engine.write eng tx k (Value.Int 5);
      Dsim.Ivar.on_full tx.Core.Types.spec_commit (fun t -> spec_at := t);
      (try ignore (Core.Engine.commit eng tx) with Core.Types.Tx_abort _ -> ());
      final_at := Sim.now sim);
  ignore (Sim.run sim);
  Alcotest.(check bool) "speculative commit exposed early" true
    (!spec_at >= 0 && !spec_at < 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "final %dus well after speculative %dus" !final_at !spec_at)
    true
    (!final_at > !spec_at + 40_000);
  Alcotest.(check int) "spec commit counted" 1
    (Core.Engine.total_stats eng).Core.Stats.spec_commits

let test_ext_spec_misspeculation_counted () =
  (* Two conflicting writers under Ext-Spec: both are externalized at
     local commit, one finally aborts -> one external misspeculation. *)
  let sim, eng = make_cluster ~config:(Core.Config.ext_spec ()) () in
  let k = key ~p:2 "x" (* master n2, remote for both writers *) in
  Core.Engine.load eng k (Value.Int 0);
  for origin = 0 to 1 do
    Dsim.Fiber.spawn sim (fun () ->
        Dsim.Fiber.sleep sim (origin * 500);
        let tx = Core.Engine.begin_tx eng ~origin in
        Core.Engine.write eng tx k (Value.Int origin);
        try ignore (Core.Engine.commit eng tx) with Core.Types.Tx_abort _ -> ())
  done;
  ignore (Sim.run sim);
  let stats = Core.Engine.total_stats eng in
  Alcotest.(check int) "one commit" 1 stats.Core.Stats.commits;
  Alcotest.(check int) "one external misspeculation" 1 stats.Core.Stats.ext_misspec

(* --- read-only transactions ------------------------------------------ *)

let test_read_only_waits_for_dependee () =
  (* A read-only transaction that read speculatively cannot confirm
     before its dependee's final outcome (SPSI-4). *)
  let sim, eng = make_cluster () in
  let hot = key ~p:0 "hot" in
  let side = key ~p:1 "side" in
  Core.Engine.load eng hot (Value.Int 0);
  let ro_done = ref (-1) and value = ref 0 in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      Core.Engine.write eng tx hot (Value.Int 7);
      Core.Engine.write eng tx side (Value.Int 1);
      try ignore (Core.Engine.commit eng tx) with Core.Types.Tx_abort _ -> ());
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.sleep sim 2_000;
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      (try
         value := Workload.Spec.read_int eng tx hot;
         ignore (Core.Engine.commit eng tx);
         ro_done := Sim.now sim
       with Core.Types.Tx_abort _ -> ()));
  ignore (Sim.run sim);
  Alcotest.(check int) "read speculative value" 7 !value;
  Alcotest.(check bool)
    (Printf.sprintf "read-only confirmed only at %dus (after dependee's WAN cert)" !ro_done)
    true
    (!ro_done > 50_000)

(* --- Clock-SI read delay --------------------------------------------- *)

let test_clocksi_read_delay () =
  (* A reader whose snapshot is ahead of the serving replica's clock is
     delayed until the clock catches up. *)
  let sim = Sim.create () in
  let topology = Dsim.Topology.uniform ~dcs:2 ~rtt_ms:10. ~intra_rtt_ms:0.5 in
  let rng = Dsim.Rng.create ~seed:7 in
  let net = Dsim.Network.create ~sim ~topology ~node_dc:[| 0; 1 |] ~jitter:0. ~rng in
  let placement = Placement.ring ~n_nodes:2 ~replication_factor:1 () in
  (* Build the engine with zero skew, then hand-check the partition
     server against a slow clock. *)
  let config = Core.Config.str () in
  let eng = Core.Engine.create ~sim ~net ~placement ~config () in
  ignore eng;
  let slow_clock = Dsim.Clock.create ~sim ~skew_us:(-2_000) ~drift_ppm:0. in
  let cpu = Dsim.Cpu.create sim in
  let server =
    Core.Partition_server.create ~sim ~clock:slow_clock ~cpu ~config ~node_id:0
      ~partition:0 ()
  in
  Mvstore.load (Core.Partition_server.store server)
    ~writer:(Txid.make ~origin:(-1) ~number:0)
    (key ~p:0 "x") (Value.Int 1);
  let served_at = ref (-1) in
  Sim.schedule sim ~delay:100 (fun () ->
      Core.Partition_server.read server ~rs:1_500 ~reader_origin:0 (key ~p:0 "x")
        (fun _ -> served_at := Sim.now sim));
  ignore (Sim.run sim);
  (* The slow clock reads 0 until sim time 2000; rs=1500 is served only
     once the clock passes it, i.e. at sim time >= 3500. *)
  Alcotest.(check bool)
    (Printf.sprintf "read delayed until clock catch-up (served at %d)" !served_at)
    true
    (!served_at >= 3_400)

(* --- self-tuning ------------------------------------------------------ *)

let test_tuner_picks_speculation_when_it_wins () =
  (* Synth-A-like conditions: the tuner must end with SR enabled. *)
  let sim, eng = make_cluster ~dcs:3 ~rf:2 () in
  let placement = Placement.ring ~n_nodes:3 ~replication_factor:2 () in
  let params =
    {
      Workload.Synthetic.synth_a with
      local_space = 1_000;
      remote_space = 1_000;
    }
  in
  let wl = Workload.Synthetic.make ~params placement in
  let shared = Harness.Client.make_shared ~measure_from:0 ~measure_to:8_000_000 in
  let rng = Dsim.Rng.create ~seed:12 in
  for node = 0 to 2 do
    for _ = 1 to 10 do
      let crng = Dsim.Rng.split rng in
      Harness.Client.spawn eng wl ~node ~rng:crng ~shared ~stop_at:8_000_000
        ~start_delay:(Dsim.Rng.int crng 100_000)
    done
  done;
  let tuner = Core.Self_tuning.install eng ~window_us:1_500_000 ~warmup_us:500_000 () in
  ignore (Sim.run ~until:8_000_000 sim);
  Alcotest.(check (option bool)) "tuner enables speculation" (Some true)
    (Core.Self_tuning.decision tuner)

(* --- serializability (read promotion) -------------------------------- *)

let write_skew_scenario config =
  (* The classic SI anomaly: the invariant is x + y >= 1; T1 reads both
     and zeroes x, T2 reads both and zeroes y.  Under SI both commit
     (write skew); under Serializable at most one may. *)
  let sim, eng = make_cluster ~dcs:3 ~rf:2 ~config () in
  let x = key ~p:0 "x" and y = key ~p:1 "y" in
  Core.Engine.load eng x (Value.Int 1);
  Core.Engine.load eng y (Value.Int 1);
  let commits = ref 0 in
  let worker origin target =
    Dsim.Fiber.spawn sim (fun () ->
        let tx = Core.Engine.begin_tx eng ~origin in
        try
          let xv = Workload.Spec.read_int eng tx x in
          let yv = Workload.Spec.read_int eng tx y in
          if xv + yv >= 2 then Core.Engine.write eng tx target (Value.Int 0);
          ignore (Core.Engine.commit eng tx);
          incr commits
        with Core.Types.Tx_abort _ -> ())
  in
  worker 0 x;
  worker 1 y;
  ignore (Sim.run sim);
  let final = ref 0 in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:2 in
      final := Workload.Spec.read_int eng tx x + Workload.Spec.read_int eng tx y;
      ignore (commit_result eng tx));
  ignore (Sim.run sim);
  (!commits, !final)

let test_si_admits_write_skew () =
  let commits, final = write_skew_scenario (Core.Config.str ()) in
  Alcotest.(check int) "both committed under SI" 2 commits;
  Alcotest.(check int) "invariant broken (write skew)" 0 final

let test_serializable_rejects_write_skew () =
  let commits, final = write_skew_scenario (Core.Config.str_serializable ()) in
  Alcotest.(check bool) "at most one commits" true (commits <= 1);
  Alcotest.(check bool) "invariant preserved" true (final >= 1)

let test_serializable_plain_commit_works () =
  let sim, eng = make_cluster ~config:(Core.Config.str_serializable ()) () in
  let k = key ~p:0 "a" in
  Core.Engine.load eng k (Value.Int 1);
  let out = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      let v = Workload.Spec.read_int eng tx k in
      Core.Engine.write eng tx k (Value.Int (v + 1));
      out := Some (commit_result eng tx));
  ignore (Sim.run sim);
  (match !out with
   | Some (Ok _) -> ()
   | _ -> Alcotest.fail "uncontended serializable tx must commit");
  (* Read-only transactions are not promoted. *)
  let ro = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:1 in
      ignore (Core.Engine.read eng tx k);
      ro := Some (commit_result eng tx));
  ignore (Sim.run sim);
  match !ro with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "read-only tx must commit untouched"

(* --- misc engine behaviours ------------------------------------------ *)

let test_read_your_writes () =
  let sim, eng = make_cluster () in
  let k = key ~p:0 "x" in
  Core.Engine.load eng k (Value.Int 1);
  let seen = ref [] in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      seen := Workload.Spec.read_int eng tx k :: !seen;
      Core.Engine.write eng tx k (Value.Int 42);
      seen := Workload.Spec.read_int eng tx k :: !seen;
      Core.Engine.write eng tx k (Value.Int 43);
      seen := Workload.Spec.read_int eng tx k :: !seen;
      ignore (commit_result eng tx));
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "buffer visible" [ 43; 42; 1 ] !seen

let test_sr_toggle_mid_run_safe () =
  (* Flip speculative reads on and off while traffic is running; the
     cluster must stay consistent (chain invariants + SPSI). *)
  let sim, eng = make_cluster ~dcs:3 ~rf:2 () in
  let placement = Placement.ring ~n_nodes:3 ~replication_factor:2 () in
  let params =
    { Workload.Synthetic.default with local_hot = 1; local_space = 20; remote_hot = 2;
      remote_space = 20 }
  in
  let wl = Workload.Synthetic.make ~params placement in
  let h = Spsi.History.create () in
  Core.Engine.set_observer eng (Spsi.History.record h);
  let shared = Harness.Client.make_shared ~measure_from:0 ~measure_to:3_000_000 in
  let rng = Dsim.Rng.create ~seed:21 in
  for node = 0 to 2 do
    for _ = 1 to 5 do
      let crng = Dsim.Rng.split rng in
      Harness.Client.spawn eng wl ~node ~rng:crng ~shared ~stop_at:3_000_000
        ~start_delay:(Dsim.Rng.int crng 50_000)
    done
  done;
  let config = Core.Engine.config eng in
  let rec toggler i =
    Dsim.Sim.schedule sim ~delay:400_000 (fun () ->
        config.Core.Config.speculative_reads <- not config.Core.Config.speculative_reads;
        if i < 6 then toggler (i + 1))
  in
  toggler 0;
  ignore (Sim.run ~until:4_000_000 sim);
  (match Core.Engine.check_invariants eng with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  match Spsi.Checker.check_spsi h with
  | [] -> ()
  | v -> Alcotest.fail (Spsi.Checker.report v)

let test_first_committer_wins_remote () =
  (* N concurrent cross-node writers of one key: exactly one commits per
     round, never zero, never two. *)
  let sim, eng = make_cluster ~dcs:3 ~rf:2 () in
  let k = key ~p:0 "contested" in
  Core.Engine.load eng k (Value.Int 0);
  let commits = ref 0 in
  for origin = 0 to 2 do
    Dsim.Fiber.spawn sim (fun () ->
        Dsim.Fiber.sleep sim (origin * 700);
        let tx = Core.Engine.begin_tx eng ~origin in
        Core.Engine.write eng tx k (Value.Int origin);
        match commit_result eng tx with Ok _ -> incr commits | Error _ -> ())
  done;
  ignore (Sim.run sim);
  Alcotest.(check int) "exactly one winner" 1 !commits;
  match Core.Engine.check_invariants eng with Ok () -> () | Error e -> Alcotest.fail e

let test_tuner_bounded_misspec_criterion () =
  (* With a zero misspeculation budget, the multi-KPI criterion disables
     speculation whenever exploration observed any misspeculation. *)
  let sim, eng = make_cluster ~dcs:3 ~rf:2 () in
  let placement = Placement.ring ~n_nodes:3 ~replication_factor:2 () in
  let params =
    { Workload.Synthetic.default with local_hot = 1; local_space = 10; remote_hot = 1;
      remote_space = 10; remote_access_prob = 0.5 }
  in
  let wl = Workload.Synthetic.make ~params placement in
  let shared = Harness.Client.make_shared ~measure_from:0 ~measure_to:6_000_000 in
  let rng = Dsim.Rng.create ~seed:31 in
  for node = 0 to 2 do
    for _ = 1 to 8 do
      let crng = Dsim.Rng.split rng in
      Harness.Client.spawn eng wl ~node ~rng:crng ~shared ~stop_at:6_000_000
        ~start_delay:(Dsim.Rng.int crng 50_000)
    done
  done;
  let tuner =
    Core.Self_tuning.install eng ~window_us:1_500_000 ~warmup_us:500_000
      ~criterion:(Core.Self_tuning.Throughput_bounded_misspec 0.0) ()
  in
  ignore (Sim.run ~until:6_000_000 sim);
  match Core.Self_tuning.decision tuner with
  | Some decision ->
    if Core.Self_tuning.explored_misspec tuner > 0. then
      Alcotest.(check bool) "budget 0 disables speculation" false decision
  | None -> Alcotest.fail "tuner made no decision"

let test_deterministic_engine_runs () =
  let run () =
    let sim, eng = make_cluster ~dcs:3 ~rf:2 () in
    let placement = Placement.ring ~n_nodes:3 ~replication_factor:2 () in
    let params = { Workload.Synthetic.default with local_hot = 1; local_space = 50 } in
    let wl = Workload.Synthetic.make ~params placement in
    let shared = Harness.Client.make_shared ~measure_from:0 ~measure_to:1_000_000 in
    let rng = Dsim.Rng.create ~seed:77 in
    for node = 0 to 2 do
      for _ = 1 to 4 do
        let crng = Dsim.Rng.split rng in
        Harness.Client.spawn eng wl ~node ~rng:crng ~shared ~stop_at:1_000_000
          ~start_delay:(Dsim.Rng.int crng 10_000)
      done
    done;
    ignore (Sim.run ~until:1_500_000 sim);
    let s = Core.Engine.total_stats eng in
    (s.Core.Stats.commits, Core.Stats.aborts s, s.Core.Stats.reads)
  in
  Alcotest.(check (triple int int int)) "bit-identical reruns" (run ()) (run ())

(* --- shared committed versions ----------------------------------------- *)

(* The benchmark's smoke-size synth-a: 9 EC2 DCs, rf 6, 10 clients per
   node, 0.3 s warmup + 0.7 s measured, seed 1.  Returns the engine
   after the drain. *)
let run_synth_a_smoke ?at_window_end () =
  let module R = Harness.Runner in
  let placement = Placement.ring ~n_nodes:9 ~replication_factor:6 () in
  let spec = Workload.Synthetic.make ~params:Workload.Synthetic.synth_a placement in
  let setup =
    {
      (R.default_setup ~workload:spec ~config:(Core.Config.str ())) with
      R.clients_per_node = 10;
      warmup_us = 300_000;
      measure_us = 700_000;
      seed = 1;
    }
  in
  let sim, net, _, eng, rng = R.build_cluster setup in
  spec.Workload.Spec.load eng;
  let measure_from = setup.R.warmup_us in
  let measure_to = measure_from + setup.R.measure_us in
  let shared = Harness.Client.make_shared ~measure_from ~measure_to in
  for node = 0 to Core.Engine.n_nodes eng - 1 do
    for _ = 1 to setup.R.clients_per_node do
      let crng = Dsim.Rng.split rng in
      Harness.Client.spawn eng spec ~node ~rng:crng ~shared ~stop_at:measure_to
        ~start_delay:(Dsim.Rng.int crng 200_000)
    done
  done;
  ignore
    (R.run_window ~sim ~net ~eng ~measure_from ~measure_to
       ?at_window_end:(Option.map (fun f () -> f eng) at_window_end)
       ());
  eng

(* The smoke run, and every committed version (with its timestamp) the
   replicas held at the end of its measured window. *)
let synth_a_smoke =
  lazy
    (let at_window_end = ref [] in
     let eng =
       run_synth_a_smoke
         ~at_window_end:(fun eng ->
           Committed_check.iter eng (fun _ (v : Version.t) ->
               at_window_end := (v, v.ts) :: !at_window_end))
         ()
     in
     (eng, !at_window_end))

let test_committed_versions_shared () =
  let eng, _ = Lazy.force synth_a_smoke in
  let shared = Committed_check.check_shared eng in
  Alcotest.(check bool)
    (Printf.sprintf "some versions are held by several replicas (%d)" shared)
    true (shared > 1000)

let test_committed_versions_immutable () =
  let _, at_window_end = Lazy.force synth_a_smoke in
  Alcotest.(check bool) "versions sampled" true (at_window_end <> []);
  List.iter
    (fun ((v : Version.t), ts) ->
      if v.ts <> ts || not (Version.is_committed v) then
        Alcotest.failf "committed version of %s changed: ts %d -> %d, committed %b"
          (Txid.to_string v.writer) ts v.ts (Version.is_committed v))
    at_window_end

(* Memory per stored version over all 54 replica stores, on a run of
   its own (listing a store's versions caches its sorted keys).
   Reachable words over one array of the stores count a block the
   replicas share once: a committed version is made once per write, not
   once per replica. *)
let test_store_words_per_version () =
  let eng = run_synth_a_smoke () in
  let placement = Core.Engine.placement eng in
  let stores =
    List.concat_map
      (fun p ->
        Array.to_list
          (Array.map
             (fun r -> Core.Partition_server.store (Core.Engine.server eng ~node:r ~partition:p))
             (Placement.replicas placement p)))
      (List.init (Placement.n_partitions placement) Fun.id)
    |> Array.of_list
  in
  let versions = Array.fold_left (fun n s -> n + Mvstore.version_count s) 0 stores in
  let words = Obj.reachable_words (Obj.repr stores) in
  let per_version = float_of_int words /. float_of_int versions in
  Alcotest.(check int) "54 replica stores" 54 (Array.length stores);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per stored version (%d words, %d versions) <= 5.89"
       per_version words versions)
    true (per_version <= 5.89)

(* The replicas of a partition keep their chains in one shared key
   directory: every replica store of the partition holds the same
   directory, and a key written at any of them has exactly one node
   there, which holds every replica's chain. *)
let test_one_directory_per_partition () =
  let eng, _ = Lazy.force synth_a_smoke in
  let placement = Core.Engine.placement eng in
  let directories =
    List.init (Placement.n_partitions placement) (fun p ->
        let stores =
          Array.map
            (fun r -> Core.Partition_server.store (Core.Engine.server eng ~node:r ~partition:p))
            (Placement.replicas placement p)
        in
        let d = Mvstore.directory stores.(0) in
        Array.iter
          (fun s ->
            Alcotest.(check bool) "replicas share the directory" true (Mvstore.directory s == d))
          stores;
        let keys = Mvstore.directory_keys d in
        let rec distinct = function
          | a :: (b :: _ as rest) -> (not (Key.equal a b)) && distinct rest
          | [ _ ] | [] -> true
        in
        Alcotest.(check bool) "one node per key" true (distinct keys);
        Alcotest.(check bool)
          (Printf.sprintf "partition %d wrote keys (%d)" p (List.length keys))
          true (keys <> []);
        List.iter
          (fun k ->
            if not (Array.exists (fun s -> Mvstore.written s k) stores) then
              Alcotest.failf "node for %s, which no replica wrote" (Key.to_string k))
          keys;
        (* Synth-A loads nothing: a replica's keys are the ones it wrote,
           and each of them must have its node. *)
        Array.iter
          (fun s ->
            Alcotest.(check int) "every written key has a node" (Mvstore.key_count s)
              (List.length (List.filter (Mvstore.written s) keys)))
          stores;
        d)
  in
  List.iteri
    (fun i d ->
      List.iteri
        (fun j d' ->
          if i < j && d == d' then Alcotest.failf "partitions %d and %d share a directory" i j)
        directories)
    directories

(* A key whose replicas all hold the same single committed version (in
   this run, a key written once) costs one chain array and one node:
   every replica's slot holds the same frozen array, and the node keeps
   no slot array. *)
let test_write_once_keys_share_one_chain () =
  let eng, _ = Lazy.force synth_a_smoke in
  let placement = Core.Engine.placement eng in
  let shared = ref 0 and nodes = ref 0 in
  for p = 0 to Placement.n_partitions placement - 1 do
    let stores =
      Array.map
        (fun r -> Core.Partition_server.store (Core.Engine.server eng ~node:r ~partition:p))
        (Placement.replicas placement p)
    in
    List.iter
      (fun k ->
        incr nodes;
        let e = Option.get (Mvstore.find_entry stores.(0) k) in
        let chains = Array.map (fun s -> Mvstore.chain s e) stores in
        let one = chains.(0) in
        let sole c =
          Chain.length c = 1 && Version.is_committed (Chain.get c 0)
          && Chain.get c 0 == Chain.get one 0
        in
        if Array.for_all sole chains then begin
          incr shared;
          if
            not
              (Mvstore.collapsed e && Chain.frozen one
              && Array.for_all (fun c -> c == one) chains)
          then
            Alcotest.failf "%s: its replicas hold one committed version in %s" (Key.to_string k)
              (if Mvstore.collapsed e then "several arrays" else "a node with a slot array")
        end
        else if Mvstore.collapsed e then
          Alcotest.failf "%s: a collapsed node whose replicas differ" (Key.to_string k))
      (Mvstore.directory_keys (Mvstore.directory stores.(0)))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d nodes share one chain" !shared !nodes)
    true (!shared > 0)

let () =
  Alcotest.run "protocol"
    [
      ( "precise-clocks",
        [
          Alcotest.test_case "commit ts collapses to rs+1" `Quick
            test_precise_commit_timestamp_small;
          Alcotest.test_case "physical ts reflects WAN" `Quick
            test_physical_commit_timestamp_large;
          Alcotest.test_case "LastReader orders writers (P2)" `Quick
            test_last_reader_orders_writer;
        ] );
      ( "speculation",
        [
          Alcotest.test_case "write stacking pipeline" `Quick test_write_stacking_pipeline;
          Alcotest.test_case "cache partition serves non-local" `Quick
            test_cache_partition_serves_nonlocal;
          Alcotest.test_case "cache cleared after commit" `Quick
            test_cache_cleared_after_commit;
          Alcotest.test_case "eviction / master race" `Quick test_eviction_by_remote_prepare;
          Alcotest.test_case "read-only waits for dependee" `Quick
            test_read_only_waits_for_dependee;
        ] );
      ( "ext-spec",
        [
          Alcotest.test_case "speculative latency" `Quick test_ext_spec_latency_and_misspec;
          Alcotest.test_case "misspeculation counted" `Quick
            test_ext_spec_misspeculation_counted;
        ] );
      ( "clock-si",
        [ Alcotest.test_case "read delay until catch-up" `Quick test_clocksi_read_delay ] );
      ( "self-tuning",
        [
          Alcotest.test_case "tuner picks SR when it wins" `Slow
            test_tuner_picks_speculation_when_it_wins;
          Alcotest.test_case "bounded-misspec criterion" `Slow
            test_tuner_bounded_misspec_criterion;
        ] );
      ( "serializability",
        [
          Alcotest.test_case "SI admits write skew" `Quick test_si_admits_write_skew;
          Alcotest.test_case "serializable rejects write skew" `Quick
            test_serializable_rejects_write_skew;
          Alcotest.test_case "uncontended + read-only unaffected" `Quick
            test_serializable_plain_commit_works;
        ] );
      ( "engine-misc",
        [
          Alcotest.test_case "read-your-writes" `Quick test_read_your_writes;
          Alcotest.test_case "SR toggle mid-run is safe" `Slow test_sr_toggle_mid_run_safe;
          Alcotest.test_case "first committer wins (remote)" `Quick
            test_first_committer_wins_remote;
          Alcotest.test_case "deterministic runs" `Quick test_deterministic_engine_runs;
        ] );
      ( "shared-versions",
        [
          Alcotest.test_case "one committed version per write" `Quick
            test_committed_versions_shared;
          Alcotest.test_case "committed versions never change" `Quick
            test_committed_versions_immutable;
          Alcotest.test_case "store words per version" `Quick test_store_words_per_version;
          Alcotest.test_case "one directory per partition" `Quick
            test_one_directory_per_partition;
          Alcotest.test_case "write-once keys share one chain" `Quick
            test_write_once_keys_share_one_chain;
        ] );
    ]

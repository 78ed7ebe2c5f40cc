(* Fault-tolerance tests (§5.6): node crashes, perfect failure
   detection, master fail-over, and cluster consistency afterwards. *)

open Store
module Key = Keyspace.Key
module Value = Keyspace.Value
module Sim = Dsim.Sim

let run_scenario s =
  let w = Check.Scenario.prepare s in
  Check.Scenario.start w;
  w

let key ~p name = Key.v ~partition:p name

let make_cluster ?(dcs = 5) ?(rf = 3) () =
  let sim = Sim.create () in
  let topology = Dsim.Topology.uniform ~dcs ~rtt_ms:80. ~intra_rtt_ms:0.5 in
  let node_dc = Array.init dcs (fun i -> i) in
  let rng = Dsim.Rng.create ~seed:13 in
  let net = Dsim.Network.create ~sim ~topology ~node_dc ~jitter:0. ~rng in
  let placement = Placement.ring ~n_nodes:dcs ~replication_factor:rf () in
  let eng = Core.Engine.create ~sim ~net ~placement ~config:(Core.Config.str ()) () in
  (sim, placement, eng)

let test_survivors_keep_committing () =
  let sim, placement, eng = make_cluster () in
  let k1 = key ~p:1 "x" (* mastered by node 1, replicated on {1,2,3} *) in
  Core.Engine.load eng k1 (Value.Int 0);
  (* Crash node 1 at t=50ms. *)
  Sim.schedule sim ~delay:50_000 (fun () -> Core.Engine.crash eng 1);
  let committed = ref 0 and failed = ref 0 in
  (* A node-2 client keeps writing k1 before and after the crash. *)
  Dsim.Fiber.spawn sim (fun () ->
      for i = 1 to 6 do
        let tx = Core.Engine.begin_tx eng ~origin:2 in
        (match
           Core.Engine.write eng tx k1 (Value.Int i);
           Core.Engine.commit eng tx
         with
        | _ -> incr committed
        | exception Core.Types.Tx_abort _ -> incr failed);
        Dsim.Fiber.sleep sim 100_000
      done);
  ignore (Sim.run sim);
  Alcotest.(check bool)
    (Printf.sprintf "most writes commit across the fail-over (%d ok, %d aborted)"
       !committed !failed)
    true
    (!committed >= 4);
  (* The partition has a new live master. *)
  ignore placement;
  Alcotest.(check bool) "node 1 dead" false (Core.Engine.is_alive eng 1);
  match Core.Engine.check_invariants eng with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_in_flight_certification_aborts () =
  (* A transaction mid-certification against a master that dies must
     abort with Node_failure rather than hang. *)
  let sim, _placement, eng = make_cluster () in
  let k = key ~p:1 "y" in
  Core.Engine.load eng k (Value.Int 0);
  let outcome = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      (* Node 0 does not replicate partition 1 (ring rf=3 on 5 nodes:
         replicas {1,2,3}): certification goes to master node 1. *)
      Core.Engine.write eng tx k (Value.Int 9);
      match Core.Engine.commit eng tx with
      | _ -> outcome := Some `Committed
      | exception Core.Types.Tx_abort r -> outcome := Some (`Aborted r));
  (* Crash the master while the prepare is in flight (one-way is 40ms). *)
  Sim.schedule sim ~delay:20_000 (fun () -> Core.Engine.crash eng 1);
  ignore (Sim.run sim);
  (match !outcome with
   | Some (`Aborted Core.Types.Node_failure) -> ()
   | Some `Committed -> Alcotest.fail "must not commit through a dead master"
   | Some (`Aborted r) ->
     Alcotest.fail ("unexpected reason: " ^ Core.Types.abort_reason_to_string r)
   | None -> Alcotest.fail "transaction hung (no outcome)");
  (* And a retry against the promoted master succeeds. *)
  let retried = ref false in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      match
        Core.Engine.write eng tx k (Value.Int 10);
        Core.Engine.commit eng tx
      with
      | _ -> retried := true
      | exception Core.Types.Tx_abort _ -> ());
  ignore (Sim.run sim);
  Alcotest.(check bool) "retry commits via promoted master" true !retried

let test_dead_nodes_speculation_purged () =
  (* Node 1's transaction local-commits and starts certification, then
     node 1 dies: its pre-committed versions at the survivors must be
     removed so readers do not block forever. *)
  let sim, _placement, eng = make_cluster () in
  let k = key ~p:1 "z" in
  Core.Engine.load eng k (Value.Int 1);
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:1 in
      Core.Engine.write eng tx k (Value.Int 2);
      try ignore (Core.Engine.commit eng tx) with Core.Types.Tx_abort _ -> ());
  (* Crash while the replicates are in flight. *)
  Sim.schedule sim ~delay:20_000 (fun () -> Core.Engine.crash eng 1);
  ignore (Sim.run sim);
  (* A node-2 reader (replica of partition 1) sees the old committed
     value, without blocking forever. *)
  let seen = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:2 in
      seen := Core.Engine.read eng tx k;
      try ignore (Core.Engine.commit eng tx) with Core.Types.Tx_abort _ -> ());
  ignore (Sim.run sim);
  Alcotest.(check (option int)) "old value readable" (Some 1)
    (match !seen with Some (Value.Int i) -> Some i | _ -> None)

let test_crash_is_idempotent () =
  let sim, _placement, eng = make_cluster () in
  Core.Engine.crash eng 3;
  Core.Engine.crash eng 3;
  Alcotest.(check bool) "dead" false (Core.Engine.is_alive eng 3);
  ignore (Sim.run sim)

let test_full_run_with_mid_run_crash () =
  (* Whole-cluster workload with a crash in the middle: survivors keep
     committing, invariants hold, and the surviving history is clean. *)
  let sim, placement, eng = make_cluster () in
  let params =
    {
      Workload.Synthetic.default with
      local_hot = 1;
      local_space = 50;
      remote_hot = 5;
      remote_space = 50;
    }
  in
  let wl = Workload.Synthetic.make ~params placement in
  let h = Spsi.History.create () in
  Core.Engine.set_observer eng (Spsi.History.record h);
  let shared = Harness.Client.make_shared ~measure_from:0 ~measure_to:4_000_000 in
  let rng = Dsim.Rng.create ~seed:41 in
  for node = 0 to 4 do
    for _ = 1 to 4 do
      let crng = Dsim.Rng.split rng in
      Harness.Client.spawn eng wl ~node ~rng:crng ~shared ~stop_at:4_000_000
        ~start_delay:(Dsim.Rng.int crng 50_000)
    done
  done;
  Sim.schedule sim ~delay:1_500_000 (fun () -> Core.Engine.crash eng 4);
  ignore (Sim.run ~until:5_000_000 sim);
  let before = Core.Engine.total_commits eng in
  ignore (Sim.run ~until:6_000_000 sim);
  ignore before;
  let stats = Core.Engine.total_stats eng in
  Alcotest.(check bool) "cluster kept committing" true (stats.Core.Stats.commits > 50);
  (match Core.Engine.check_invariants eng with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (* Consistency of the surviving committed history: writers that
     committed must still satisfy first-committer-wins. *)
  let violations =
    List.filter
      (fun (v : Spsi.Checker.violation) -> v.rule = "SPSI-2")
      (Spsi.Checker.check_spsi h)
  in
  match violations with
  | [] -> ()
  | vs -> Alcotest.fail (Spsi.Checker.report vs)

(* --- crash-recover + atomic-commitment recovery (§5.6) -------------- *)

(* A cluster with the recovery protocol on (failure-detection periods
   set) and a declarative fault layer installed, so crash/recover come
   from a plan and link cuts/loss compose with the liveness gate. *)
let make_recovery_cluster ?(dcs = 3) ?(rf = 3) ~plan () =
  let sim = Sim.create () in
  let topology = Dsim.Topology.uniform ~dcs ~rtt_ms:80. ~intra_rtt_ms:0.5 in
  let node_dc = Array.init dcs (fun i -> i) in
  let rng = Dsim.Rng.create ~seed:13 in
  let net = Dsim.Network.create ~sim ~topology ~node_dc ~jitter:0. ~rng in
  let placement = Placement.ring ~n_nodes:dcs ~replication_factor:rf () in
  let config = Core.Config.with_recovery (Core.Config.str ()) in
  let eng = Core.Engine.create ~sim ~net ~placement ~config () in
  let fault = Dsim.Fault.create ~n:dcs () in
  Core.Engine.install_fault eng fault;
  Dsim.Fault.install fault ~sim plan;
  (sim, eng, fault)

let no_pending_anywhere ?(dcs = 3) eng =
  let leftovers = ref [] in
  for n = 0 to dcs - 1 do
    for p = 0 to dcs - 1 do
      if Core.Engine.is_alive eng n then
        match Core.Engine.server eng ~node:n ~partition:p with
        | srv ->
          List.iter
            (fun txid -> leftovers := (n, p, Txid.to_string txid) :: !leftovers)
            (Core.Partition_server.pending_txids srv)
        | exception _ -> ()
    done
  done;
  match !leftovers with
  | [] -> ()
  | (n, p, tx) :: _ ->
    Alcotest.fail
      (Printf.sprintf "%s still in doubt at node %d partition %d" tx n p)

let test_recovery_resolves_in_doubt_commit () =
  (* The coordinator decides commit, then crashes before the decision
     messages reach the replicas — they are lost with it.  The held
     in-doubt prepares must resolve to COMMIT from the recovered
     coordinator's decision log, never presumed-abort. *)
  let plan = [ (100_000, Dsim.Fault.Crash 1); (400_000, Dsim.Fault.Recover 1) ] in
  let sim, eng, _fault = make_recovery_cluster ~plan () in
  let k = key ~p:1 "x" (* mastered by node 1, replicas {1,2,3} *) in
  Core.Engine.load eng k (Value.Int 0);
  let committed_ct = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:1 in
      Core.Engine.write eng tx k (Value.Int 7);
      match Core.Engine.commit eng tx with
      | ct -> committed_ct := Some ct
      | exception Core.Types.Tx_abort _ -> ());
  ignore (Sim.run sim);
  (* Replication round trip is 80ms, so the decision messages (sent at
     ~80ms) are in flight at the 100ms crash and dropped. *)
  Alcotest.(check bool) "coordinator committed before crashing" true
    (!committed_ct <> None);
  Alcotest.(check bool) "node 1 back up" true (Core.Engine.is_alive eng 1);
  (* Both surviving replicas resolved their held prepare to commit. *)
  let stats = Core.Engine.total_stats eng in
  Alcotest.(check bool)
    (Printf.sprintf "in-doubt prepares resolved to commit (%d)"
       stats.Core.Stats.in_doubt_commits)
    true
    (stats.Core.Stats.in_doubt_commits >= 2);
  Alcotest.(check int) "never presumed abort" 0 stats.Core.Stats.in_doubt_aborts;
  no_pending_anywhere eng;
  Alcotest.(check int) "loaded and committed versions each shared by the replicas" 2
    (Committed_check.check_shared eng);
  (* The committed value is readable at a survivor. *)
  let seen = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:2 in
      seen := Core.Engine.read eng tx k;
      try ignore (Core.Engine.commit eng tx) with Core.Types.Tx_abort _ -> ());
  ignore (Sim.run sim);
  Alcotest.(check (option int)) "committed write visible" (Some 7)
    (match !seen with Some (Value.Int i) -> Some i | _ -> None);
  match Core.Engine.check_invariants eng with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_recovery_crash_mid_prepare_presumed_abort () =
  (* The coordinator crashes while its prepares are still in flight: no
     commit decision can exist, so after it recovers every held prepare
     resolves to abort (from the D_abort its crash logged), and the
     pre-crash value stays visible. *)
  let plan = [ (50_000, Dsim.Fault.Crash 1); (400_000, Dsim.Fault.Recover 1) ] in
  let sim, eng, _fault = make_recovery_cluster ~plan () in
  let k = key ~p:2 "y" (* mastered by node 2: certification is remote *) in
  Core.Engine.load eng k (Value.Int 1);
  let outcome = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:1 in
      Core.Engine.write eng tx k (Value.Int 2);
      match Core.Engine.commit eng tx with
      | _ -> outcome := Some `Committed
      | exception Core.Types.Tx_abort r -> outcome := Some (`Aborted r));
  ignore (Sim.run sim);
  (match !outcome with
   | Some `Committed -> Alcotest.fail "must not commit through its own crash"
   | Some (`Aborted _) | None -> ());
  no_pending_anywhere eng;
  let seen = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      seen := Core.Engine.read eng tx k;
      try ignore (Core.Engine.commit eng tx) with Core.Types.Tx_abort _ -> ());
  ignore (Sim.run sim);
  Alcotest.(check (option int)) "old value survives the aborted writer" (Some 1)
    (match !seen with Some (Value.Int i) -> Some i | _ -> None);
  match Core.Engine.check_invariants eng with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_partition_isolates_coordinator () =
  (* The coordinator is partitioned away (alive, but every link to and
     from it is black-holed) mid-certification.  Its own prepare timeout
     aborts the transaction; the participants' termination timeout kicks
     off status queries that keep retrying until the partition heals,
     then resolve the held prepare to abort. *)
  let plan = [ (60_000, Dsim.Fault.Isolate 0); (1_500_000, Dsim.Fault.Heal) ] in
  let sim, eng, fault = make_recovery_cluster ~plan () in
  let k = key ~p:1 "z" in
  Core.Engine.load eng k (Value.Int 3);
  let outcome = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      Core.Engine.write eng tx k (Value.Int 4);
      match Core.Engine.commit eng tx with
      | _ -> outcome := Some `Committed
      | exception Core.Types.Tx_abort r -> outcome := Some (`Aborted r));
  ignore (Sim.run sim);
  (match !outcome with
   | Some (`Aborted Core.Types.Prepare_timeout) -> ()
   | Some (`Aborted r) ->
     Alcotest.fail ("unexpected reason: " ^ Core.Types.abort_reason_to_string r)
   | Some `Committed -> Alcotest.fail "must not commit across the partition"
   | None -> Alcotest.fail "coordinator hung behind the partition");
  let stats = Core.Engine.total_stats eng in
  Alcotest.(check bool) "prepare timeout recorded" true
    (stats.Core.Stats.aborts_prepare_timeout >= 1);
  Alcotest.(check bool) "partition black-holed traffic" true
    (Dsim.Fault.blackholed fault > 0);
  no_pending_anywhere eng;
  match Core.Engine.check_invariants eng with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_lost_commit_decision_resolved_by_termination () =
  (* The commit decision messages (not the coordinator) are lost: the
     links out of the coordinator go down just before it decides and
     come back later.  Nobody crashes — the participants' cooperative
     termination must still converge on COMMIT by querying the (alive)
     coordinator's decision log after the heal. *)
  let plan =
    [
      (70_000, Dsim.Fault.Link_down (1, 0));
      (70_000, Dsim.Fault.Link_down (1, 2));
      (1_000_000, Dsim.Fault.Heal);
    ]
  in
  let sim, eng, _fault = make_recovery_cluster ~plan () in
  let k = key ~p:1 "w" in
  Core.Engine.load eng k (Value.Int 0);
  let committed = ref false in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:1 in
      Core.Engine.write eng tx k (Value.Int 9);
      match Core.Engine.commit eng tx with
      | _ -> committed := true
      | exception Core.Types.Tx_abort _ -> ());
  ignore (Sim.run sim);
  (* Replies (to node 1) flow; the decision broadcast (from node 1, sent
     at ~80ms) hits the cut links and is dropped. *)
  Alcotest.(check bool) "coordinator committed" true !committed;
  let stats = Core.Engine.total_stats eng in
  Alcotest.(check bool)
    (Printf.sprintf "lost decisions recovered as commits (%d)"
       stats.Core.Stats.in_doubt_commits)
    true
    (stats.Core.Stats.in_doubt_commits >= 2);
  Alcotest.(check int) "no spurious aborts" 0 stats.Core.Stats.in_doubt_aborts;
  no_pending_anywhere eng;
  Alcotest.(check int) "loaded and committed versions each shared by the replicas" 2
    (Committed_check.check_shared eng);
  let seen = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:2 in
      seen := Core.Engine.read eng tx k;
      try ignore (Core.Engine.commit eng tx) with Core.Types.Tx_abort _ -> ());
  ignore (Sim.run sim);
  Alcotest.(check (option int)) "committed write visible everywhere" (Some 9)
    (match !seen with Some (Value.Int i) -> Some i | _ -> None);
  match Core.Engine.check_invariants eng with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Whole-cluster workload through a crash-recover cycle plus a
   transient partition, under the recovery protocol.  Node 2 misses
   decisions while down, so its recovery runs every path that installs
   a committed version without a local commit: catch-up from a peer,
   decision messages for prepares it lost, and in-doubt resolution. *)
let faulted_full_run () =
  let plan =
    [
      (1_000_000, Dsim.Fault.Crash 2);
      (1_800_000, Dsim.Fault.Recover 2);
      (2_500_000, Dsim.Fault.Link_down (0, 1));
      (3_000_000, Dsim.Fault.Heal);
    ]
  in
  let dcs = 3 in
  let sim, eng, fault = make_recovery_cluster ~dcs ~rf:2 ~plan () in
  let placement = Core.Engine.placement eng in
  let params =
    {
      Workload.Synthetic.default with
      local_hot = 1;
      local_space = 50;
      remote_hot = 5;
      remote_space = 50;
    }
  in
  let wl = Workload.Synthetic.make ~params placement in
  let h = Spsi.History.create () in
  Core.Engine.set_observer eng (Spsi.History.record h);
  let shared = Harness.Client.make_shared ~measure_from:0 ~measure_to:4_000_000 in
  let rng = Dsim.Rng.create ~seed:41 in
  for node = 0 to dcs - 1 do
    for _ = 1 to 4 do
      let crng = Dsim.Rng.split rng in
      Harness.Client.spawn eng wl ~node ~rng:crng ~shared ~stop_at:4_000_000
        ~start_delay:(Dsim.Rng.int crng 50_000)
    done
  done;
  ignore (Sim.run sim);
  (eng, fault, plan, h)

let test_faulted_full_run_with_recovery () =
  (* The cluster keeps committing, every in-doubt prepare is eventually
     resolved, and the surviving committed history stays consistent. *)
  let dcs = 3 in
  let eng, fault, plan, h = faulted_full_run () in
  let stats = Core.Engine.total_stats eng in
  Alcotest.(check bool) "cluster kept committing" true (stats.Core.Stats.commits > 50);
  Alcotest.(check bool) "fault plan fully applied" true
    (Dsim.Fault.actions_applied fault = List.length plan);
  Alcotest.(check bool) "node 2 back up" true (Core.Engine.is_alive eng 2);
  no_pending_anywhere ~dcs eng;
  (match Core.Engine.check_invariants eng with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let violations =
    List.filter
      (fun (v : Spsi.Checker.violation) -> v.rule = "SPSI-2")
      (Spsi.Checker.check_spsi h)
  in
  match violations with
  | [] -> ()
  | vs -> Alcotest.fail (Spsi.Checker.report vs)

let test_recovery_shares_committed_versions () =
  (* Every replica holding a committed version of a key by a writer
     holds the same object, also where recovery installed it. *)
  let eng, _, _, _ = faulted_full_run () in
  let stats = Core.Engine.total_stats eng in
  Alcotest.(check bool) "in-doubt prepares resolved to commit" true
    (stats.Core.Stats.in_doubt_commits > 0);
  Alcotest.(check bool) "versions held by both replicas" true
    (Committed_check.check_shared eng > 0)

(* --- differential properties ----------------------------------------- *)

(* A benign plan — link state injected and healed again before any
   message delivery — must leave no trace: the run is bit-for-bit the
   fault-free run (same engine fingerprint, same history), on the heap
   and on the wheel. *)
let prop_benign_faults_leave_no_trace =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 6)
        (oneof
           [
             map2 (fun s d -> `Cut (s, d)) (int_range 0 2) (int_range 0 2);
             map (fun n -> `Iso n) (int_range 0 2);
             map3 (fun s d p -> `Drop (s, d, p)) (int_range 0 2) (int_range 0 2)
               (float_range 0.1 0.9);
           ]))
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"pre-activity inject+heal is bit-identical to fault-free"
    ~count:30 arb (fun actions ->
      let plan =
        List.map
          (function
            | `Cut (s, d) -> (0, Dsim.Fault.Link_down (s, d))
            | `Iso n -> (0, Dsim.Fault.Isolate n)
            | `Drop (s, d, p) -> (0, Dsim.Fault.Drop (s, d, p)))
          actions
        @ [ (0, Dsim.Fault.Heal) ]
      in
      let base = Check.Scenario.make ~dcs:3 ~keys:2 ~txs:3 ~rf:2 () in
      let faulted =
        Check.Scenario.make ~dcs:3 ~keys:2 ~txs:3 ~rf:2 ~fault_plan:plan
          ~recovery:false ()
      in
      let w0 = run_scenario base in
      let w1 = run_scenario faulted in
      Core.Engine.fingerprint w0.Check.Scenario.eng
      = Core.Engine.fingerprint w1.Check.Scenario.eng
      && Spsi.History.fingerprint w0.Check.Scenario.history
         = Spsi.History.fingerprint w1.Check.Scenario.history)

(* Heap and wheel must agree event-for-event under the same fault plan:
   crash points and recovery land identically whatever the queue
   structure. *)
let prop_heap_wheel_agree_under_faults =
  let gen =
    QCheck.Gen.(
      triple (int_range 0 2) (int_range 0 200_000) (int_range 0 200_000))
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"heap/wheel identical under crash-recover plans" ~count:15
    arb (fun (node, t_crash, dt) ->
      let plan =
        [ (t_crash, Dsim.Fault.Crash node); (t_crash + dt, Dsim.Fault.Recover node) ]
      in
      let mk queue =
        Check.Scenario.make ~dcs:3 ~keys:2 ~txs:3 ~rf:2 ~queue ~fault_plan:plan ()
      in
      let wh = run_scenario (mk `Heap) in
      let ww = run_scenario (mk `Wheel) in
      Core.Engine.fingerprint wh.Check.Scenario.eng
      = Core.Engine.fingerprint ww.Check.Scenario.eng
      && Spsi.History.fingerprint wh.Check.Scenario.history
         = Spsi.History.fingerprint ww.Check.Scenario.history)

let () =
  Alcotest.run "failover"
    [
      ( "crash",
        [
          Alcotest.test_case "survivors keep committing" `Quick test_survivors_keep_committing;
          Alcotest.test_case "in-flight certification aborts" `Quick
            test_in_flight_certification_aborts;
          Alcotest.test_case "dead node's speculation purged" `Quick
            test_dead_nodes_speculation_purged;
          Alcotest.test_case "idempotent" `Quick test_crash_is_idempotent;
          Alcotest.test_case "full run with mid-run crash" `Slow
            test_full_run_with_mid_run_crash;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "in-doubt prepare resolves to commit" `Quick
            test_recovery_resolves_in_doubt_commit;
          Alcotest.test_case "crash mid-prepare resolves to abort" `Quick
            test_recovery_crash_mid_prepare_presumed_abort;
          Alcotest.test_case "partitioned coordinator" `Quick
            test_partition_isolates_coordinator;
          Alcotest.test_case "lost decision resolved by termination" `Quick
            test_lost_commit_decision_resolved_by_termination;
          Alcotest.test_case "faulted full run with recovery" `Slow
            test_faulted_full_run_with_recovery;
          Alcotest.test_case "recovery shares committed versions" `Slow
            test_recovery_shares_committed_versions;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_benign_faults_leave_no_trace;
          QCheck_alcotest.to_alcotest prop_heap_wheel_agree_under_faults;
        ] );
    ]

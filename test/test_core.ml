(* Integration tests for the STR engine: basic transaction lifecycle,
   speculative reads, and misspeculation cascades. *)

open Store
module Key = Keyspace.Key
module Value = Keyspace.Value
module Sim = Dsim.Sim

let key ~p name = Key.v ~partition:p name

(* Build a small cluster: [dcs] data centers, one node per DC, one
   partition per node, ring replication. *)
let make_cluster ?(dcs = 3) ?(rf = 2) ?(config = Core.Config.str ()) () =
  let sim = Sim.create () in
  let topology = Dsim.Topology.uniform ~dcs ~rtt_ms:100. ~intra_rtt_ms:0.5 in
  let node_dc = Array.init dcs (fun i -> i) in
  let rng = Dsim.Rng.create ~seed:7 in
  let net = Dsim.Network.create ~sim ~topology ~node_dc ~jitter:0. ~rng in
  let placement = Placement.ring ~n_nodes:dcs ~replication_factor:rf () in
  let eng = Core.Engine.create ~sim ~net ~placement ~config () in
  (sim, eng)

let run_fiber sim f =
  let result = ref None in
  Dsim.Fiber.spawn sim (fun () -> result := Some (f ()));
  ignore (Sim.run sim);
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "fiber did not complete (deadlock?)"

let test_read_write_commit () =
  let sim, eng = make_cluster () in
  let k = key ~p:0 "a" in
  Core.Engine.load eng k (Value.Int 1);
  let v =
    run_fiber sim (fun () ->
        let tx = Core.Engine.begin_tx eng ~origin:0 in
        let v0 = Core.Engine.read eng tx k in
        Core.Engine.write eng tx k (Value.Int 2);
        let _ct = Core.Engine.commit eng tx in
        (* A later transaction sees the new value. *)
        Dsim.Fiber.sleep sim 10;
        let tx2 = Core.Engine.begin_tx eng ~origin:0 in
        let v1 = Core.Engine.read eng tx2 k in
        ignore (Core.Engine.commit eng tx2);
        (v0, v1))
  in
  Alcotest.(check (pair (option int) (option int)))
    "values"
    (Some 1, Some 2)
    ( (match fst v with Some (Value.Int i) -> Some i | _ -> None),
      match snd v with Some (Value.Int i) -> Some i | _ -> None )

let test_remote_read () =
  let sim, eng = make_cluster () in
  (* ring rf=2: partition 1 is replicated at nodes {1,2}, so reading it
     from node 0 goes over the WAN. *)
  let k = key ~p:1 "b" in
  Core.Engine.load eng k (Value.Int 7);
  let v =
    run_fiber sim (fun () ->
        let tx = Core.Engine.begin_tx eng ~origin:0 in
        let v = Core.Engine.read eng tx k in
        ignore (Core.Engine.commit eng tx);
        v)
  in
  Alcotest.(check (option int)) "remote value" (Some 7)
    (match v with Some (Value.Int i) -> Some i | _ -> None)

let test_speculative_read_success () =
  (* T1 updates a remote key and a local key; while T1 is in global
     certification, T2 (same node) speculatively reads T1's local write
     and both commit. *)
  let sim, eng = make_cluster () in
  let local_k = key ~p:0 "hot" in
  let remote_k = key ~p:1 "r" in
  Core.Engine.load eng local_k (Value.Int 0);
  Core.Engine.load eng remote_k (Value.Int 0);
  let t1_done = ref None and t2_val = ref None and t2_done = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      ignore (Core.Engine.read eng tx local_k);
      Core.Engine.write eng tx local_k (Value.Int 41);
      Core.Engine.write eng tx remote_k (Value.Int 42);
      match Core.Engine.commit eng tx with
      | ct -> t1_done := Some ct
      | exception Core.Types.Tx_abort _ -> t1_done := None);
  Dsim.Fiber.spawn sim (fun () ->
      (* Start shortly after T1 local-commits (local cert is fast), while
         its global certification (~1 RTT) is still in flight. *)
      Dsim.Fiber.sleep sim 2_000;
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      (match Core.Engine.read eng tx local_k with
       | Some (Value.Int i) -> t2_val := Some i
       | _ -> ());
      match Core.Engine.commit eng tx with
      | ct -> t2_done := Some ct
      | exception Core.Types.Tx_abort _ -> t2_done := None);
  ignore (Sim.run sim);
  Alcotest.(check bool) "t1 committed" true (!t1_done <> None);
  Alcotest.(check (option int)) "t2 saw speculative value" (Some 41) !t2_val;
  Alcotest.(check bool) "t2 committed" true (!t2_done <> None);
  match Core.Engine.check_invariants eng with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_baseline_blocks_instead () =
  (* Same scenario under ClockSI-Rep: T2 must block until T1's final
     outcome, so T2's read takes about an inter-DC round trip. *)
  let sim, eng = make_cluster ~config:(Core.Config.clocksi_rep ()) () in
  let local_k = key ~p:0 "hot" in
  let remote_k = key ~p:1 "r" in
  Core.Engine.load eng local_k (Value.Int 0);
  Core.Engine.load eng remote_k (Value.Int 0);
  let t2_read_time = ref 0 in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      ignore (Core.Engine.read eng tx local_k);
      Core.Engine.write eng tx local_k (Value.Int 41);
      Core.Engine.write eng tx remote_k (Value.Int 42);
      try ignore (Core.Engine.commit eng tx) with Core.Types.Tx_abort _ -> ());
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.sleep sim 2_000;
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      ignore (Core.Engine.read eng tx local_k);
      t2_read_time := Sim.now sim;
      try ignore (Core.Engine.commit eng tx) with Core.Types.Tx_abort _ -> ());
  ignore (Sim.run sim);
  (* One-way latency is 50ms; replication + reply is ~100ms, so the
     blocked read cannot complete before ~50ms. *)
  Alcotest.(check bool)
    (Printf.sprintf "t2 read blocked until commit (read at %dus)" !t2_read_time)
    true (!t2_read_time > 50_000)

let test_misspeculation_cascades () =
  (* T2 reads speculatively from T1; T1 loses its remote certification
     to a conflicting transaction, so T2 must abort too (SPSI-4). *)
  let sim, eng = make_cluster () in
  let shared = key ~p:1 "shared" in
  let local_k = key ~p:0 "loc" in
  Core.Engine.load eng shared (Value.Int 0);
  Core.Engine.load eng local_k (Value.Int 0);
  let t1_out = ref None and t2_out = ref None in
  Dsim.Fiber.spawn sim (fun () ->
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      Core.Engine.write eng tx shared (Value.Int 1);
      Core.Engine.write eng tx local_k (Value.Int 1);
      match Core.Engine.commit eng tx with
      | _ -> t1_out := Some `Commit
      | exception Core.Types.Tx_abort r -> t1_out := Some (`Abort r));
  Dsim.Fiber.spawn sim (fun () ->
      (* Conflicting writer at node 1 (master of partition 1). *)
      let tx = Core.Engine.begin_tx eng ~origin:1 in
      Core.Engine.write eng tx shared (Value.Int 2);
      try ignore (Core.Engine.commit eng tx) with Core.Types.Tx_abort _ -> ());
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.sleep sim 2_000;
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      ignore (Core.Engine.read eng tx local_k);
      match Core.Engine.commit eng tx with
      | _ -> t2_out := Some `Commit
      | exception Core.Types.Tx_abort r -> t2_out := Some (`Abort r));
  ignore (Sim.run sim);
  (* Exactly one of T1 and the node-1 writer can commit the shared key.
     If T1 aborted, T2 (which read T1's speculative local write) must
     have aborted as well. *)
  match !t1_out with
  | Some (`Abort _) ->
    (match !t2_out with
     | Some (`Abort _) -> ()
     | _ -> Alcotest.fail "T2 should cascade-abort with T1")
  | Some `Commit -> ()
  | None -> Alcotest.fail "T1 did not finish"

let store_of eng ~node ~p = Core.Partition_server.store (Core.Engine.server eng ~node ~partition:p)

let test_duplicate_load_rejected () =
  let _sim, eng = make_cluster () in
  let k = key ~p:0 "a" in
  Core.Engine.load eng k (Value.Int 1);
  Alcotest.check_raises "second load of a loaded key"
    (Invalid_argument "Mvstore.load: key 0:a is already loaded or written") (fun () ->
      Core.Engine.load eng k (Value.Int 2));
  (* ring rf=2: partition 0 lives on nodes 0 and 1.  A key already
     written at the second replica must be refused too. *)
  let w = key ~p:0 "w" in
  Mvstore.insert_version (store_of eng ~node:1 ~p:0) w
    (Version.make ~writer:(Txid.make ~origin:1 ~number:1) ~state:Version.Committed ~ts:5
       ~value:(Value.Int 0));
  Alcotest.check_raises "load of a key written at a replica"
    (Invalid_argument "Engine.load: key 0:w is already written") (fun () ->
      Core.Engine.load eng w (Value.Int 2));
  (* The refused loads changed nothing: one version of [k] per replica. *)
  List.iter
    (fun node ->
      let s = store_of eng ~node ~p:0 in
      Alcotest.(check int) "versions of k" 1
        (Mvstore.fold_versions (fun n _ -> n + 1) 0 s k))
    [ 0; 1 ]

let test_load_shared_until_written () =
  let sim, eng = make_cluster () in
  let k = key ~p:0 "a" in
  Core.Engine.load eng k (Value.Int 1);
  let s0 = store_of eng ~node:0 ~p:0 and s1 = store_of eng ~node:1 ~p:0 in
  let loaded s = Mvstore.latest_before s k ~rs:max_int in
  Alcotest.(check bool) "replicas share the loaded version" true
    (match (loaded s0, loaded s1) with Some a, Some b -> a == b | _ -> false);
  Alcotest.(check bool) "nothing written yet" false
    (Mvstore.written s0 k || Mvstore.written s1 k);
  ignore
    (run_fiber sim (fun () ->
         let tx = Core.Engine.begin_tx eng ~origin:0 in
         Core.Engine.write eng tx k (Value.Int 2);
         Core.Engine.commit eng tx));
  List.iter
    (fun s ->
      Alcotest.(check bool) "written after commit" true (Mvstore.written s k);
      Alcotest.(check int) "loaded + committed versions" 2 (Mvstore.version_count s);
      match Mvstore.check_accounting s with Ok () -> () | Error e -> Alcotest.fail e)
    [ s0; s1 ]

let () =
  Alcotest.run "core-smoke"
    [
      ( "engine",
        [
          Alcotest.test_case "read-write-commit" `Quick test_read_write_commit;
          Alcotest.test_case "remote read" `Quick test_remote_read;
          Alcotest.test_case "speculative read success" `Quick test_speculative_read_success;
          Alcotest.test_case "baseline blocks" `Quick test_baseline_blocks_instead;
          Alcotest.test_case "misspeculation cascades" `Quick test_misspeculation_cascades;
          Alcotest.test_case "duplicate load rejected" `Quick test_duplicate_load_rejected;
          Alcotest.test_case "load shared until written" `Quick
            test_load_shared_until_written;
        ] );
    ]

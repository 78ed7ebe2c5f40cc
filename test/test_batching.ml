(* Queue-oriented speculative batching (coalesced commit pipeline):
   - window = 0 must be bit-identical to the historical engine, on the
     heap, the wheel, and under a controlled-mode chooser;
   - with coalescing ON the committed history must still be SPSI-clean,
     fault-free and across crash-recover schedules;
   - the batching counters (engine, network, partition-server sweeps)
     must agree with each other;
   - the self-tuner's batch-window ladder must reach a decision and
     install it in the live configuration. *)

open Store
module Key = Keyspace.Key
module Value = Keyspace.Value
module Sim = Dsim.Sim

let fingerprints (w : Check.Scenario.world) =
  ( Core.Engine.fingerprint w.Check.Scenario.eng,
    Spsi.History.fingerprint w.Check.Scenario.history )

(* --- differential properties ----------------------------------------- *)

(* A configuration that carries the whole batching plumbing but a zero
   window must be bit-for-bit the unbatched run: same engine
   fingerprint, same history, on either queue structure. *)
let prop_window_zero_bit_identical =
  let gen =
    QCheck.Gen.(
      quad (int_range 2 3) (int_range 1 2) (int_range 2 4) (int_range 1 2))
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"batch_window_us=0 is bit-identical (heap + wheel)"
    ~count:20 arb (fun (dcs, keys, txs, rf) ->
      List.for_all
        (fun queue ->
          let base = Check.Scenario.make ~rf ~queue ~dcs ~keys ~txs () in
          let zeroed =
            Check.Scenario.make ~rf ~queue
              ~config:
                (Core.Config.with_batching ~batch_window_us:0 ~batch_max:16
                   (Check.Scenario.config ()))
              ~dcs ~keys ~txs ()
          in
          fingerprints (Check.Scenario.run base)
          = fingerprints (Check.Scenario.run zeroed))
        [ `Heap; `Wheel ])

(* Same under controlled mode: a seeded random chooser replayed against
   both deployments must follow the identical schedule and land on the
   identical state. *)
let prop_window_zero_bit_identical_controlled =
  let gen = QCheck.Gen.(pair (int_range 0 1_000_000) (int_range 2 4)) in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"batch_window_us=0 is bit-identical (controlled)"
    ~count:15 arb (fun (seed, txs) ->
      let chooser_of seed =
        let rng = Dsim.Rng.create ~seed in
        fun (cands : Sim.candidate array) -> Dsim.Rng.int rng (Array.length cands)
      in
      let base = Check.Scenario.make ~rf:2 ~dcs:2 ~keys:2 ~txs () in
      let zeroed =
        Check.Scenario.make ~rf:2
          ~config:
            (Core.Config.with_batching ~batch_window_us:0 ~batch_max:16
               (Check.Scenario.config ()))
          ~dcs:2 ~keys:2 ~txs ()
      in
      let w0 = Check.Scenario.run ~chooser:(chooser_of seed) base in
      let w1 = Check.Scenario.run ~chooser:(chooser_of seed) zeroed in
      fingerprints w0 = fingerprints w1)

(* Coalescing ON, no faults: the committed history must satisfy full
   SPSI and the cluster invariants must hold. *)
let prop_batched_runs_spsi_clean =
  let gen = QCheck.Gen.(triple (int_range 2 3) (int_range 1 2) (int_range 2 5)) in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"batching-on runs are SPSI-clean" ~count:20 arb
    (fun (dcs, keys, txs) ->
      let s =
        Check.Scenario.make ~rf:2
          ~config:(Check.Scenario.config ~batching:true ())
          ~dcs ~keys ~txs ()
      in
      let w = Check.Scenario.run s in
      Spsi.Checker.check_spsi w.Check.Scenario.history = []
      && Core.Engine.check_invariants w.Check.Scenario.eng = Ok ())

(* Coalescing ON through a crash-recover schedule (recovery protocol
   enabled): in-doubt batched prepares must resolve without ever
   violating first-committer-wins on the surviving history. *)
let prop_batched_faulted_runs_consistent =
  let gen =
    QCheck.Gen.(
      triple (int_range 0 2) (int_range 0 200_000) (int_range 0 200_000))
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"batching-on crash-recover keeps SPSI-2" ~count:15 arb
    (fun (node, t_crash, dt) ->
      let plan =
        [ (t_crash, Dsim.Fault.Crash node); (t_crash + dt, Dsim.Fault.Recover node) ]
      in
      let s =
        Check.Scenario.make ~rf:2
          ~config:(Check.Scenario.config ~batching:true ())
          ~fault_plan:plan ~dcs:3 ~keys:2 ~txs:3 ()
      in
      let w = Check.Scenario.run s in
      List.for_all
        (fun (v : Spsi.Checker.violation) -> v.rule <> "SPSI-2")
        (Spsi.Checker.check_spsi w.Check.Scenario.history)
      && Core.Engine.check_invariants w.Check.Scenario.eng = Ok ())

(* --- counter consistency --------------------------------------------- *)

let test_batching_counters_consistent () =
  let s =
    Check.Scenario.make ~rf:2
      ~config:(Check.Scenario.config ~batching:true ())
      ~dcs:3 ~keys:2 ~txs:5 ()
  in
  let w = Check.Scenario.run s in
  let eng = w.Check.Scenario.eng in
  let flushes = Core.Engine.batch_flushes eng in
  let payloads = Core.Engine.batch_payloads eng in
  Alcotest.(check bool) "some flushes happened" true (flushes > 0);
  Alcotest.(check bool) "each flush carries >= 1 payload" true
    (payloads >= flushes);
  let occ = Core.Engine.batch_occupancy eng in
  Alcotest.(check int) "occupancy histogram sums to the flush count" flushes
    (Array.fold_left ( + ) 0 occ);
  (* Every flush is exactly one coalesced wire message. *)
  let net = Core.Engine.net eng in
  Alcotest.(check int) "network flush count" flushes (Dsim.Network.batches_sent net);
  (* Certification sweeps: the per-server histograms must account for
     every swept prepare. *)
  let sweeps, swept, cocc = Core.Engine.cert_sweep_stats eng in
  Alcotest.(check int) "sweep histogram sums to the sweep count" sweeps
    (Array.fold_left ( + ) 0 cocc);
  Alcotest.(check bool) "each sweep certifies >= 1 prepare" true
    (swept >= sweeps);
  Alcotest.(check bool) "swept prepares are bounded by batched payloads" true
    (swept <= payloads)

let test_unbatched_counters_stay_zero () =
  let s = Check.Scenario.make ~rf:2 ~dcs:2 ~keys:2 ~txs:3 () in
  let w = Check.Scenario.run s in
  let eng = w.Check.Scenario.eng in
  Alcotest.(check int) "no flushes" 0 (Core.Engine.batch_flushes eng);
  Alcotest.(check int) "no batched payloads" 0 (Core.Engine.batch_payloads eng);
  Alcotest.(check int) "no coalesced wire messages" 0
    (Dsim.Network.batches_sent (Core.Engine.net eng))

(* --- self-tuning ladder ----------------------------------------------- *)

let test_tuner_batch_ladder_decides () =
  let dcs = 3 in
  let sim = Sim.create () in
  let topology = Dsim.Topology.uniform ~dcs ~rtt_ms:80. ~intra_rtt_ms:0.5 in
  let node_dc = Array.init dcs (fun i -> i) in
  let rng = Dsim.Rng.create ~seed:13 in
  let net = Dsim.Network.create ~sim ~topology ~node_dc ~jitter:0. ~rng in
  let placement = Placement.ring ~n_nodes:dcs ~replication_factor:2 () in
  (* Per-wire-message dispatch cost on: the ladder has a real trade-off
     to measure.  Window starts at 0 (off); the tuner flips it live. *)
  let config =
    Core.Config.with_batching ~batch_window_us:0 ~batch_max:16 ~cost_msg:20
      (Core.Config.str ())
  in
  let eng = Core.Engine.create ~sim ~net ~placement ~config () in
  let wl =
    Workload.Synthetic.make
      ~params:
        {
          Workload.Synthetic.default with
          local_hot = 1;
          local_space = 50;
          remote_hot = 5;
          remote_space = 50;
        }
      placement
  in
  let shared = Harness.Client.make_shared ~measure_from:0 ~measure_to:2_500_000 in
  let crng = Dsim.Rng.create ~seed:41 in
  for node = 0 to dcs - 1 do
    for _ = 1 to 4 do
      let r = Dsim.Rng.split crng in
      Harness.Client.spawn eng wl ~node ~rng:r ~shared ~stop_at:2_500_000
        ~start_delay:(Dsim.Rng.int r 20_000)
    done
  done;
  let ladder = [| 0; 200 |] in
  let tuner =
    Core.Self_tuning.install eng ~window_us:300_000 ~batch_windows:ladder ()
  in
  ignore (Sim.run ~until:2_600_000 sim);
  (match Core.Self_tuning.batch_decision tuner with
   | None -> Alcotest.fail "ladder exploration did not decide"
   | Some w ->
     Alcotest.(check bool) "decision comes from the ladder" true
       (Array.exists (( = ) w) ladder);
     Alcotest.(check int) "decision installed in the live config"
       w
       (Core.Engine.config eng).Core.Config.batch_window_us);
  let thr = Core.Self_tuning.batch_throughputs tuner in
  Alcotest.(check int) "one measurement per candidate" (Array.length ladder)
    (Array.length thr);
  Array.iter
    (fun (_, t) ->
      Alcotest.(check bool) "candidate throughput measured" true (t >= 0.))
    thr;
  match Core.Engine.check_invariants eng with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "batching"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_window_zero_bit_identical;
          QCheck_alcotest.to_alcotest prop_window_zero_bit_identical_controlled;
          QCheck_alcotest.to_alcotest prop_batched_runs_spsi_clean;
          QCheck_alcotest.to_alcotest prop_batched_faulted_runs_consistent;
        ] );
      ( "counters",
        [
          Alcotest.test_case "batched counters consistent" `Quick
            test_batching_counters_consistent;
          Alcotest.test_case "unbatched counters stay zero" `Quick
            test_unbatched_counters_stay_zero;
        ] );
      ( "self-tuning",
        [
          Alcotest.test_case "batch-window ladder decides" `Quick
            test_tuner_batch_ladder_decides;
        ] );
    ]

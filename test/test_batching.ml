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

let run_scenario ?chooser s =
  let w = Check.Scenario.prepare ?chooser s in
  Check.Scenario.start w;
  w

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
          fingerprints (run_scenario base)
          = fingerprints (run_scenario zeroed))
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
      let w0 = run_scenario ~chooser:(chooser_of seed) base in
      let w1 = run_scenario ~chooser:(chooser_of seed) zeroed in
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
      let w = run_scenario s in
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
      let w = run_scenario s in
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
  let w = run_scenario s in
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
  let w = run_scenario s in
  let eng = w.Check.Scenario.eng in
  Alcotest.(check int) "no flushes" 0 (Core.Engine.batch_flushes eng);
  Alcotest.(check int) "no batched payloads" 0 (Core.Engine.batch_payloads eng);
  Alcotest.(check int) "no coalesced wire messages" 0
    (Dsim.Network.batches_sent (Core.Engine.net eng))

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
    ]

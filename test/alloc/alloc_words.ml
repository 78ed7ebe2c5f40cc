(* Exact allocation figures for the [alloc.expected] golden (root
   [dune], run with [OCAMLRUNPARAM] cleared so the minor heap has its
   default size): minor words per [Fiber.sleep], per await wake-up, per
   [Fiber.spawn] of a fiber that returns at once, per [Rng.int] and per
   [Rng.float] draw ({!Alloc_probe}), then the minor and promoted words
   of a 1 s [synth-a] run read after a forced [Gc.minor ()], then the
   heap words of all the replica stores at the end of a short open-loop
   run with [open-1m]'s parameters ({!Store_probe}).  A change that
   moves any of them changes the golden, so allocation and the store
   layout change only on purpose. *)

(* [synth-a] as the benchmark sets it up (nine EC2 DCs, rf 6, 10
   clients per node, STR), with no warm-up and a 1 s window, seed 1. *)
let synth_a_words () =
  let placement = Store.Placement.ring ~n_nodes:9 ~replication_factor:6 () in
  let workload = Workload.Synthetic.make ~params:Workload.Synthetic.synth_a placement in
  let setup =
    {
      (Harness.Runner.default_setup ~workload ~config:(Core.Config.str ())) with
      warmup_us = 0;
      measure_us = 1_000_000;
    }
  in
  Gc.minor ();
  let w0 = Gc.minor_words () and p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let r = Harness.Runner.run setup in
  Gc.minor ();
  let w1 = Gc.minor_words () and p1 = (Gc.quick_stat ()).Gc.promoted_words in
  (r.Harness.Runner.committed, w1 -. w0, p1 -. p0)

let () =
  Printf.printf "minor words per Fiber.sleep: %.2f\n" (Alloc_probe.sleep_words ());
  Printf.printf "minor words per await wake-up: %.2f\n" (Alloc_probe.await_words ());
  Printf.printf "minor words per Fiber.spawn: %.2f\n" (Alloc_probe.spawn_words ());
  Printf.printf "minor words per Rng.int: %.2f\n" (Alloc_probe.rng_int_words ());
  Printf.printf "minor words per Rng.float: %.2f\n" (Alloc_probe.rng_float_words ());
  let committed, minor, promoted = synth_a_words () in
  Printf.printf "synth-a 1 s, seed 1: %d commits, %.0f minor words, %.0f promoted words\n"
    committed minor promoted;
  let eng = Store_probe.open_loop ~warmup_us:400_000 ~measure_us:1_600_000 ~seed:1 in
  Printf.printf "open-1m 0.4 s + 1.6 s, seed 1: %d replica store words\n"
    (Store_probe.store_words eng)

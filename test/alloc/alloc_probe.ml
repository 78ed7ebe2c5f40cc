(* Exact minor words per operation of the simulator's hot primitives,
   shared by [alloc_words] (the [alloc.expected] golden) and
   [test_dsim]'s bounds.

   On one domain, allocation is a fixed function of the binary and the
   inputs, so each figure is exact: the average over [n] operations of
   the minor words [Gc.minor_words] reports. *)

module Sim = Dsim.Sim
module Fiber = Dsim.Fiber
module Ivar = Dsim.Ivar
module Rng = Dsim.Rng

let n = 100_000

let per_op w0 w1 = (w1 -. w0) /. float_of_int n

(* One fiber sleeping [n] times; the words are read inside the fiber,
   so the spawn is not counted. *)
let sleep_words () =
  let sim = Sim.create () in
  let words = ref 0. in
  Fiber.spawn sim (fun () ->
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        Fiber.sleep sim 1
      done;
      words := per_op w0 (Gc.minor_words ()));
  ignore (Sim.run sim);
  !words

(* One wake-up: an ivar created and awaited by a fiber, filled from
   outside the simulation, and the fiber resumed.  After each fill the
   loop runs the simulator until the fiber parks on the next ivar. *)
let await_words () =
  let sim = Sim.create () in
  let cur = ref (Ivar.create ()) in
  Fiber.spawn sim (fun () ->
      for _ = 0 to n do
        let iv = Ivar.create () in
        cur := iv;
        Fiber.await iv
      done);
  ignore (Sim.run sim);
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Ivar.fill !cur ();
    ignore (Sim.run sim)
  done;
  let w1 = Gc.minor_words () in
  Ivar.fill !cur ();
  ignore (Sim.run sim);
  per_op w0 w1

let nop () = ()

(* [n] fibers that return at once, spawned and run to completion. *)
let spawn_words () =
  let sim = Sim.create () in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Fiber.spawn sim nop
  done;
  ignore (Sim.run sim);
  per_op w0 (Gc.minor_words ())

let rng_int_words () =
  let rng = Rng.create ~seed:1 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    acc := !acc + Rng.int rng 1000
  done;
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity !acc);
  per_op w0 w1

let rng_float_words () =
  let rng = Rng.create ~seed:1 in
  let below = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    if Rng.float rng < 0.5 then incr below
  done;
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity !below);
  per_op w0 w1

type _ Effect.t +=
  | Await : 'a Ivar.t -> 'a Effect.t
  | Wake_at : int -> unit Effect.t

let await iv = Effect.perform (Await iv)

(* The handler of every fiber of [sim]; it captures only [sim], so the
   simulator keeps one ({!Sim.fiber_handler}). *)
let handler sim =
  let open Effect.Deep in
  {
    retc = (fun () -> Sim.fiber_finished sim);
    exnc =
      (fun e ->
        Sim.fiber_finished sim;
        raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Await iv -> Some (fun (k : (a, unit) continuation) -> Ivar.park iv sim k)
        | Wake_at time -> Some (fun (k : (a, unit) continuation) -> Sim.wake_at sim ~time k)
        | _ -> None);
  }

let spawn sim f =
  let handler = Sim.fiber_handler sim handler in
  Sim.fiber_spawned sim;
  Sim.schedule sim ~delay:0 (fun () -> Effect.Deep.match_with f () handler)

let live = Sim.live_fibers

let sleep sim delay =
  if delay < 0 then invalid_arg "Fiber.sleep: negative delay";
  Effect.perform (Wake_at (Sim.now sim + delay))

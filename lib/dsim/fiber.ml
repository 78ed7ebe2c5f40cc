type _ Effect.t += Await : 'a Ivar.t -> 'a Effect.t

let await iv = Effect.perform (Await iv)

let spawn sim f =
  let open Effect.Deep in
  let handler =
    {
      retc = (fun () -> Sim.fiber_finished sim);
      exnc =
        (fun e ->
          Sim.fiber_finished sim;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Await iv ->
            Some
              (fun (k : (a, unit) continuation) ->
                (* Resume through the event queue rather than inline, so a
                   fill never re-enters the filler's stack. *)
                Ivar.on_full iv (fun v ->
                    Sim.schedule sim ~delay:0 (fun () -> continue k v)))
          | _ -> None);
    }
  in
  Sim.fiber_spawned sim;
  Sim.schedule sim ~delay:0 (fun () -> match_with f () handler)

let live = Sim.live_fibers

let sleep sim delay =
  let iv = Ivar.create () in
  Sim.schedule sim ~delay (fun () -> Ivar.fill iv ());
  await iv

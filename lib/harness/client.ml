(** Closed-loop emulated clients.

    Each client is attached to a node.  It draws the next transaction
    program from the workload, executes it against the engine, retries
    it on abort (with a fresh snapshot, as in the paper's load
    injector), records latency when the transaction commits inside the
    measurement window, then thinks for the workload's think time.  It
    holds a fiber only while its transaction runs; the open loop
    ({!Openloop}) runs its transactions through the same body.

    Two latencies are recorded, matching §6's metrics: {e final
    latency} — first activation to final commit, across retries — and,
    for Ext-Spec, {e speculative latency} — first activation to the
    speculative commit of the successful attempt. *)

type shared = {
  final_latency : Metrics.t;
  spec_latency : Metrics.t;
  mutable measure_from : int;
  mutable measure_to : int;
  mutable retries : int;
  per_label : (string, Metrics.t) Hashtbl.t;  (** final latency per tx type *)
}

let make_shared ~measure_from ~measure_to =
  {
    final_latency = Metrics.create ();
    spec_latency = Metrics.create ();
    measure_from;
    measure_to;
    retries = 0;
    per_label = Hashtbl.create 8;
  }

let in_window shared now = now >= shared.measure_from && now <= shared.measure_to

let label_metrics shared label =
  match Hashtbl.find_opt shared.per_label label with
  | Some m -> m
  | None ->
    let m = Metrics.create () in
    Hashtbl.add shared.per_label label m;
    m

(* Hashtbl.fold order depends on hashing internals; anything rendered
   from [per_label] must go through here so reports stay byte-stable. *)
let per_label_sorted shared =
  (* Hash order: sorted by label before exposure. *)
  (Hashtbl.fold (fun label m acc -> (label, m) :: acc) shared.per_label [] [@alert "-nondet"])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The transaction body of both load loops; runs in a fiber. *)
let execute eng shared ~node ~stop_at (program : Workload.Spec.program) ~t0 =
  let sim = Core.Engine.sim eng in
  let rec attempt () =
    if Dsim.Sim.now sim < stop_at && Core.Engine.is_alive eng node then begin
      let tx = Core.Engine.begin_tx eng ~origin:node in
      match
        program.body eng tx;
        Core.Engine.commit eng tx
      with
      | _ct ->
        let now = Dsim.Sim.now sim in
        if in_window shared now then begin
          Metrics.record shared.final_latency (now - t0);
          Metrics.record (label_metrics shared program.label) (now - t0);
          match Dsim.Ivar.peek tx.Core.Types.spec_commit with
          | Some t when t >= t0 -> Metrics.record shared.spec_latency (t - t0)
          | Some _ | None -> ()
        end
      | exception Core.Types.Tx_abort _ ->
        if in_window shared (Dsim.Sim.now sim) then shared.retries <- shared.retries + 1;
        attempt ()
    end
  in
  attempt ()

(* Each wait is a timer that spawns the fiber of the client's next
   step.  A timer plus a spawn are the two events a fiber's sleep cost
   (timer, wake-up), at the same instants and in the same order. *)
let spawn eng workload ~node ~rng ~shared ~stop_at ~start_delay =
  let sim = Core.Engine.sim eng in
  let rec session () =
    if Dsim.Sim.now sim < stop_at then
      if not (Core.Engine.is_alive eng node) then
        (* The client's DC is down.  Its users wait it out: poll until
           the region recovers, then resume issuing transactions — this
           is what makes post-recovery goodput visible in the
           region-failure experiments.  Fault-free runs never reach this
           branch, so their event sequence is unchanged. *)
        Dsim.Sim.schedule sim ~delay:100_000 resume
      else begin
        let program = workload.Workload.Spec.next_program rng ~node in
        execute eng shared ~node ~stop_at program ~t0:(Dsim.Sim.now sim);
        (* A zero think time goes straight on, in this fiber. *)
        if program.think_us > 0 then Dsim.Sim.schedule sim ~delay:program.think_us resume
        else session ()
      end
  and resume () = Dsim.Fiber.spawn sim session in
  (* A staggered start keeps the three events of a fiber that slept
     first: start, timer, wake-up. *)
  if start_delay > 0 then
    Dsim.Sim.schedule sim ~delay:0 (fun () -> Dsim.Sim.schedule sim ~delay:start_delay resume)
  else resume ()

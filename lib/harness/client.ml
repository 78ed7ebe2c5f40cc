(** Closed-loop emulated clients.

    Each client is a fiber attached to a node.  It draws the next
    transaction program from the workload, executes it against the
    engine, retries it on abort (with a fresh snapshot, as in the
    paper's load injector), records latency when the transaction
    commits inside the measurement window, then sleeps for the
    workload's think time.

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

(** Spawn one client fiber.  [start_delay] staggers client start-up so
    clients do not run in lockstep. *)
let spawn eng workload ~node ~rng ~shared ~stop_at ~start_delay =
  let sim = Core.Engine.sim eng in
  let rec session () =
    if Dsim.Sim.now sim < stop_at then
      if not (Core.Engine.is_alive eng node) then begin
        (* The client's DC is down.  Its users wait it out: poll until
           the region recovers, then resume issuing transactions — this
           is what makes post-recovery goodput visible in the
           region-failure experiments.  Fault-free runs never reach this
           branch, so their event sequence is unchanged. *)
        Dsim.Fiber.sleep sim 100_000;
        session ()
      end
      else begin
      let program = workload.Workload.Spec.next_program rng ~node in
      let first_start = Dsim.Sim.now sim in
      let rec attempt () =
        if Dsim.Sim.now sim >= stop_at || not (Core.Engine.is_alive eng node) then None
        else begin
          let tx = Core.Engine.begin_tx eng ~origin:node in
          match
            program.Workload.Spec.body eng tx;
            Core.Engine.commit eng tx
          with
          | _ct -> Some tx
          | exception Core.Types.Tx_abort _ ->
            if in_window shared (Dsim.Sim.now sim) then shared.retries <- shared.retries + 1;
            attempt ()
        end
      in
      (match attempt () with
       | None -> ()
       | Some tx ->
         let now = Dsim.Sim.now sim in
         if in_window shared now then begin
           let final = now - first_start in
           Metrics.record shared.final_latency final;
           Metrics.record (label_metrics shared program.Workload.Spec.label) final;
           match Dsim.Ivar.peek tx.Core.Types.spec_commit with
           | Some t when t >= first_start ->
             Metrics.record shared.spec_latency (t - first_start)
           | Some _ | None -> ()
         end);
      if program.Workload.Spec.think_us > 0 then
        Dsim.Fiber.sleep sim program.Workload.Spec.think_us;
      session ()
    end
  in
  Dsim.Fiber.spawn sim (fun () ->
      if start_delay > 0 then Dsim.Fiber.sleep sim start_delay;
      session ())

(** Feedback-driven self-tuning of speculation (§5.5).

    A centralized controller periodically gathers cluster throughput,
    runs an A/B exploration — one measurement window with speculative
    reads enabled, one with them disabled — and locks the system into
    the better configuration.  The scheme is black-box (it only looks at
    committed-transaction counts) and transparent to applications.

    The controller can optionally re-explore periodically, which is the
    natural extension the paper sketches (reacting to workload change). *)

type phase = Warmup | Explore_on | Explore_off | Exploit

(** What the controller optimizes.  [Throughput] is the paper's
    criterion; [Throughput_bounded_misspec m] is one of the multi-KPI
    extensions the paper proposes as future work: speculation is only
    kept if it also keeps the misspeculation share of attempts below
    [m]. *)
type criterion = Throughput | Throughput_bounded_misspec of float

type t = {
  criterion : criterion;
  mutable phase : phase;
  mutable thr_on : float;
  mutable thr_off : float;
  mutable misspec_on : float;
  mutable decision : bool option;  (** Some true = speculation enabled *)
  mutable rounds : int;  (** completed explore rounds *)
  mutable stopped : bool;
}

let decision t = t.decision

let rounds t = t.rounds

let explored_misspec t = t.misspec_on

let stop t = t.stopped <- true

(** [install eng ~window_us ?warmup_us ?reexplore_every ()] spawns the
    controller fiber.  Exploration starts after [warmup_us]; each
    measurement lasts [window_us] (the paper samples every 10 s).  When
    [reexplore_every > 0] the controller re-runs the A/B comparison
    after that many exploit windows. *)
let install eng ~window_us ?(warmup_us = 0) ?(reexplore_every = 0)
    ?(criterion = Throughput) () =
  let t =
    {
      criterion;
      phase = Warmup;
      thr_on = 0.;
      thr_off = 0.;
      misspec_on = 0.;
      decision = None;
      rounds = 0;
      stopped = false;
    }
  in
  let sim = Engine.sim eng in
  let config = Engine.config eng in
  let measure_window () =
    let before = Engine.total_stats eng in
    Dsim.Fiber.sleep sim window_us;
    let after = Engine.total_stats eng in
    let commits = after.Stats.commits - before.Stats.commits in
    let misspec = Stats.misspeculations after - Stats.misspeculations before in
    let attempts = commits + (Stats.aborts after - Stats.aborts before) in
    let misspec_share =
      if attempts = 0 then 0. else float_of_int misspec /. float_of_int attempts
    in
    (float_of_int commits /. Dsim.Sim.to_sec window_us, misspec_share)
  in
  let decide () =
    match t.criterion with
    | Throughput -> t.thr_on >= t.thr_off
    | Throughput_bounded_misspec bound ->
      t.thr_on >= t.thr_off && t.misspec_on <= bound
  in
  let rec controller () =
    if not t.stopped then begin
      (match t.phase with
       | Warmup ->
         if warmup_us > 0 then Dsim.Fiber.sleep sim warmup_us;
         t.phase <- Explore_on
       | Explore_on ->
         config.Config.speculative_reads <- true;
         let thr, misspec = measure_window () in
         t.thr_on <- thr;
         t.misspec_on <- misspec;
         t.phase <- Explore_off
       | Explore_off ->
         config.Config.speculative_reads <- false;
         let thr, _ = measure_window () in
         t.thr_off <- thr;
         let enable = decide () in
         t.decision <- Some enable;
         t.rounds <- t.rounds + 1;
         config.Config.speculative_reads <- enable;
         t.phase <- Exploit
       | Exploit ->
         if reexplore_every > 0 then begin
           Dsim.Fiber.sleep sim (reexplore_every * window_us);
           t.phase <- Explore_on
         end
         else Dsim.Fiber.sleep sim window_us);
      controller ()
    end
  in
  Dsim.Fiber.spawn sim controller;
  t

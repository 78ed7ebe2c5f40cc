(** Stateless bounded model checker: depth-first enumeration of event
    schedules of a {!Scenario} world by whole-run replay, with
    state-hash dedup and sleep-set partial-order reduction.  A clean
    [exhausted] report that the depth bound did not cut covers every
    reachable terminal state of the bounded scenario (modulo
    fingerprint collisions, which only prune); a violation comes with
    the exact schedule that produced it. *)

type step = { cands : Dsim.Sim.candidate array; chosen : int }

type report = {
  runs : int;  (** schedules executed to quiescence *)
  pruned : int;  (** runs cut short by the visited table *)
  sleep_blocked : int;  (** runs cut short with every candidate asleep *)
  states : int;  (** distinct choice-point fingerprints *)
  max_depth_seen : int;  (** deepest choice point reached *)
  depth_cut : bool;
      (** some run reached [max_depth] at a choice point and followed
          the default schedule from there: the tree was cut *)
  exhausted : bool;  (** the whole bounded tree was covered *)
  violation : (step list * Spsi.Checker.violation list) option;
      (** first violating schedule, with the oracle's verdicts *)
}

(** Total distinct schedules explored (completed + pruned — every
    execution follows a distinct choice sequence). *)
val interleavings : report -> int

(** [explore ~oracle s] searches the schedule tree of [s], calling
    [oracle] on every quiescent terminal world; stops at the first
    violation, at [max_runs] executions, or when the tree is exhausted.
    [max_depth] bounds branching choice points per run (a runaway guard;
    beyond it the default schedule is followed, and the report says
    [depth_cut]). *)
val explore :
  ?max_runs:int ->
  ?max_depth:int ->
  oracle:(Scenario.world -> Spsi.Checker.violation list) ->
  Scenario.t ->
  report

val pp_report : Format.formatter -> report -> unit

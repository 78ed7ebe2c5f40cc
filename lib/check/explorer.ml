(** Stateless bounded model checking of {!Scenario} worlds by replay.

    The state space is the tree of {e schedules}: at every instant where
    at least two event lanes are non-empty, the controlled simulator
    ({!Dsim.Sim.set_chooser}) asks which lane's head event fires.  A
    depth-first search enumerates these choice trees by re-executing the
    whole (cheap, deterministic) world for every schedule: a run follows
    the recorded prefix of choices and extends it at the first fresh
    choice point; backtracking bumps the deepest frame that still has an
    untried branch.  Determinism of everything but the chooser makes
    replay exact — the same prefix always reaches the same state and the
    same candidate array.

    Two reductions keep the tree manageable:

    - {b state-hash dedup}: at every fresh choice point the engine +
      history + pending-event fingerprint is looked up in a visited
      table; a hit prunes the run (some earlier schedule already
      continued from this exact state).  Replayed prefixes skip the
      check — their states were recorded when first reached.
    - {b sleep sets}: after a branch [e] is fully explored, sibling
      branches need not re-fire [e] first when [e] commutes with their
      own event.  Deliveries to different destination nodes commute
      (they touch disjoint node state, and cross-node effects travel as
      messages — which stay FIFO per channel); [Internal] events are
      conservatively dependent on everything.  An all-asleep choice
      point is redundant by construction and pruned.

    Both reductions preserve the reachability of every distinct terminal
    state (modulo fingerprint collisions, which can only prune — never
    invent — behaviours), so a clean exhaustive search is a proof over
    the bounded scenario, while any violation comes with the exact
    schedule that produced it. *)

module Sim = Dsim.Sim

type step = { cands : Sim.candidate array; chosen : int }

type report = {
  runs : int;  (** schedules executed to quiescence *)
  pruned : int;  (** runs cut short by the visited table *)
  sleep_blocked : int;  (** runs cut short with every candidate asleep *)
  states : int;  (** distinct choice-point fingerprints *)
  max_depth_seen : int;  (** deepest choice point reached *)
  depth_cut : bool;
      (** some run reached [max_depth] at a choice point and followed
          the default schedule from there *)
  exhausted : bool;  (** the whole bounded tree was covered *)
  violation : (step list * Spsi.Checker.violation list) option;
      (** first violating schedule found, with the oracle's verdicts *)
}

(** Total distinct schedules explored (every execution follows a
    distinct choice sequence, including the pruned ones). *)
let interleavings r = r.runs + r.pruned + r.sleep_blocked

let cand_equal (a : Sim.candidate) (b : Sim.candidate) =
  Sim.compare_tag a.tag b.tag = 0 && a.seq = b.seq

(** Deliveries to different nodes commute; everything else is
    conservatively dependent. *)
let independent (a : Sim.candidate) (b : Sim.candidate) =
  match a.tag, b.tag with
  | Sim.Chan x, Sim.Chan y -> x.dst <> y.dst
  | _ -> false

type frame = {
  f_cands : Sim.candidate array;
  mutable f_chosen : int;
  mutable f_explored : Sim.candidate list;  (** branches already searched *)
  f_sleep : Sim.candidate list;  (** inherited sleep set at this node *)
}

(** Sleep set a child inherits when the parent fires its chosen event:
    previously-slept and already-explored events that commute with it. *)
let child_sleep (f : frame) =
  let e = f.f_cands.(f.f_chosen) in
  List.filter (fun s -> independent s e) (f.f_sleep @ f.f_explored)

let state_fingerprint (w : Scenario.world) ~sleep =
  let mix h x = (h lxor x) * 0x100000001b3 in
  let h = Core.Engine.fingerprint w.eng in
  let h = mix h (Spsi.History.fingerprint w.history) in
  let h = mix h (Sim.pending_fingerprint w.sim) in
  (* commutative combine: the sleep set is an unordered collection *)
  List.fold_left
    (fun h (c : Sim.candidate) -> h + Hashtbl.hash (c.tag, c.seq))
    h sleep

exception Prune_run of [ `Seen | `Sleep_blocked ]

let explore ?(max_runs = 200_000) ?(max_depth = 4_000) ~oracle (s : Scenario.t) =
  let visited : (int, unit) Hashtbl.t = Hashtbl.create 65_536 in
  let stack : frame list ref = ref [] in  (* deepest frame first *)
  let runs = ref 0 and pruned = ref 0 and sleep_blocked = ref 0 in
  let max_depth_seen = ref 0 and depth_cut = ref false in
  let violation = ref None in
  let stopped_early = ref false in

  (* Execute one schedule: replay the stack's choices, then extend with
     the first awake candidate at every fresh choice point. *)
  let run_once () =
    let prefix = Array.of_list (List.rev_map (fun f -> f.f_chosen) !stack) in
    let n_prefix = Array.length prefix in
    let trace = ref [] in
    let depth = ref 0 in
    let wref = ref None in
    let chooser cands =
      let d = !depth in
      incr depth;
      if d > !max_depth_seen then max_depth_seen := d;
      if d < n_prefix then begin
        trace := { cands; chosen = prefix.(d) } :: !trace;
        prefix.(d)
      end
      else if d >= max_depth then begin
        (* runaway guard: past the depth bound, stop branching and
           follow the default schedule to quiescence (every choice
           point has several candidates, so this cuts the tree) *)
        depth_cut := true;
        trace := { cands; chosen = 0 } :: !trace;
        0
      end
      else begin
        let w = match !wref with Some w -> w | None -> assert false in
        let sleep0 = match !stack with [] -> [] | parent :: _ -> child_sleep parent in
        let fp = state_fingerprint w ~sleep:sleep0 in
        if Hashtbl.mem visited fp then raise (Prune_run `Seen);
        Hashtbl.replace visited fp ();
        let rec first_awake i =
          if i >= Array.length cands then None
          else if List.exists (cand_equal cands.(i)) sleep0 then first_awake (i + 1)
          else Some i
        in
        match first_awake 0 with
        | None -> raise (Prune_run `Sleep_blocked)
        | Some i ->
          stack :=
            { f_cands = cands; f_chosen = i; f_explored = []; f_sleep = sleep0 }
            :: !stack;
          trace := { cands; chosen = i } :: !trace;
          i
      end
    in
    let w = Scenario.prepare ~chooser s in
    wref := Some w;
    match Scenario.start w with
    | () -> `Done (w, List.rev !trace)
    | exception Prune_run reason -> `Pruned reason
  in

  (* Advance the deepest frame with an untried awake branch; pop
     exhausted frames.  Returns false when the whole tree is done. *)
  let rec backtrack () =
    match !stack with
    | [] -> false
    | f :: rest -> (
      f.f_explored <- f.f_cands.(f.f_chosen) :: f.f_explored;
      let rec next i =
        if i >= Array.length f.f_cands then None
        else if List.exists (cand_equal f.f_cands.(i)) f.f_sleep then next (i + 1)
        else Some i
      in
      match next (f.f_chosen + 1) with
      | Some j ->
        f.f_chosen <- j;
        true
      | None ->
        stack := rest;
        backtrack ())
  in

  let continue = ref true in
  while !continue do
    if !runs + !pruned + !sleep_blocked >= max_runs then begin
      stopped_early := true;
      continue := false
    end
    else begin
      (match run_once () with
      | `Done (w, trace) -> (
        incr runs;
        match oracle w with
        | [] -> ()
        | vs -> if !violation = None then violation := Some (trace, vs))
      | `Pruned `Seen -> incr pruned
      | `Pruned `Sleep_blocked -> incr sleep_blocked);
      if !violation <> None then continue := false
      else if not (backtrack ()) then continue := false
    end
  done;
  {
    runs = !runs;
    pruned = !pruned;
    sleep_blocked = !sleep_blocked;
    states = Hashtbl.length visited;
    max_depth_seen = !max_depth_seen;
    depth_cut = !depth_cut;
    exhausted = (not !stopped_early) && !violation = None;
    violation = !violation;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_step ppf (i, { cands; chosen }) =
  let c = cands.(chosen) in
  Format.fprintf ppf "%4d: fire %a (t=%dus)" i Sim.pp_tag c.tag c.time;
  if Array.length cands > 1 then begin
    Format.fprintf ppf "  [of";
    Array.iter (fun (o : Sim.candidate) -> Format.fprintf ppf " %a" Sim.pp_tag o.tag) cands;
    Format.fprintf ppf "]"
  end

let pp_schedule ppf steps =
  List.iteri (fun i s -> Format.fprintf ppf "%a@." pp_step (i, s)) steps

let pp_report ppf r =
  Format.fprintf ppf
    "interleavings explored: %d (completed %d, state-pruned %d, sleep-pruned %d)@."
    (interleavings r) r.runs r.pruned r.sleep_blocked;
  Format.fprintf ppf "distinct states: %d; deepest choice point: %d; %s@."
    r.states r.max_depth_seen
    (if r.violation <> None then "stopped at first violation"
     else if not r.exhausted then "stopped at run limit"
     else if r.depth_cut then "the depth bound cut the tree"
     else "bounded tree exhausted");
  match r.violation with
  | None -> Format.fprintf ppf "no violations@."
  | Some (steps, vs) ->
    Format.fprintf ppf "VIOLATIONS:@.";
    List.iter (fun v -> Format.fprintf ppf "  %a@." Spsi.Checker.pp_violation v) vs;
    Format.fprintf ppf "violating schedule (%d choice points):@."
      (List.length (List.filter (fun s -> Array.length s.cands > 1) steps));
    pp_schedule ppf (List.filter (fun s -> Array.length s.cands > 1) steps)

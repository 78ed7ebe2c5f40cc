(** Safety and liveness oracles evaluated at quiescent (terminal)
    states of a model-checking run.

    On top of the full SPSI suite ({!Spsi.Checker}), three properties
    only a model checker can judge — they quantify over the {e end} of
    the execution, which a sampled simulation run never reliably
    reaches:

    - {b MC-deadlock} — at quiescence every transaction has an outcome.
      The event queue is empty, so an Unfinished transaction is blocked
      forever: a lost wakeup or a pre-commit lock cycle.
    - {b MC-lost-lc} — a transaction that local-committed cannot be left
      undecided: local commit hands the transaction to global
      certification, which must terminate (commit or abort).
    - {b MC-monotonic-rs} — per node, snapshot timestamps are
      non-decreasing in begin order (reads from a node-local monotone
      clock).

    Plus the engine's own store invariants (version-chain well-
    formedness), reported as {b MC-store}. *)

open Store
module H = Spsi.History

let v rule detail = { Spsi.Checker.rule; detail }

let check_deadlock (h : H.t) =
  List.filter_map
    (fun (tx : H.tx) ->
      match tx.outcome with
      | H.Unfinished ->
        Some
          (v "MC-deadlock"
             (Printf.sprintf "%s still undecided at quiescence (began rs=%d)"
                (Txid.to_string tx.id) tx.rs))
      | H.Committed _ | H.Aborted _ -> None)
    (H.transactions h)

let check_lost_local_commit (h : H.t) =
  List.filter_map
    (fun (tx : H.tx) ->
      match tx.outcome, tx.lc with
      | H.Unfinished, Some lc ->
        Some
          (v "MC-lost-lc"
             (Printf.sprintf "%s local-committed (lc=%d) but never resolved"
                (Txid.to_string tx.id) lc))
      | _ -> None)
    (H.transactions h)

let check_monotonic_rs (h : H.t) =
  (* transactions h is in begin order; track the last rs per origin *)
  let last = Hashtbl.create 8 in
  List.filter_map
    (fun (tx : H.tx) ->
      let prev = Option.value (Hashtbl.find_opt last tx.origin) ~default:min_int in
      Hashtbl.replace last tx.origin tx.rs;
      if tx.rs < prev then
        Some
          (v "MC-monotonic-rs"
             (Printf.sprintf "%s began with rs=%d after a node-%d sibling with rs=%d"
                (Txid.to_string tx.id) tx.rs tx.origin prev))
      else None)
    (H.transactions h)

let check_store eng =
  match Core.Engine.check_invariants eng with
  | Ok () -> []
  | Error e -> [ v "MC-store" e ]

(** {2 Recovery oracles}

    The crash-schedule properties: they compare the {e stores} at
    quiescence against the history's outcomes, which is exactly where a
    broken atomic-commitment path diverges — a recovering replica that
    presumed-aborts a logged commit loses a committed write
    ([REC-durable]); one that invents a commit materializes a version
    nobody decided ([REC-atomic]); and a resolution path that never runs
    leaves prepares in doubt forever ([REC-in-doubt]).  On fault-free
    runs all three are implied by the store invariants and cost one
    sweep, so they are always evaluated. *)

(** Every write of every committed transaction must exist as a committed
    version at {e every alive} replica of its partition (AC1/AC4:
    uniform decision, durable once decided).  Crashed nodes are exempt —
    their obligation revives at recovery, and a schedule that ends with
    the node down simply doesn't owe the write yet. *)
let check_recovery_durable (w : Scenario.world) =
  let eng = w.eng in
  let placement = Core.Engine.placement eng in
  List.concat_map
    (fun (tx : H.tx) ->
      match tx.outcome with
      | H.Committed ct ->
        H.KeySet.fold
          (fun key acc ->
            let p = Keyspace.Key.partition key in
            Array.fold_left
              (fun acc n ->
                if not (Core.Engine.is_alive eng n) then acc
                else
                  let srv = Core.Engine.server eng ~node:n ~partition:p in
                  match
                    Mvstore.find_version (Core.Partition_server.store srv) key tx.id
                  with
                  | Some ver when Version.is_committed ver -> acc
                  | Some _ ->
                    v "REC-durable"
                      (Printf.sprintf
                         "%s committed (ct=%d) but %s is still uncommitted at node %d"
                         (Txid.to_string tx.id) ct (Keyspace.Key.name key) n)
                    :: acc
                  | None ->
                    v "REC-durable"
                      (Printf.sprintf
                         "%s committed (ct=%d) but its write to %s is gone at node %d"
                         (Txid.to_string tx.id) ct (Keyspace.Key.name key) n)
                    :: acc)
              acc
              (Placement.replicas placement p))
          tx.writes []
      | H.Aborted _ | H.Unfinished -> [])
    (H.transactions w.history)

(** No alive replica may hold a {e committed} version written by a
    transaction the history did not commit (AC1: no two different
    decisions — a replica that commits what the coordinator aborted, or
    what nobody decided, resolved the transaction a second way). *)
let check_recovery_atomic (w : Scenario.world) =
  let eng = w.eng in
  let placement = Core.Engine.placement eng in
  let out = ref [] in
  for n = Core.Engine.n_nodes eng - 1 downto 0 do
    if Core.Engine.is_alive eng n then
      Array.iter
        (fun p ->
          let srv = Core.Engine.server eng ~node:n ~partition:p in
          List.iter
            (fun (key, ver) ->
              let writer = Version.writer ver in
              if not (H.is_initial_writer writer) then
                match H.find w.history writer with
                | Some { H.outcome = H.Committed _; _ } -> ()
                | Some { H.outcome = H.Aborted _; _ } ->
                  out :=
                    v "REC-atomic"
                      (Printf.sprintf
                         "node %d holds a committed version of %s by %s, which aborted"
                         n (Keyspace.Key.name key) (Txid.to_string writer))
                    :: !out
                | Some { H.outcome = H.Unfinished; _ } | None ->
                  out :=
                    v "REC-atomic"
                      (Printf.sprintf
                         "node %d holds a committed version of %s by %s, which nobody decided"
                         n (Keyspace.Key.name key) (Txid.to_string writer))
                    :: !out)
            (Mvstore.committed_versions (Core.Partition_server.store srv)))
        (Placement.hosted placement n)
  done;
  !out

(** When every node is alive at quiescence, no replica may still hold a
    transaction in doubt (AC3 termination: with all participants up and
    the network drained, the recovery protocol must have resolved every
    prepare). *)
let check_recovery_in_doubt (w : Scenario.world) =
  let eng = w.eng in
  let all_alive = ref true in
  for n = 0 to Core.Engine.n_nodes eng - 1 do
    if not (Core.Engine.is_alive eng n) then all_alive := false
  done;
  if not !all_alive then []
  else begin
    let placement = Core.Engine.placement eng in
    let out = ref [] in
    for n = Core.Engine.n_nodes eng - 1 downto 0 do
      Array.iter
        (fun p ->
          let srv = Core.Engine.server eng ~node:n ~partition:p in
          List.iter
            (fun txid ->
              out :=
                v "REC-in-doubt"
                  (Printf.sprintf
                     "%s still in doubt at node %d partition %d with all nodes alive"
                     (Txid.to_string txid) n p)
                :: !out)
            (List.sort Txid.compare (Core.Partition_server.pending_txids srv)))
        (Placement.hosted placement n)
    done;
    !out
  end

(** The full oracle suite at a terminal state.  Deterministic: the SPSI
    checker canonicalizes its output, and the MC rules follow begin
    order. *)
let check (w : Scenario.world) =
  Spsi.Checker.check_spsi w.history
  @ check_deadlock w.history
  @ check_lost_local_commit w.history
  @ check_monotonic_rs w.history
  @ check_store w.eng
  @ check_recovery_durable w
  @ check_recovery_atomic w
  @ check_recovery_in_doubt w

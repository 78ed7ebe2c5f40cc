(** Machine checker for the SPSI consistency model (§4 of the paper).

    Given a recorded {!History.t}, validates:

    - {b SPSI-1 (speculative snapshot read)} — committed transactions
      observed, for every key, the most recent final committed version
      as of their read snapshot; speculative reads only observed
      local-committed versions of same-node transactions with LC <= RS;
      and snapshots are atomic (a transaction included in a snapshot is
      observed for {e all} the keys it wrote that the reader accessed).
    - {b SPSI-2 (no w-w conflicts among final committed transactions)} —
      the SI first-committer-wins rule, using the commit/snapshot
      timestamps as the serialization order.
    - {b SPSI-3 (no w-w conflicts inside one speculative snapshot)} —
      over the transitive read-from closure, catching the Fig. 1(b) and
      Fig. 2 anomalies.
    - {b SPSI-4 (no dependencies from uncommitted transactions)} —
      committed transactions never data-depend on an aborted or
      still-pending transaction.

    Checking plain SI for a non-speculative protocol run is the special
    case where no read is speculative ({!check_si} additionally asserts
    that). *)

open Store
module H = History

type violation = { rule : string; detail : string }

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.rule v.detail

let violation rule fmt = Format.kasprintf (fun detail -> { rule; detail }) fmt

let is_committed (tx : H.tx) =
  match tx.outcome with H.Committed _ -> true | H.Aborted _ | H.Unfinished -> false

let ct_of (tx : H.tx) =
  match tx.outcome with H.Committed ct -> Some ct | H.Aborted _ | H.Unfinished -> None


(* ------------------------------------------------------------------ *)
(* SPSI-2: first-committer-wins among final committed transactions      *)
(* ------------------------------------------------------------------ *)

let check_ww_committed h =
  let violations = ref [] in
  (* Group committed writers per key, then check every pair is ordered
     (earlier.ct <= later.rs). *)
  let per_key = Hashtbl.create 256 in
  List.iter
    (fun (tx : H.tx) ->
      match ct_of tx with
      | None -> ()
      | Some ct ->
        H.KeySet.iter
          (fun key ->
            let ks = Keyspace.Key.to_string key in
            let existing = try Hashtbl.find per_key ks with Not_found -> [] in
            Hashtbl.replace per_key ks ((tx, ct) :: existing))
          tx.writes)
    (H.transactions h);
  (* Iterate keys in sorted order: report content would be the same in
     any order once sorted at the entry points, but keeping every
     intermediate list deterministic makes the checker byte-stable under
     replay, which the model checker relies on. *)
  let keys =
    (* Hash order: keys are sorted before use. *)
    (Hashtbl.fold (fun ks _ acc -> ks :: acc) per_key [] [@alert "-nondet"])
    |> List.sort String.compare
  in
  List.iter
    (fun ks ->
      let group = Hashtbl.find per_key ks in
      let sorted = List.sort (fun (_, a) (_, b) -> Int.compare a b) group in
      let rec pairs = function
        | [] -> ()
        | ((t1 : H.tx), ct1) :: rest ->
          List.iter
            (fun ((t2 : H.tx), _ct2) ->
              if ct1 > t2.rs then
                violations :=
                  violation "SPSI-2"
                    "committed write-write conflict on %s: %s (ct=%d) vs %s (rs=%d)" ks
                    (Txid.to_string t1.id) ct1 (Txid.to_string t2.id) t2.rs
                  :: !violations)
            rest;
          pairs rest
      in
      pairs sorted)
    keys;
  !violations

(* ------------------------------------------------------------------ *)
(* SPSI-1(i): snapshot reads of committed transactions                  *)
(* ------------------------------------------------------------------ *)

let check_snapshot_reads h =
  let violations = ref [] in
  List.iter
    (fun (tx : H.tx) ->
      if is_committed tx then
        List.iter
          (fun (r : H.read) ->
            let committed_writers = H.committed_writers h r.key in
            let observed_ct =
              match r.writer with
              | None -> Some (-1) (* absent: anything committed <= rs is missed *)
              | Some w when H.is_initial_writer w -> Some r.version_ts
              | Some w ->
                (match H.find h w with
                 | None -> None
                 | Some wtx ->
                   (match ct_of wtx with
                    | Some ct ->
                      if ct > tx.rs then
                        violations :=
                          violation "SPSI-1"
                            "%s (rs=%d) observed %s which committed at %d > rs"
                            (Txid.to_string tx.id) tx.rs (Txid.to_string w) ct
                          :: !violations;
                      Some ct
                    | None ->
                      violations :=
                        violation "SPSI-4"
                          "committed %s read from %s which never committed"
                          (Txid.to_string tx.id) (Txid.to_string w)
                        :: !violations;
                      None))
            in
            (match observed_ct with
             | None -> ()
             | Some obs_ct ->
               List.iter
                 (fun ((w', ct') : H.tx * int) ->
                   (* A version is only "missed" if its commit had been
                      applied (in real time) before the read started:
                      Precise Clocks backdate final timestamps, so a
                      commit with ct' <= rs may not have existed yet when
                      the read ran — the paper's §4 equivalence argument
                      (an SI history omitting a remote transaction
                      concurrent with T) covers exactly that case. *)
                   if
                     (not (Txid.equal w'.id tx.id))
                     && ct' > obs_ct
                     && ct' <= tx.rs
                     && w'.end_time >= 0
                     && w'.end_time <= r.start_time
                   then
                     violations :=
                       violation "SPSI-1"
                         "%s (rs=%d) missed version of %s committed by %s at %d \
                          (observed one at %d)"
                         (Txid.to_string tx.id) tx.rs
                         (Keyspace.Key.to_string r.key)
                         (Txid.to_string w'.id) ct' obs_ct
                       :: !violations)
                 committed_writers))
          tx.reads)
    (H.transactions h);
  !violations

(* ------------------------------------------------------------------ *)
(* SPSI-1(ii): legality of speculative reads (all transactions)         *)
(* ------------------------------------------------------------------ *)

let check_speculative_reads h =
  let violations = ref [] in
  List.iter
    (fun (tx : H.tx) ->
      List.iter
        (fun (r : H.read) ->
          if r.speculative then
            match r.writer with
            | None ->
              violations :=
                violation "SPSI-1" "speculative read with no writer in %s"
                  (Txid.to_string tx.id)
                :: !violations
            | Some w ->
              if Txid.origin w <> tx.origin then
                violations :=
                  violation "SPSI-1"
                    "%s speculatively read from remote transaction %s"
                    (Txid.to_string tx.id) (Txid.to_string w)
                  :: !violations;
              (match H.find h w with
               | None -> ()
               | Some wtx ->
                 (match wtx.lc with
                  | None ->
                    violations :=
                      violation "SPSI-1"
                        "%s speculatively read from %s before its local commit"
                        (Txid.to_string tx.id) (Txid.to_string w)
                      :: !violations
                  | Some lc ->
                    if lc > tx.rs then
                      violations :=
                        violation "SPSI-1"
                          "%s (rs=%d) speculatively read from %s with LC=%d > rs"
                          (Txid.to_string tx.id) tx.rs (Txid.to_string w) lc
                        :: !violations;
                    if wtx.lc_time > r.time then
                      violations :=
                        violation "SPSI-1"
                          "%s observed %s's version at t=%d before it local \
                           committed at t=%d"
                          (Txid.to_string tx.id) (Txid.to_string w) r.time wtx.lc_time
                        :: !violations)))
        tx.reads)
    (H.transactions h);
  !violations

(* ------------------------------------------------------------------ *)
(* Snapshot atomicity + SPSI-3 over the read-from closure               *)
(* ------------------------------------------------------------------ *)

(** Direct read-from set (real transactions only). *)
let read_from (tx : H.tx) =
  List.fold_left
    (fun acc (r : H.read) ->
      match r.writer with
      | Some w when not (H.is_initial_writer w) -> Txid.Set.add w acc
      | Some _ | None -> acc)
    Txid.Set.empty tx.reads

(** Transitive closure of read-from (memoized over the DAG). *)
let snapshot_closure h =
  let memo = Txid.Tbl.create 256 in
  let rec closure id =
    match Txid.Tbl.find_opt memo id with
    | Some s -> s
    | None ->
      (* Pre-insert to break (impossible, but defensive) cycles. *)
      Txid.Tbl.replace memo id Txid.Set.empty;
      let s =
        match H.find h id with
        | None -> Txid.Set.empty
        | Some tx ->
          let direct = read_from tx in
          Txid.Set.fold
            (fun w acc -> Txid.Set.union acc (closure w))
            direct direct
      in
      Txid.Tbl.replace memo id s;
      s
  in
  closure

(** A transaction's version-chain position {e as of} simulated time
    [time]: its local-commit timestamp while it is (still) merely
    local-committed, its final commit timestamp once the commit has been
    applied.  Using the position at observation time keeps the checker
    from judging a read against a final timestamp that did not exist
    yet (Precise Clocks assign final timestamps retroactively; the
    protocol then reconciles stale dependents by aborting them). *)
let position_at (wtx : H.tx) ~time =
  match wtx.outcome with
  | H.Committed ct when wtx.end_time >= 0 && wtx.end_time <= time -> Some ct
  | H.Committed _ | H.Aborted _ | H.Unfinished -> wtx.lc

let check_snapshot_atomicity h =
  let violations = ref [] in
  List.iter
    (fun (tx : H.tx) ->
      let direct = read_from tx in
      Txid.Set.iter
        (fun wid ->
          match H.find h wid with
          | None -> ()
          | Some wtx ->
            List.iter
              (fun (r : H.read) ->
                (* Reads performed before [wtx] local committed (in real
                   time) are exempt: Precise Clocks may backdate an LC
                   below the reader's snapshot after the fact, and the
                   protocol then resolves the reader by aborting it when
                   the dependency's final timestamp lands. *)
                if
                  H.KeySet.mem r.key wtx.writes
                  && r.writer <> Some wid
                  && (wtx.lc_time < 0 || r.start_time >= wtx.lc_time)
                then begin
                  let w_eff =
                    match position_at wtx ~time:r.time with Some e -> e | None -> max_int
                  in
                  let r_eff =
                    match r.writer with
                    | None -> -1
                    | Some w' when H.is_initial_writer w' -> r.version_ts
                    | Some w' ->
                      (match H.find h w' with
                       | None -> -1
                       | Some w'tx ->
                         (match position_at w'tx ~time:r.time with
                          | Some e -> e
                          | None -> -1))
                  in
                  if r_eff < w_eff then
                    violations :=
                      violation "SPSI-1"
                        "non-atomic snapshot in %s: observed %s for some key but \
                         an older version (eff=%d < %d) of %s"
                        (Txid.to_string tx.id) (Txid.to_string wid) r_eff w_eff
                        (Keyspace.Key.to_string r.key)
                      :: !violations
                end)
              tx.reads)
        direct)
    (H.transactions h);
  !violations

let check_snapshot_conflicts h =
  let violations = ref [] in
  let closure = snapshot_closure h in
  List.iter
    (fun (tx : H.tx) ->
      let included = Txid.Set.elements (closure tx.id) in
      let rec pairs = function
        | [] -> ()
        | w1 :: rest ->
          List.iter
            (fun w2 ->
              match H.find h w1, H.find h w2 with
              | Some t1, Some t2 ->
                if not (H.KeySet.is_empty (H.KeySet.inter t1.writes t2.writes))
                then begin
                  (* [a] precedes [b] (they are not concurrent) when
                     [b]'s snapshot legally includes [a]: a final commit
                     with ct <= b.rs, or — within one node's speculative
                     stack — a local commit with lc <= b.rs.  The latter
                     is the speculative serialization order; if [a]'s
                     eventual final commit timestamp invalidates it, the
                     protocol aborts [b] (Snapshot_too_old), which does
                     not make the observed snapshot a violation. *)
                  let ordered (a : H.tx) (b : H.tx) =
                    (match a.outcome with H.Committed ct -> ct <= b.rs | _ -> false)
                    || a.origin = b.origin
                       && (match a.lc with Some lc -> lc <= b.rs | None -> false)
                  in
                  if not (ordered t1 t2 || ordered t2 t1) then
                    violations :=
                      violation "SPSI-3"
                        "snapshot of %s includes conflicting %s and %s"
                        (Txid.to_string tx.id) (Txid.to_string w1) (Txid.to_string w2)
                      :: !violations
                end
              | _ -> ())
            rest;
          pairs rest
      in
      pairs included)
    (H.transactions h);
  !violations

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

(** Canonical report order: by (rule, detail).  The individual checks
    accumulate violations in traversal order, which is an implementation
    detail; sorting here makes [check_spsi]/[check_si] deterministic
    functions of the history, so reports are byte-stable across runs and
    usable as replay oracles. *)
let canonicalize violations =
  List.sort_uniq
    (fun a b ->
      match String.compare a.rule b.rule with
      | 0 -> String.compare a.detail b.detail
      | c -> c)
    violations

(** All SPSI checks. *)
let check_spsi h =
  canonicalize
    (check_ww_committed h
    @ check_snapshot_reads h
    @ check_speculative_reads h
    @ check_snapshot_atomicity h
    @ check_snapshot_conflicts h)

(** SI checks for a non-speculative protocol run: the SPSI checks plus
    the assertion that no speculative read ever happened. *)
let check_si h =
  let spec =
    List.concat_map
      (fun (tx : H.tx) ->
        List.filter_map
          (fun (r : H.read) ->
            if r.speculative then
              Some
                (violation "SI"
                   "speculative read in a non-speculative run (%s reading %s)"
                   (Txid.to_string tx.id)
                   (Keyspace.Key.to_string r.key))
            else None)
          tx.reads)
      (H.transactions h)
  in
  canonicalize (spec @ check_spsi h)

let report violations =
  String.concat "\n"
    (List.map (fun v -> Format.asprintf "%a" pp_violation v) violations)

(** Machine checker for the SPSI consistency model (§4 of the paper).

    Validates a recorded {!History.t} against:

    - {b SPSI-1} — committed transactions observed, for every key, the
      most recent final committed version as of their snapshot;
      speculative reads only observed local-committed versions of
      same-node transactions with LC <= RS; snapshots are atomic (a
      transaction in a snapshot is observed for all the keys it wrote
      that the reader accessed, judged at read time);
    - {b SPSI-2} — SI first-committer-wins among final committed
      transactions;
    - {b SPSI-3} — no write-write conflict inside one speculative
      snapshot, over the transitive read-from closure (catches the
      paper's Fig. 1(b) and Fig. 2 anomalies);
    - {b SPSI-4} — committed transactions never data-depend on aborted
      or unfinished transactions. *)

type violation = { rule : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

(** All SPSI checks; empty list = the history is SPSI-compliant.
    Violations are returned deduplicated and sorted by (rule, detail),
    so the report is a deterministic function of the history. *)
val check_spsi : History.t -> violation list

(** SI checks for a non-speculative run: {!check_spsi} plus the
    assertion that no speculative read ever happened.  Deterministic,
    like {!check_spsi}. *)
val check_si : History.t -> violation list

(** Render violations one per line. *)
val report : violation list -> string

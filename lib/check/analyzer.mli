(** Protocol-flow static analyzer: cross-file semantic checks over the
    token stream of {!Token}, plus the token-rule port of the original
    determinism lint.

    The analyzer exists because the repo's central property — a run is
    a deterministic, fully-checked function of (config, seed) — is
    guarded by conventions that a line regex cannot see: every message
    kind needs a dispatch arm, every message send needs a CPU cost,
    every mutable state field needs to reach the state fingerprint, and
    every trace span needs a close.  Each convention is stated once
    here and re-checked mechanically on every [dune runtest].

    {2 Rule catalog}

    Token rules (per file, ported from the regex lint; same names,
    same messages, same suppression markers):
    [hashtbl-order], [raw-random], [wall-clock], [poly-compare],
    [domain-unsafe], [no-direct-print].

    Semantic rules (cross-file):
    - {b message-flow} — every [M_*] constructor declared in the trace
      module's [msg_kind] type must be sent somewhere and must appear
      in every dispatch/coverage table of the trace module (a toplevel
      definition mentioning at least two message constructors); kinds
      sent but not declared are flagged at the send site.
    - {b cost-coverage} — every message-send site (a [send ~kind:M_*]
      call) must pair with a cost expression in its body: a [~cost]
      argument, a [cost_*] identifier, or a call to a definition that
      itself charges cost.  [*_reply] kinds are exempt: replies
      deliver to an already-charged coordinator fiber.
    - {b causal-coverage} — every message-send site ([send] /
      [send_work]) must carry the emitting transaction's causal
      context (a [~ctx] argument), or the delivery cannot be linked
      into the per-transaction causal DAG and the critical-path
      decomposition loses the hop.  [send_batch] flush sites are
      exempt: each queued item's context was stamped at its
      [send_work ~ctx] enqueue, so the flush carries no single
      context of its own.
    - {b fingerprint-coverage} — every [mutable] field of the
      configured state records must appear in the corresponding
      [fingerprint] function, or the model checker's visited-state
      dedup can equate states that differ.  A configured record file
      that is scanned but declares no type of the configured name is
      itself a finding (when its fingerprint file is scanned and
      defines [fingerprint]): a moved or renamed record must not
      silence the check.
    - {b span-pairing} — every [span_begin] must have a reachable
      [span_end]: a let-bound handle must be closed in the same
      toplevel definition; a handle stored into a field or table must
      have a [span_end] mentioning that field somewhere in the tree.
    - {b unused-allow} (warning) — a [lint: allow <rule>] marker whose
      rule was evaluated on that file but suppressed nothing.

    Any finding can be suppressed with the usual marker comment on (or
    directly above) the offending line. *)

type severity = Error | Warning

type finding = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 1-based *)
  rule : string;
  severity : severity;
  message : string;
}

val rule_names : string list
(** Canonical rule order; finding lists are sorted by (file, line,
    rule order, col). *)

(** {2 Running the analyzer} *)

type source = { path : string; text : string }

val scan_paths : string list -> source list
(** Recursively collect [.ml]/[.mli] sources ([_build] and dot-entries
    skipped; entries sorted), reading file contents.  Raises
    [Sys_error] on unreadable paths. *)

type report = {
  findings : finding list;  (** sorted, deduplicated, post-suppression *)
  files : int;
}

val analyze : ?rules:string list -> source list -> report
(** Run every rule over the sources in one sequential pass: the
    per-file extraction over each source in order, then the cross-file
    phase.  [rules] filters the {e reported} findings (everything is
    still evaluated, so suppression accounting is unaffected). *)

val render_text : report -> string
(** One [file:line:col: severity [rule] message] line per finding
    (empty string when clean). *)

val render_json : report -> string
(** SARIF-style JSON document (version 2.1.0 shape: tool driver with
    rule metadata, one result per finding).  Byte-deterministic:
    depends only on the findings. *)

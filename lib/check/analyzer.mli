(** Protocol-flow static analyzer: cross-file semantic checks over the
    token stream of {!Token}, plus the token rules no type can state.

    The analyzer exists because the repo's central property — a run is
    a deterministic, fully-checked function of (config, seed) — is
    guarded by conventions.  Those the type checker can state are
    checked while compiling: the [Prelude] opened by every library,
    binary and example puts a [nondet] alert on hash-table iteration,
    [Random] and the wall clock and a [print] alert on stdout printing
    (an error in [lib/]); the model-checker fingerprints match each
    state record field by field (warning 9); and a message send takes
    its causal context and its cost as required labels.  The rest is
    stated here and re-checked mechanically on every [dune runtest].

    {2 Rule catalog}

    Token rules (per file):
    - {b poly-compare} — [compare] rebound or passed to a sort, or
      [Stdlib.compare]: use a typed comparator.
    - {b domain-unsafe} — toplevel mutable state ([ref], a hash table)
      or [Random.self_init] in the directories whose modules run inside
      sweep cells.
    - {b prelude-bypass} — a [Stdlib.]-qualified [Hashtbl], [Random],
      [Sys], [Printf], [Format] or [print_*], which reaches the Stdlib
      original past the Prelude's alerts (the Prelude itself exempt).

    Semantic rules (cross-file):
    - {b message-flow} — every [M_*] constructor declared in the trace
      module's [msg_kind] type must be sent somewhere and must appear
      in every dispatch/coverage table of the trace module (a toplevel
      definition mentioning at least two message constructors); kinds
      sent but not declared are flagged at the send site.
    - {b span-pairing} — every [span_begin] must have a reachable
      [span_end]: a let-bound handle must be closed in the same
      toplevel definition; a handle stored into a field or table must
      have a [span_end] mentioning that field somewhere in the tree.
    - {b unused-allow} (warning) — a [lint: allow <rule>] marker whose
      rule was evaluated on that file but suppressed nothing, or whose
      rule name is not one it can suppress.

    Any finding can be suppressed with the marker comment
    [(* lint: allow <rule> — reason *)] on (or directly above) the
    offending line. *)

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

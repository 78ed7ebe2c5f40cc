(** Per-node protocol counters.

    Latency distributions are recorded by the harness clients; the node
    counters here power throughput, abort-rate and misspeculation-rate
    reporting plus the self-tuning feedback signal. *)

type t = {
  mutable started : int;  (** transaction attempts begun *)
  mutable commits : int;
  mutable read_only_commits : int;
  mutable aborts_local : int;
  mutable aborts_remote : int;
  mutable aborts_evicted : int;
  mutable aborts_dependency : int;
  mutable aborts_stale_snapshot : int;
  mutable aborts_node_failure : int;
  mutable aborts_prepare_timeout : int;
  mutable spec_reads : int;  (** reads served from local-committed versions *)
  mutable cache_reads : int;  (** speculative reads served by the cache partition *)
  mutable reads : int;
  mutable remote_reads : int;
  mutable spec_commits : int;  (** Ext-Spec speculative commits externalized *)
  mutable ext_misspec : int;  (** externalized then finally aborted *)
  mutable olc_blocks : int;  (** reads delayed by the OLC/FFC guard (Fig. 2) *)
  mutable server_blocks : int;  (** reads blocked on an unresolved version *)
  mutable in_doubt_commits : int;  (** in-doubt prepares resolved to commit *)
  mutable in_doubt_aborts : int;  (** in-doubt prepares resolved to abort *)
}

let create () =
  {
    started = 0;
    commits = 0;
    read_only_commits = 0;
    aborts_local = 0;
    aborts_remote = 0;
    aborts_evicted = 0;
    aborts_dependency = 0;
    aborts_stale_snapshot = 0;
    aborts_node_failure = 0;
    aborts_prepare_timeout = 0;
    spec_reads = 0;
    cache_reads = 0;
    reads = 0;
    remote_reads = 0;
    spec_commits = 0;
    ext_misspec = 0;
    olc_blocks = 0;
    server_blocks = 0;
    in_doubt_commits = 0;
    in_doubt_aborts = 0;
  }

let record_abort t (reason : Types.abort_reason) =
  match reason with
  | Local_conflict -> t.aborts_local <- t.aborts_local + 1
  | Remote_conflict -> t.aborts_remote <- t.aborts_remote + 1
  | Evicted -> t.aborts_evicted <- t.aborts_evicted + 1
  | Dependency_aborted -> t.aborts_dependency <- t.aborts_dependency + 1
  | Snapshot_too_old -> t.aborts_stale_snapshot <- t.aborts_stale_snapshot + 1
  | Node_failure -> t.aborts_node_failure <- t.aborts_node_failure + 1
  | Prepare_timeout -> t.aborts_prepare_timeout <- t.aborts_prepare_timeout + 1

let aborts t =
  t.aborts_local + t.aborts_remote + t.aborts_evicted + t.aborts_dependency
  + t.aborts_stale_snapshot + t.aborts_node_failure + t.aborts_prepare_timeout

(** Aborts attributable to failed (internal) speculation. *)
let misspeculations t = t.aborts_dependency + t.aborts_stale_snapshot

(** Fraction of attempts that aborted, in [0, 1]. *)
let abort_rate t =
  let total = t.commits + aborts t in
  if total = 0 then 0. else float_of_int (aborts t) /. float_of_int total

let misspeculation_rate t =
  let total = t.commits + aborts t in
  if total = 0 then 0. else float_of_int (misspeculations t) /. float_of_int total

let ext_misspeculation_rate t =
  let total = t.commits + aborts t in
  if total = 0 then 0. else float_of_int t.ext_misspec /. float_of_int total

(* The one field-wise operation: [f] applied to every pair of
   corresponding counters, into a fresh record. *)
let map2 f a b =
  {
    started = f a.started b.started;
    commits = f a.commits b.commits;
    read_only_commits = f a.read_only_commits b.read_only_commits;
    aborts_local = f a.aborts_local b.aborts_local;
    aborts_remote = f a.aborts_remote b.aborts_remote;
    aborts_evicted = f a.aborts_evicted b.aborts_evicted;
    aborts_dependency = f a.aborts_dependency b.aborts_dependency;
    aborts_stale_snapshot = f a.aborts_stale_snapshot b.aborts_stale_snapshot;
    aborts_node_failure = f a.aborts_node_failure b.aborts_node_failure;
    aborts_prepare_timeout = f a.aborts_prepare_timeout b.aborts_prepare_timeout;
    spec_reads = f a.spec_reads b.spec_reads;
    cache_reads = f a.cache_reads b.cache_reads;
    reads = f a.reads b.reads;
    remote_reads = f a.remote_reads b.remote_reads;
    spec_commits = f a.spec_commits b.spec_commits;
    ext_misspec = f a.ext_misspec b.ext_misspec;
    olc_blocks = f a.olc_blocks b.olc_blocks;
    server_blocks = f a.server_blocks b.server_blocks;
    in_doubt_commits = f a.in_doubt_commits b.in_doubt_commits;
    in_doubt_aborts = f a.in_doubt_aborts b.in_doubt_aborts;
  }

let sum list = List.fold_left (map2 ( + )) (create ()) list
let copy t = map2 (fun x _ -> x) t t
let diff a b = map2 ( - ) a b

let pp ppf t =
  Format.fprintf ppf
    "@[<v>started=%d commits=%d (ro=%d) aborts=%d (local=%d remote=%d evicted=%d dep=%d stale=%d)@,\
     reads=%d (spec=%d cache=%d remote=%d) spec_commits=%d ext_misspec=%d blocks(olc=%d srv=%d)"
    t.started t.commits t.read_only_commits (aborts t) t.aborts_local t.aborts_remote
    t.aborts_evicted t.aborts_dependency t.aborts_stale_snapshot t.reads t.spec_reads
    t.cache_reads t.remote_reads t.spec_commits t.ext_misspec t.olc_blocks t.server_blocks;
  (* Failure/recovery counters print only when they fired, keeping
     fault-free output byte-identical to the pre-recovery format. *)
  if t.aborts_node_failure + t.aborts_prepare_timeout + t.in_doubt_commits + t.in_doubt_aborts > 0
  then
    Format.fprintf ppf "@,failure(node=%d timeout=%d) in_doubt(commit=%d abort=%d)"
      t.aborts_node_failure t.aborts_prepare_timeout t.in_doubt_commits t.in_doubt_aborts;
  Format.fprintf ppf "@]"

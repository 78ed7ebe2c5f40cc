(** Transaction records and lifecycle state shared by the coordinator
    and the partition servers. *)

open Store

(** Why a transaction (attempt) aborted.  The classification feeds the
    abort-rate and misspeculation-rate metrics of the evaluation. *)
type abort_reason =
  | Local_conflict  (** write-write conflict during local certification *)
  | Remote_conflict  (** conflict detected by a remote master (global cert) *)
  | Evicted  (** local speculative state evicted by a remote prepare *)
  | Dependency_aborted  (** cascading abort: a dependee aborted (SPSI-4) *)
  | Snapshot_too_old
      (** a dependee final committed with CT > RS, violating SPSI-1 *)
  | Node_failure
      (** a replica involved in this transaction's certification crashed
          (perfect failure detection, §5.6); the client simply retries *)
  | Prepare_timeout
      (** the coordinator's global-certification timer expired with
          prepares still outstanding (cooperative termination under
          partitions or message loss); presumed abort *)

let abort_reason_to_string = function
  | Local_conflict -> "local-conflict"
  | Remote_conflict -> "remote-conflict"
  | Evicted -> "evicted"
  | Dependency_aborted -> "dependency-aborted"
  | Snapshot_too_old -> "snapshot-too-old"
  | Node_failure -> "node-failure"
  | Prepare_timeout -> "prepare-timeout"

(** Map a protocol abort reason onto the closed observability taxonomy.
    Exhaustive by construction: adding an [abort_reason] constructor
    breaks this match at compile time, forcing a taxonomy decision. *)
let taxonomy_of_abort : abort_reason -> Obs.Taxonomy.t = function
  | Local_conflict | Remote_conflict -> Obs.Taxonomy.Ww_conflict
  | Snapshot_too_old -> Obs.Taxonomy.Stale_snapshot
  | Evicted -> Obs.Taxonomy.Spec_misprediction
  | Dependency_aborted -> Obs.Taxonomy.Cascade
  | Node_failure -> Obs.Taxonomy.Partition
  | Prepare_timeout -> Obs.Taxonomy.Timeout

(** Atomic-commitment decision for one global transaction, as logged in
    a coordinator's persistent decision log (write-once; survives the
    coordinator's crash and answers in-doubt status queries). *)
type decision = D_commit of int (* final commit timestamp *) | D_abort

type tx_state =
  | Active  (** executing, before local certification *)
  | Local_committed  (** passed local certification, awaiting global *)
  | Committed
  | Aborted of abort_reason

(** Raised by coordinator operations when the transaction has been
    aborted (e.g. by a cascading abort) while the client was executing. *)
exception Tx_abort of abort_reason

module KeyTbl = Mvstore.KeyTbl

type tx = {
  id : Txid.t;
  origin : int;  (** node where the transaction (and its client) live *)
  rs : int;  (** read snapshot (origin-node physical clock at start) *)
  start_time : int;  (** simulated time of this attempt's activation *)
  mutable state : tx_state;
  sr : bool;
      (** speculation mode latched at begin: a transaction observes one
          configuration for its whole lifetime, even if the self-tuner
          flips the global switch mid-flight *)
  (* --- SPSI bookkeeping (Alg. 1) --- *)
  mutable ffc : int;  (** freshest final commit read from, directly or not *)
  mutable olcset : int Txid.Tbl.t option;
      (** oldest-local-commit set: dependee txid -> its oldest unsafe
          ancestor's read snapshot; the sentinel ⟨⊥,∞⟩ is implicit.
          [None] until the first entry (most attempts never get one) *)
  mutable unsafe : bool;  (** updated some non-locally-replicated key *)
  (* --- write buffer --- *)
  wbuf : Keyspace.Value.t KeyTbl.t;
  mutable wkeys : Keyspace.Key.t list;  (** reverse insertion order *)
  mutable n_wkeys : int;  (** [List.length wkeys], maintained on insert *)
  mutable rset : Keyspace.Value.t KeyTbl.t option;
      (** read set with observed values (tracked only under the
          Serializable isolation level, for read promotion); [None]
          until the first read it records *)
  mutable rset_keys : Keyspace.Key.t list;
  (* --- dependency graph (node-local by construction) --- *)
  mutable deps : Txid.Set.t;  (** unresolved dependees this tx read/stacked on *)
  mutable all_deps : Txid.Set.t;
      (** every dependee ever recorded (never shrinks); declared to
          remote replicas so they only stack this transaction's prepare
          over versions its origin actually ordered it after *)
  mutable dependents : tx list;  (** unresolved txs that read/stacked on this tx *)
  (* --- coordination --- *)
  mutable watchers : (unit -> unit) list;
      (** callbacks run on any state/bookkeeping change; used to
          implement condition waits in the coordinator fiber *)
  mutable lc : int;  (** local commit timestamp *)
  mutable ct : int;  (** final commit timestamp *)
  mutable pending_prepares : int;
  mutable prepare_failed : bool;
  mutable prepare_timed_out : bool;
      (** the global-certification timer fired with prepares outstanding
          (only ever set when [Config.prepare_timeout_us > 0]) *)
  mutable max_proposal : int;
  mutable global_started : bool;
  mutable spec_exposed : bool;  (** Ext-Spec: result externalized at LC *)
  mutable reads_done : int;
  mutable span : int;
      (** open tx-lifecycle span handle in the engine's trace recorder
          ([-1] when tracing is off; see {!Obs.Trace}) *)
  mutable groups : (int * (Keyspace.Key.t * Keyspace.Value.t) list) list;
      (** write-set grouped by partition, fixed at certification time *)
  spec_commit : int Dsim.Ivar.t;
      (** Ext-Spec: filled with the simulated time of the speculative
          (local) commit that was externalized to the client *)
}

let make_tx ~id ~origin ~rs ~start_time ~sr =
  {
    id;
    origin;
    rs;
    start_time;
    state = Active;
    sr;
    ffc = 0;
    olcset = None;
    unsafe = false;
    wbuf = KeyTbl.create 8;
    wkeys = [];
    n_wkeys = 0;
    rset = None;
    rset_keys = [];
    deps = Txid.Set.empty;
    all_deps = Txid.Set.empty;
    dependents = [];
    watchers = [];
    lc = 0;
    ct = 0;
    pending_prepares = 0;
    prepare_failed = false;
    prepare_timed_out = false;
    max_proposal = 0;
    global_started = false;
    spec_exposed = false;
    reads_done = 0;
    span = -1;
    groups = [];
    spec_commit = Dsim.Ivar.create ();
  }

let infinity_ts = max_int

(** Minimum of the OLCSet (∞ when only the sentinel remains). *)
(* Hash order: min is order-insensitive. *)
let olc_min tx =
  match tx.olcset with
  | None -> infinity_ts
  | Some t -> (Txid.Tbl.fold (fun _ v acc -> min v acc) t infinity_ts [@alert "-nondet"])

(** Record/refresh an OLCSet entry (Alg. 1, line 13). *)
let olc_put tx dep_id v =
  match tx.olcset with
  | Some t -> Txid.Tbl.replace t dep_id v
  | None ->
    let t = Txid.Tbl.create 4 in
    Txid.Tbl.replace t dep_id v;
    tx.olcset <- Some t

let olc_remove tx dep_id = Option.iter (fun t -> Txid.Tbl.remove t dep_id) tx.olcset

(** Empty the OLCSet (final commit). *)
let olc_clear tx = tx.olcset <- None

(** Record the value [tx] observed for [key], unless it already read
    the key (Serializable read promotion). *)
let rset_add tx key v =
  let t =
    match tx.rset with
    | Some t -> t
    | None ->
      let t = KeyTbl.create 8 in
      tx.rset <- Some t;
      t
  in
  if not (KeyTbl.mem t key) then begin
    KeyTbl.replace t key v;
    tx.rset_keys <- key :: tx.rset_keys
  end

(** The value [tx] observed for [key], a key of [tx.rset_keys]. *)
let rset_find tx key =
  match tx.rset with
  | Some t -> KeyTbl.find t key
  | None -> invalid_arg "Types.rset_find: nothing read"

let is_aborted tx = match tx.state with Aborted _ -> true | _ -> false

let is_read_only tx = tx.n_wkeys = 0

(** Run and clear the condition watchers after any observable change. *)
let notify tx =
  match tx.watchers with
  | [] -> ()
  | ws ->
    tx.watchers <- [];
    List.iter (fun f -> f ()) (List.rev ws)

(** Raise {!Tx_abort} if the transaction was aborted behind the
    coordinator's back. *)
let check_live tx =
  match tx.state with Aborted r -> raise (Tx_abort r) | Active | Local_committed | Committed -> ()

(** Execution events emitted to an optional observer; the SPSI checker
    reconstructs and validates histories from these. *)
type event =
  | Ev_begin of { id : Txid.t; origin : int; rs : int; time : int }
  | Ev_read of {
      id : Txid.t;
      key : Keyspace.Key.t;
      writer : Txid.t option;  (** creator of the observed version; [None] = key absent *)
      version_ts : int;
      speculative : bool;
      start_time : int;  (** when this read attempt was issued *)
      time : int;  (** when the value was returned to the transaction *)
    }
  | Ev_write of { id : Txid.t; key : Keyspace.Key.t; time : int }
  | Ev_local_commit of { id : Txid.t; lc : int; unsafe : bool; time : int }
  | Ev_commit of { id : Txid.t; ct : int; time : int }
  | Ev_abort of { id : Txid.t; reason : abort_reason; time : int }

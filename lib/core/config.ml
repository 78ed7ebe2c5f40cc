(** Protocol configuration.

    All protocols of the paper's evaluation share one engine and differ
    only in configuration, mirroring the original implementation where
    STR and the baselines are variants of the same Antidote extension:

    - {b STR}: speculative reads enabled (or auto-tuned) + Precise Clocks;
    - {b ClockSI-Rep}: no speculative reads, physical clocks;
    - {b Ext-Spec}: ClockSI-Rep that additionally externalizes results at
      local commit (speculative commit), as PLANET-style systems do.

    Table 1's four systems come from toggling [clocks] and
    [speculative_reads] independently. *)

type clocks = Physical | Precise

(** Consistency level.  [Snapshot_isolation] is the paper's target
    criterion (SPSI for executing transactions).  [Serializable]
    implements the paper's first future-work avenue by {e read
    promotion}: an update transaction's reads are added to its write
    set at certification time, materializing read-write conflicts as
    write-write conflicts, which the SI machinery then rejects —
    a classic, sound reduction (no phantom protection: point reads
    only).  Read-only transactions stay untouched (a consistent
    snapshot is already serializable). *)
type isolation = Snapshot_isolation | Serializable

(** Seeded bugs: each one breaks exactly one safety mechanism, and the
    checker's oracles must catch it.

    - [Skip_ww_check]: partition servers skip write-write conflict
      detection during [prepare] (every prepare succeeds), i.e. the
      pre-commit lock of Algorithm 2 is never taken.  The resulting
      first-committer-wins violations must be caught by the SPSI oracle.
    - [Unsafe_speculation]: the behaviour of prior systems with
      unrestricted speculative reads (§2, Fig. 1): any reader may observe
      any pre-committed version and the SPSI snapshot guards (OLC/FFC)
      are disabled.  Used by the anomaly tour and the checker's negative
      tests.
    - [Lost_commit]: a recovering node resolves every in-doubt
      transaction by presumed abort without consulting the coordinator's
      decision log, dropping commits whose decision message was lost.
      The recovery oracle (REC-durable) must catch it.
    - [Double_resolution]: a recovering node presumes {e commit} for
      in-doubt transactions, so a transaction the coordinator aborted is
      resolved both ways.  The recovery oracle (REC-atomic) must catch
      it. *)
type seeded_bug = Skip_ww_check | Unsafe_speculation | Lost_commit | Double_resolution

type t = {
  clocks : clocks;
  isolation : isolation;
  mutable speculative_reads : bool;
      (** Runtime-toggleable: the self-tuner flips this live. *)
  externalize_local_commit : bool;
      (** Ext-Spec: expose results to the client at local commit. *)
  seeded_bug : seeded_bug option;
      (** A deliberately broken engine variant for the checker's
          validation runs; [None] (the default) is the correct engine. *)
  (* --- failure detection & atomic-commitment recovery ---
     All three periods default to 0 = disabled, which restores the
     pre-recovery engine bit-for-bit: no timers are armed, no status
     messages exist, and the coordinator blocks indefinitely on lost
     prepares (the fail-free world the paper evaluates). *)
  prepare_timeout_us : int;
      (** coordinator side: abort global certification ([Prepare_timeout])
          when prepares are still outstanding after this long *)
  status_retry_us : int;
      (** failure-detection period: remote-read guard timers and the
          retry period of in-doubt status queries during recovery *)
  termination_timeout_us : int;
      (** participant side: a replica holding a remotely-prepared
          transaction this long without a decision starts cooperative
          termination (queries the coordinator / surviving peers) *)
  (* --- service-cost model (microseconds of node CPU time) --- *)
  cost_read : int;  (** serving one read request *)
  cost_prepare_key : int;  (** certifying + installing one written key *)
  cost_apply_key : int;  (** committing/aborting one written key *)
  cost_coord_op : int;  (** coordinator bookkeeping per protocol step *)
  cost_tx_logic : int;  (** client-side transaction logic per operation *)
  cost_msg : int;
      (** per-wire-message receive/dispatch overhead at the destination
          node (header parse, demux, scheduling).  0 = the historical
          cost model where delivery is free; coalescing amortizes this
          term (one header per flush instead of one per payload). *)
  (* --- message coalescing (0 = off = bit-identical to unbatched) --- *)
  batch_window_us : int;
      (** per-(src,dst) coalescing window for commit-pipeline messages *)
  batch_max : int;  (** size cap: a link queue flushes early at this many payloads *)
  (* --- clock model --- *)
  max_clock_skew_us : int;  (** per-node skew drawn uniformly in [-max, max] *)
  (* --- version GC --- *)
  prune_every_inserts : int;  (** amortized GC trigger; 0 disables pruning *)
  prune_horizon_us : int;  (** keep committed versions younger than now - horizon *)
}

(* Service costs calibrated so that a node saturates at a few hundred
   transactions per second, the throughput regime of the paper's
   Erlang/Antidote prototype on EC2 instances; at saturation, work
   wasted on misspeculated transactions visibly costs throughput, which
   is what makes speculation counter-productive in adverse workloads
   (Synth-B). *)
let default_costs = (60, 40, 20, 40, 20)

(* Reject values no run can mean: a negative cost, period, skew or
   prune setting, or a coalescing queue that holds no payload. *)
let validate t =
  let at_least lo field v =
    if v < lo then
      invalid_arg (Printf.sprintf "Config: %s must be >= %d, got %d" field lo v)
  in
  List.iter
    (fun (field, v) -> at_least 0 field v)
    [
      ("prepare_timeout_us", t.prepare_timeout_us);
      ("status_retry_us", t.status_retry_us);
      ("termination_timeout_us", t.termination_timeout_us);
      ("cost_read", t.cost_read);
      ("cost_prepare_key", t.cost_prepare_key);
      ("cost_apply_key", t.cost_apply_key);
      ("cost_coord_op", t.cost_coord_op);
      ("cost_tx_logic", t.cost_tx_logic);
      ("cost_msg", t.cost_msg);
      ("batch_window_us", t.batch_window_us);
      ("max_clock_skew_us", t.max_clock_skew_us);
      ("prune_every_inserts", t.prune_every_inserts);
      ("prune_horizon_us", t.prune_horizon_us);
    ];
  at_least 1 "batch_max" t.batch_max;
  t

let make ?(clocks = Precise) ?(isolation = Snapshot_isolation)
    ?(speculative_reads = true) ?(externalize_local_commit = false) ?seeded_bug
    ?(prepare_timeout_us = 0) ?(status_retry_us = 0) ?(termination_timeout_us = 0)
    ?(max_clock_skew_us = 500) ?(costs = default_costs) ?(cost_msg = 0)
    ?(batch_window_us = 0) ?(batch_max = 16)
    ?(prune_every_inserts = 4096) ?(prune_horizon_us = 2_000_000) () =
  let cost_read, cost_prepare_key, cost_apply_key, cost_coord_op, cost_tx_logic =
    costs
  in
  validate
    {
      clocks;
      isolation;
      speculative_reads;
      externalize_local_commit;
      seeded_bug;
      prepare_timeout_us;
      status_retry_us;
      termination_timeout_us;
      cost_read;
      cost_prepare_key;
      cost_apply_key;
      cost_coord_op;
      cost_tx_logic;
      cost_msg;
      batch_window_us;
      batch_max;
      max_clock_skew_us;
      prune_every_inserts;
      prune_horizon_us;
    }

(** Whether [t] runs the seeded bug [bug]. *)
let seeded t bug = match t.seeded_bug with Some b -> b = bug | None -> false

(** [recovery] layers failure detection + atomic-commitment recovery
    onto an existing configuration (periods in simulated µs). *)
let with_recovery ?(prepare_timeout_us = 600_000) ?(status_retry_us = 300_000)
    ?(termination_timeout_us = 600_000) t =
  validate { t with prepare_timeout_us; status_retry_us; termination_timeout_us }

(** [with_batching] layers message coalescing + batched certification
    onto an existing configuration.  [cost_msg] defaults to the
    configuration's current value so a batching-on/off comparison can
    hold the dispatch-cost model fixed on both sides. *)
let with_batching ?(batch_window_us = 1_000) ?(batch_max = 16) ?cost_msg t =
  let cost_msg = match cost_msg with Some c -> c | None -> t.cost_msg in
  validate { t with batch_window_us; batch_max; cost_msg }

(** The paper's protagonists. *)
let str ?(speculative_reads = true) () = make ~clocks:Precise ~speculative_reads ()

(** Prior-work strawman with unrestricted speculation (for the Fig. 1
    anomaly demonstrations only). *)
let unrestricted_speculation () =
  make ~clocks:Precise ~speculative_reads:true ~seeded_bug:Unsafe_speculation ()

(** STR upgraded to serializability via read promotion (future work of
    §7; speculative reads still apply to the promoted write set). *)
let str_serializable () = make ~clocks:Precise ~isolation:Serializable ()

let clocksi_rep () = make ~clocks:Physical ~speculative_reads:false ()

let ext_spec () =
  make ~clocks:Physical ~speculative_reads:false ~externalize_local_commit:true ()

(** Table 1 variants. *)
let physical () = clocksi_rep ()
let precise () = make ~clocks:Precise ~speculative_reads:false ()
let physical_sr () = make ~clocks:Physical ~speculative_reads:true ()
let precise_sr () = make ~clocks:Precise ~speculative_reads:true ()

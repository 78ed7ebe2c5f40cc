(** Reproduction of every table and figure of the paper's evaluation
    (§6), plus ablations.  Each function enumerates the parameter sweep
    as a grid of independent simulation cells, executes them via
    {!Sweep} — inline when [jobs] is 1 (the default), on [jobs] worker
    processes otherwise — and renders the same rows/series the
    paper plots.  Results are assembled in grid-key order: the rendered
    report is byte-identical whatever [jobs] is. *)

type scale = Quick | Full

(** Moderately contended base workload of the Table 1 sweep (exposed for
    the bench suite). *)
val table1_base : Workload.Synthetic.params

(** The sweeps below accept an optional [tracer] ({!Tracing.t}): each
    grid cell whose name passes the tracer's filter records the full
    span/counter trace of its run.  Cells register with the tracer at
    construction time, in the parent process, so the exported trace bytes
    are identical whatever [jobs] is.  Cell names: Figs. 3, 5, 6 use
    ["clients=%d/protocol=%s"], Fig. 4 ["workload=%s/clients=%d/variant=%s"],
    Table 1 ["keys=%d/technique=%s"]. *)

(** Figure 3: synthetic workloads, STR vs ClockSI-Rep vs Ext-Spec. *)
val fig3 : ?jobs:int -> ?tracer:Tracing.t -> scale:scale -> [ `A | `B ] -> Report.t

(** Figure 4: static SR on/off vs self-tuning, normalized throughput. *)
val fig4 : ?jobs:int -> ?tracer:Tracing.t -> scale:scale -> unit -> Report.t

(** Table 1: Physical/Precise clocks x speculative reads, varying
    transaction size. *)
val table1 : ?jobs:int -> ?tracer:Tracing.t -> scale:scale -> unit -> Report.t

(** Figure 5: the three TPC-C mixes. *)
val fig5 : ?jobs:int -> ?tracer:Tracing.t -> scale:scale -> [ `A | `B | `C ] -> Report.t

(** Figure 6: RUBiS. *)
val fig6 : ?jobs:int -> ?tracer:Tracing.t -> scale:scale -> unit -> Report.t

(** §6.1 Precise Clocks storage overhead. *)
val storage : ?jobs:int -> scale:scale -> unit -> Report.t

(** Region failure (§5.6): goodput and externalized-misspeculation
    timeline while one DC crash-stops at 2.0s and recovers at 4.0s, for
    all three protagonists under the atomic-commitment recovery
    protocol ({!Core.Config.with_recovery}).  Bucket-major rows (500ms
    buckets), byte-identical whatever [jobs] is. *)
val region_failure : ?jobs:int -> scale:scale -> unit -> Report.t

(** {1 Ablations and extensions beyond the paper's artifacts} *)

(** Open-loop latency vs offered load (STR vs the baselines): Poisson
    arrivals at a fixed per-DC rate through {!Openloop}, so saturation
    shows up as a latency cliff and dropped arrivals instead of
    closed-loop self-throttling.  [clients_per_dc] bounds concurrency
    per DC (default 2000). *)
val openloop_load :
  ?jobs:int -> ?clients_per_dc:int -> scale:scale -> unit -> Report.t

(** Queue-oriented speculative batching: committed throughput and
    latency as the coalescing window ([Config.batch_window_us]) sweeps
    against offered load, open-loop STR/Synth-A.  Every cell — window 0
    included — charges the same per-wire-message dispatch overhead, so
    the columns isolate what coalescing amortizes. *)
val batch_load :
  ?jobs:int -> ?clients_per_dc:int -> scale:scale -> unit -> Report.t

val ablation_dcs : ?jobs:int -> scale:scale -> unit -> Report.t
val ablation_rf : ?jobs:int -> scale:scale -> unit -> Report.t
val ablation_remote_reads : ?jobs:int -> scale:scale -> unit -> Report.t
val ablation_serializability : ?jobs:int -> scale:scale -> unit -> Report.t
val ablations : ?jobs:int -> scale:scale -> unit -> Report.t list

(** Everything: the paper's nine artifacts, the region-failure
    timeline, {!openloop_load} and {!batch_load}, then the ablations. *)
val all : ?jobs:int -> scale:scale -> unit -> Report.t list

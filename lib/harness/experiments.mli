(** Reproduction of every table and figure of the paper's evaluation
    (§6), plus extensions and ablations, as data: a {!registry} of named
    experiments, each a list of {!table}s.  A table is a grid of
    independent simulation cells and one function from the swept
    [(key, result)] list to rows; {!sweep} runs the cells via {!Sweep}
    — inline when [jobs] is 1 (the default), on [jobs] worker processes
    otherwise — and renders the rows.  Results are assembled in
    grid-key order: the rendered report is byte-identical whatever
    [jobs] is.  [str_sim <name>] prints an experiment's tables. *)

type scale = Quick | Full

(** Moderately contended base workload of the Table 1 sweep (exposed for
    the bench suite). *)
val table1_base : Workload.Synthetic.params

(** One report: its title and headers, its cells, its rows. *)
type table

(** Run a table's cells and render its report.  With a [tracer]
    ({!Tracing.t}), each traced cell whose name passes the tracer's
    filter records the full span/counter trace of its run.  Cells
    register with the tracer here, in the parent process, so the
    exported trace bytes are identical whatever [jobs] is.  Traced cell
    names: Figs. 3, 5, 6 use ["clients=%d/protocol=%s"], Fig. 4
    ["workload=%s/clients=%d/variant=%s"], Table 1
    ["keys=%d/technique=%s"]; the other tables trace nothing. *)
val sweep : ?jobs:int -> ?tracer:Tracing.t -> table -> Report.t

type experiment = {
  name : string;  (** the [str_sim] subcommand *)
  doc : string;
  traced : bool;  (** its cells are named for a tracer *)
  tables : (scale -> table) list;
}

(** In subcommand order: Figs. 3(a), 3(b), 4, Table 1, Figs. 5(a-c) and
    6, the storage overhead, the region-failure timeline, open-loop
    latency vs offered load, batching, the ablations, and last ["all"],
    every table above in that order. *)
val registry : experiment list

(** {!sweep} over the experiment's tables at [scale]. *)
val run : ?jobs:int -> ?tracer:Tracing.t -> scale:scale -> experiment -> Report.t list

(** The smallest table, for smoke tests: STR under SI vs Serializable
    on a read-heavy update workload. *)
val ablation_serializability : scale -> table

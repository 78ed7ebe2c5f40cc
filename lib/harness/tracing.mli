(** Sweep-level trace collector: hands each selected sweep cell its own
    {!Obs.Trace.t} recorder and merges them into one deterministic
    export.

    Determinism contract: {!trace_for} is called in the parent process
    while the sweep's cells are being constructed, and the recorder is
    passed to {!Sweep.cell} as [?trace] so the worker's recording
    comes back into it.  Each registration — filtered out or not —
    consumes one pid-base slot, so process ids, cell order, and
    therefore the exported bytes depend only on the enumeration order
    of the sweep, never on how many workers later execute it. *)

type t

(** [create ?filter ()] — when [filter] is given, only cells whose name
    contains it as a substring are traced (the rest run with tracing
    off, keeping the trace file small on big sweeps). *)
val create : ?filter:string -> unit -> t

(** Recorder for the named cell, or [None] if the filter excludes it.
    Pass the result as [?trace] to {!Runner.run} / {!Core.Engine.create}. *)
val trace_for : t -> cell:string -> Obs.Trace.t option

(** Number of cells actually traced (post-filter). *)
val n_selected : t -> int

(** {!Obs.Export.chrome} / {!Obs.Export.jsonl} over {!traces}. *)
val export_chrome : t -> string

val export_jsonl : t -> string

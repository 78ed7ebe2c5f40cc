(** Keyed parameter sweeps with deterministic assembly.

    An experiment is described as a list of {e cells} — a grid key plus
    a pure thunk that runs one simulation — instead of nested loops that
    run inline.  {!run} executes the thunks on {!Procpool} worker
    processes and returns [(key, result)] pairs {b in enumeration
    order}, so a report assembled by folding over the returned list is
    byte-identical whatever the worker count.

    Thunks must be self-contained: each builds its own simulator state
    and shares nothing with its siblings (which {!Runner.run} already
    guarantees — enforced by the [domain-unsafe] lint rule), and returns
    marshallable plain data. *)

type ('k, 'r) cell

val cell : ?trace:Obs.Trace.t -> 'k -> (unit -> 'r) -> ('k, 'r) cell
(** [cell ?trace key thunk].  [trace] is the recorder the thunk writes
    into (from {!Tracing.trace_for}): a worker process records into its
    own copy, so {!run} ships that copy back and {!Obs.Trace.adopt}s it
    into [trace]. *)

val run : ?jobs:int -> ('k, 'r) cell list -> ('k * 'r) list
(** Execute every cell on [jobs] worker processes (default [1]: inline,
    no fork) and pair results with their grid keys, in the order the
    cells were enumerated.  On return every cell's [trace] holds what
    its run recorded.  A failing cell raises as {!Procpool.run}
    describes. *)

val get : ('k * 'r) list -> 'k -> 'r
(** Keyed lookup into {!run} output.  Raises [Invalid_argument] when
    the key is absent — a grid-enumeration bug, not a data condition. *)

(** {1 Grid enumeration helpers} *)

val product : 'a list -> 'b list -> ('a * 'b) list
(** Row-major: [product [x1; x2] [y1; y2]] is
    [[(x1,y1); (x1,y2); (x2,y1); (x2,y2)]]. *)

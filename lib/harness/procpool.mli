(** Fork-based cell executor, the one parallel executor of the repo:
    runs a list of thunks across [jobs] single-domain worker
    {e processes} and returns the results in submission order.

    Every process stays single-domain, so the OCaml 5.1 runtime race
    between parallel domains and suspended effect fibers cannot occur.
    The price is that only values cross back:
    - results must be marshallable plain data (no closures, no custom
      blocks) — true of {!Runner.result}, {!Openloop.result} and
      {!Obs.Trace.t};
    - side effects performed by a cell stay in its worker and are lost
      (a traced {!Sweep} cell ships its recorder back as part of its
      result for this reason);
    - thunks are assigned statically (cell [i] runs on worker
      [i mod jobs]), so results never depend on scheduling. *)

(** Raised in the parent when a cell raised in a child (the exception
    is flattened to a message + backtrace string), when a worker died,
    or when a worker failed to report a result. *)
exception Cell_failed of string

val default_jobs : unit -> int
(** Worker count for callers that do not specify one: the [STR_JOBS]
    environment variable when set and non-empty, else [1].
    @raise Invalid_argument naming [STR_JOBS] when it is set to
    anything but a positive integer. *)

(** [run ~jobs thunks] executes every thunk and returns their values in
    list order.  [jobs <= 1] (or a singleton list) degrades to plain
    sequential execution in the calling process, where a raising thunk
    raises its own exception.  Otherwise every worker is reaped before
    anything is raised, and the failure of the lowest-index cell wins. *)
val run : ?jobs:int -> (unit -> 'a) list -> 'a list

(** Deterministic fixed-interval time-series recorder.

    A fixed column set plus integer samples keyed on simulated time:
    drivers sample cumulative counters at interval boundaries, making
    the series a pure function of (configuration, seed) — exported
    bytes (CSV, JSONL, trace embedding) are identical across [-j]
    workers and replays.  Cumulative columns recover per-interval rates
    via {!delta}; gauge columns (queue depth, live speculation depth)
    read directly. *)

type t

val create : interval_us:int -> cols:string list -> t
(** @raise Invalid_argument on a non-positive interval or empty
    column list. *)

val interval_us : t -> int
val cols : t -> string list
val n_rows : t -> int

val sample : t -> time:int -> int array -> unit
(** Append one row (copied).  Row width must equal the column count.
    @raise Invalid_argument on width mismatch. *)

val time : t -> int -> int
val value : t -> row:int -> col:int -> int
val iter : t -> (time:int -> int array -> unit) -> unit

val delta : t -> col:int -> int array
(** Per-interval increments of a cumulative column; element 0 is the
    first sample itself. *)

val to_csv : t -> string
(** Header [t_us,<cols>] then one integer row per sample. *)

val to_jsonl : t -> string
(** One [{"t_us":..,"col":..}] object per line. *)

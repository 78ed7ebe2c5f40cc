(** Latency recording (growable sample buffer) and summary statistics. *)

type t

val create : unit -> t

(** Record one sample (microseconds). *)
val record : t -> int -> unit

type summary = {
  count : int;
  mean_us : float;
  p50_us : int;
  p95_us : int;
  p99_us : int;
  max_us : int;
}

(** Sort-and-scan percentile summary of everything recorded so far. *)
val summarize : t -> summary

val pp_summary : Format.formatter -> summary -> unit

(** Latency recording (growable sample buffer) and summary statistics. *)

type t

val create : unit -> t

(** Record one sample (microseconds). *)
val record : t -> int -> unit

val count : t -> int

type summary = {
  count : int;
  mean_us : float;
  p50_us : int;
  p95_us : int;
  p99_us : int;
  max_us : int;
}

val empty_summary : summary

(** Sort-and-scan percentile summary of everything recorded so far. *)
val summarize : t -> summary

val pp_summary : Format.formatter -> summary -> unit

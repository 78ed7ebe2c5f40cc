(** Fixed-bucket log-scale latency histograms.

    Values (microseconds) below 16 are recorded exactly; above that,
    buckets subdivide each power of two into 8 sub-buckets, bounding the
    relative quantization error of any reported percentile by 12.5%,
    one sub-bucket width.  Recording is O(1) with no
    allocation, so histograms can sit on hot paths; the bucket layout is
    a pure function of the value, so summaries are deterministic
    whatever the recording order. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Record one sample.  Negative values clamp to 0. *)

val percentile : t -> float -> int
(** [percentile t p] with [p] in [0, 1]: the upper bound of the bucket
    holding the sample of rank [floor (p * (count - 1))] — the same rank
    convention as {!Harness.Metrics} — clamped to the exact maximum.
    Always >= the exact order statistic, and within 12.5% of it.  0
    when empty. *)

type summary = {
  count : int;
  mean_us : float;
  p50_us : int;
  p90_us : int;
  p99_us : int;
  p999_us : int;
  max_us : int;  (** exact *)
}

val summary : t -> summary

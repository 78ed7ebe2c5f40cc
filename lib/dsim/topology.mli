(** Geo-distributed deployment topologies.

    A topology is a set of data centers with a symmetric matrix of
    one-way network latencies (microseconds), plus the one-way latency
    between nodes of the same data center. *)

type t

(** Number of data centers. *)
val size : t -> int

val name : t -> int -> string

(** One-way latency between two data centers (intra-DC latency when they
    coincide), in microseconds. *)
val oneway_us : t -> int -> int -> int

(** RTT between two data centers in microseconds. *)
val rtt_us : t -> int -> int -> int

(** Build a custom topology from a symmetric RTT matrix in milliseconds.
    @raise Invalid_argument on a non-square or asymmetric matrix. *)
val of_rtt_ms : names:string array -> rtt_ms:float array array -> intra_rtt_ms:float -> t

(** [uniform ~dcs ~rtt_ms ~intra_rtt_ms] — all DC pairs at the same RTT;
    handy for tests and controlled experiments. *)
val uniform : dcs:int -> rtt_ms:float -> intra_rtt_ms:float -> t

(** The nine-region Amazon EC2 topology used in the paper's evaluation:
    Virginia, California, Oregon, Ireland, Frankfurt, Tokyo, Seoul,
    Singapore, Sydney — spanning four continents, with RTTs calibrated
    to published EC2 inter-region measurements. *)
val ec2_nine : t

(** First [n] regions of {!ec2_nine} (3 <= n <= 9 recommended). *)
val ec2_prefix : int -> t


(** Data placement: which nodes replicate which partitions and which is
    each partition's master replica.

    The paper's deployment ("a replication factor of six; each instance
    holds one master replica of a partition and slave replicas of five
    other partitions") is [ring ~replication_factor:6]. *)

type t

val n_partitions : t -> int
val n_nodes : t -> int
val master : t -> int -> int

(** Replica nodes of a partition, master first. *)
val replicas : t -> int -> int array

(** Partitions replicated by a node. *)
val hosted : t -> int -> int array

val replicates : t -> node:int -> partition:int -> bool

(** Explicit placement: [replicas.(p)] lists partition [p]'s replica
    nodes, master first.
    @raise Invalid_argument on empty/duplicate/out-of-range replicas. *)
val of_replicas : n_nodes:int -> replicas:int array array -> t

(** Ring placement: partition [p] is mastered by node [p] and
    replicated on the following [replication_factor - 1] nodes around
    the ring. *)
val ring : n_nodes:int -> replication_factor:int -> unit -> t

(** RUBiS auction-site benchmark substrate (§6.2 of the paper): 26
    interaction types (5 updates), tables horizontally sharded per node
    with node-local ID-index counters (the paper's adaptation to a
    partitioned key-value store), default 15% update mix and 2–10 s
    think times. *)

type params = {
  users_per_node : int;
  items_per_node : int;
  categories : int;
  regions : int;
  think_min_us : int;
  think_max_us : int;
  item_skew_theta : float;  (** popularity skew of browsed/bid items *)
}

val default : params

(** {1 Key schema} (exposed for tests) *)

val bid_key : int -> int -> Store.Keyspace.Key.t

(** Transactionally draw the next id from a node-local index counter. *)
val next_id : Core.Engine.t -> Core.Types.tx -> int -> string -> int

(** Number of interaction types (26). *)
val interaction_count : int

(** Update share of the mix by weight (0.15). *)
val update_fraction : float

val make : ?params:params -> Store.Placement.t -> Spec.t

(** TPC-C benchmark substrate (§6.2 of the paper).

    The paper's workloads use three representative transactions —
    payment (high local contention), new-order (remote contention via 1%
    remote stock), order-status (read-only) — over five warehouses per
    node; this implementation also provides the remaining two standard
    transactions (delivery, stock-level) for the full mix. *)

type params = {
  warehouses_per_node : int;
  districts : int;
  customers_per_district : int;
  items : int;
  remote_payment_prob : float;  (** TPC-C spec: 15% *)
  remote_stock_prob : float;  (** TPC-C spec: 1% per order line *)
  think_us : int;  (** mean think time *)
}

val default : params

type mix = {
  new_order : float;
  payment : float;
  order_status : float;
  delivery : float;
  stock_level : float;
}

(** The paper's mixes: A = 5/83/12, B = 45/43/12, C = 5/43/52
    (new-order / payment / order-status). *)
val mix_a : mix

val mix_b : mix
val mix_c : mix

(** Spec-like five-transaction mix (45/43/4/4/4). *)
val mix_full : mix

(** {1 Key schema} (exposed for tests and custom drivers) *)

val district_key : params -> int -> int -> Store.Keyspace.Key.t
val customer_key : params -> int -> int -> int -> Store.Keyspace.Key.t
val order_key : params -> int -> int -> int -> Store.Keyspace.Key.t
val order_line_key : params -> int -> int -> int -> int -> Store.Keyspace.Key.t

(** {1 Observable anomaly counters} *)

(** Under SI/SPSI, [null_order_lines] stays zero; a protocol admitting
    the Listing-1 anomaly (an order visible without its order lines)
    would increment it. *)
type counters = { mutable null_order_lines : int; mutable orders_checked : int }

(** {1 Transaction bodies} (exposed for targeted tests) *)

val order_status :
  params -> Dsim.Rng.t -> counters -> int -> Core.Engine.t -> Core.Types.tx -> unit

val delivery : params -> Dsim.Rng.t -> int -> Core.Engine.t -> Core.Types.tx -> unit

val stock_level :
  ?recent:int -> params -> Dsim.Rng.t -> int -> Core.Engine.t -> Core.Types.tx -> unit

(** Build the workload; also returns the anomaly counters. *)
val make : ?params:params -> ?mix:mix -> Store.Placement.t -> Spec.t * counters

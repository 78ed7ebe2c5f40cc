(** The paper's synthetic benchmark (§6.1): zero-think-time transactions
    that read-modify-write local keys and update remote keys, with
    per-partition hotspots whose sizes independently control local and
    remote contention. *)

type params = {
  keys_per_tx : int;
  hot_prob : float;  (** fraction of accesses that hit the hotspot *)
  local_hot : int;  (** hotspot size of the local key range *)
  remote_hot : int;  (** hotspot size of the remote key range *)
  local_space : int;  (** cold local keys *)
  remote_space : int;  (** cold remote keys *)
  remote_access_prob : float;  (** chance one access targets a remote partition *)
  read_remote_keys : bool;
      (** read remote keys before writing them (adds one WAN round trip
          per remote key to the execution phase); default false — blind
          writes — see DESIGN.md §4b *)
  zipf_theta : float option;  (** optional skew inside the hotspot *)
}

val default : params

(** Best case for speculation: local hotspot of one key, remote hotspot
    of 800. *)
val synth_a : params

(** Worst case: local hotspot 10, remote hotspot 3. *)
val synth_b : params

(** Grow transactions while keeping contention constant (Table 1): keys
    per transaction, hotspots and key space all scale by [factor]. *)
val scale_keys : params -> int -> params

val local_key : partition:int -> int -> Store.Keyspace.Key.t

type access = [ `Local of Store.Keyspace.Key.t | `Remote of Store.Keyspace.Key.t ]

(** [accesses params placement rng ~node] draws the accesses of one
    program at [node]: [keys_per_tx] distinct keys, in the order the
    program runs them.  It is the first part of {!make}'s
    [next_program], which then draws the program's stamp. *)
val accesses : params -> Store.Placement.t -> Dsim.Rng.t -> node:int -> access list

val make : ?params:params -> Store.Placement.t -> Spec.t

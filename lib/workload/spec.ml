(** Common interface between benchmark workloads and the harness.

    A workload knows how to populate the data store and how to generate
    the next transaction {e program} for a client attached to a given
    node.  Programs run inside a client fiber and drive the engine's
    transactional API; the harness wraps them with retry-on-abort and
    latency accounting. *)

type program = {
  label : string;  (** transaction type, e.g. "payment" *)
  read_only : bool;
  think_us : int;  (** client think time after this transaction completes *)
  body : Core.Engine.t -> Core.Types.tx -> unit;
}

type t = {
  name : string;
  load : Core.Engine.t -> unit;  (** install the initial dataset *)
  next_program : Dsim.Rng.t -> node:int -> program;
      (** draw the next transaction for a client living on [node] *)
}

(** Read an [Int] value, treating an absent key as [default]. *)
let read_int ?(default = 0) eng tx key =
  match Core.Engine.read eng tx key with
  | Some (Store.Keyspace.Value.Int i) -> i
  | Some _ | None -> default

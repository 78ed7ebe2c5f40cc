(** Execution histories reconstructed from the engine's observer events.

    The checker works on these records: per transaction, the reads it
    performed (with the version creator observed), its write set, and
    its lifecycle timestamps. *)

open Store
module Key = Keyspace.Key

module KeySet = Set.Make (struct
  type t = Key.t

  let compare = Key.compare
end)

type read = {
  key : Key.t;
  writer : Txid.t option;  (** version creator; [None] = key absent *)
  version_ts : int;  (** final timestamp for committed reads, else 0 *)
  speculative : bool;
  start_time : int;  (** when the read was issued *)
  time : int;  (** when the value was observed *)
}

type outcome = Committed of int | Aborted of Core.Types.abort_reason | Unfinished

type tx = {
  id : Txid.t;
  origin : int;
  rs : int;
  begin_time : int;
  mutable reads : read list;  (** reverse chronological order *)
  mutable writes : KeySet.t;
  mutable lc : int option;
  mutable lc_time : int;  (** simulated time of local commit, -1 if none *)
  mutable unsafe : bool;
  mutable outcome : outcome;
  mutable end_time : int;
}

type t = {
  txs : tx Txid.Tbl.t;
  mutable order : Txid.t list;  (** begin order, reversed *)
}

let create () = { txs = Txid.Tbl.create 1024; order = [] }

let find t id = Txid.Tbl.find_opt t.txs id

(** All transactions, in begin order. *)
let transactions t =
  List.rev_map (fun id -> Txid.Tbl.find t.txs id) t.order

let size t = Txid.Tbl.length t.txs

(** Feed one engine event.  Use with [Core.Engine.set_observer]:
    {[ Core.Engine.set_observer eng (History.record h) ]} *)
let record t (ev : Core.Types.event) =
  match ev with
  | Core.Types.Ev_begin { id; origin; rs; time } ->
    Txid.Tbl.replace t.txs id
      {
        id;
        origin;
        rs;
        begin_time = time;
        reads = [];
        writes = KeySet.empty;
        lc = None;
        lc_time = -1;
        unsafe = false;
        outcome = Unfinished;
        end_time = -1;
      };
    t.order <- id :: t.order
  | Core.Types.Ev_read { id; key; writer; version_ts; speculative; start_time; time } ->
    (match Txid.Tbl.find_opt t.txs id with
     | None -> ()
     | Some tx ->
       tx.reads <- { key; writer; version_ts; speculative; start_time; time } :: tx.reads)
  | Core.Types.Ev_write { id; key; _ } ->
    (match Txid.Tbl.find_opt t.txs id with
     | None -> ()
     | Some tx -> tx.writes <- KeySet.add key tx.writes)
  | Core.Types.Ev_local_commit { id; lc; unsafe; time } ->
    (match Txid.Tbl.find_opt t.txs id with
     | None -> ()
     | Some tx ->
       tx.lc <- Some lc;
       tx.lc_time <- time;
       tx.unsafe <- unsafe)
  | Core.Types.Ev_commit { id; ct; time } ->
    (match Txid.Tbl.find_opt t.txs id with
     | None -> ()
     | Some tx ->
       tx.outcome <- Committed ct;
       tx.end_time <- time)
  | Core.Types.Ev_abort { id; reason; time } ->
    (match Txid.Tbl.find_opt t.txs id with
     | None -> ()
     | Some tx ->
       tx.outcome <- Aborted reason;
       tx.end_time <- time)

(** Structural hash of the recorded history, independent of hash-table
    iteration order (transactions are visited sorted by id; a
    transaction's reads are hashed in program order).  Model-checker
    support: two interleavings whose histories hash differently are
    definitely distinct; equal hashes mean convergence with
    overwhelming probability. *)
let fingerprint t =
  let mix h x = (h lxor x) * 0x100000001b3 in
  let mix_str h s =
    let acc = ref h in
    String.iter (fun ch -> acc := mix !acc (Char.code ch)) s;
    !acc
  in
  let mix_txid h (id : Txid.t) = mix (mix h (Txid.origin id)) (Txid.number id) in
  let txs =
    (* Hash order: sorted before hashing. *)
    (Txid.Tbl.fold (fun _ tx acc -> tx :: acc) t.txs [] [@alert "-nondet"])
    |> List.sort (fun a b -> Txid.compare a.id b.id)
  in
  List.fold_left
    (fun h tx ->
      let h = mix_txid h tx.id in
      let h = mix (mix (mix h tx.origin) tx.rs) tx.begin_time in
      let h =
        List.fold_left
          (fun h r ->
            let h = mix_str (mix h (Key.partition r.key)) (Key.name r.key) in
            let h =
              match r.writer with None -> mix h 0 | Some w -> mix_txid h w
            in
            mix (mix (mix h r.version_ts) (if r.speculative then 1 else 0)) r.time)
          h (List.rev tx.reads)
      in
      let h =
        KeySet.fold
          (fun k h -> mix_str (mix h (Key.partition k)) (Key.name k))
          tx.writes h
      in
      let h = mix h (match tx.lc with None -> -1 | Some lc -> lc) in
      let h =
        match tx.outcome with
        | Committed ct -> mix (mix h 1) ct
        | Aborted _ -> mix h 2
        | Unfinished -> mix h 3
      in
      mix (mix h (if tx.unsafe then 1 else 0)) tx.end_time)
    0x811c9dc5 txs

(** Is this the identity used for dataset loading (no real transaction)? *)
let is_initial_writer (w : Txid.t) = Txid.origin w < 0

(** Committed transactions that wrote [key], with their commit
    timestamps, sorted by commit timestamp. *)
let committed_writers t key =
  (* Hash order: the result is sorted below. *)
  (Txid.Tbl.fold
     (fun _ tx acc ->
       match tx.outcome with
       | Committed ct when KeySet.mem key tx.writes -> (tx, ct) :: acc
       | Committed _ | Aborted _ | Unfinished -> acc)
     t.txs [] [@alert "-nondet"])
  |> List.sort (fun (_, a) (_, b) -> compare a b)

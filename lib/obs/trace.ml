(* Span/event recorder.  See the interface for the off-mode and
   determinism contracts.  Storage is a growable array of event
   records: recording appends (amortized O(1)); span handles are plain
   indices into it. *)

type span_kind =
  | S_tx
  | S_read
  | S_olc_wait
  | S_lock_wait
  | S_lock_hold
  | S_local_cert
  | S_repl_wait
  | S_dep_wait
  | S_batch_flush

let span_name = function
  | S_tx -> "tx"
  | S_read -> "read"
  | S_olc_wait -> "olc-wait"
  | S_lock_wait -> "lock-wait"
  | S_lock_hold -> "lock-hold"
  | S_local_cert -> "local-cert"
  | S_repl_wait -> "repl-wait"
  | S_dep_wait -> "dep-wait"
  | S_batch_flush -> "batch-flush"

type instant_kind = I_local_commit | I_spec_commit | I_commit | I_abort

let instant_name = function
  | I_local_commit -> "local-commit"
  | I_spec_commit -> "spec-commit"
  | I_commit -> "commit"
  | I_abort -> "abort"

type msg_kind =
  | M_read_req
  | M_read_reply
  | M_prepare
  | M_prepare_reply
  | M_replicate
  | M_commit
  | M_abort
  | M_status_req
  | M_status_reply
  | M_prepare_batch
  | M_replicate_batch

let msg_kinds =
  [
    M_read_req;
    M_read_reply;
    M_prepare;
    M_prepare_reply;
    M_replicate;
    M_commit;
    M_abort;
    M_status_req;
    M_status_reply;
    M_prepare_batch;
    M_replicate_batch;
  ]

let n_msg_kinds = 11

(* Kinds present in the v1 trace schema; the recovery-protocol kinds
   below are exported only when nonzero so fault-free trace bytes stay
   v1-identical. *)
let v1_msg_kinds = 7

let msg_index = function
  | M_read_req -> 0
  | M_read_reply -> 1
  | M_prepare -> 2
  | M_prepare_reply -> 3
  | M_replicate -> 4
  | M_commit -> 5
  | M_abort -> 6
  | M_status_req -> 7
  | M_status_reply -> 8
  | M_prepare_batch -> 9
  | M_replicate_batch -> 10

let msg_name = function
  | M_read_req -> "read-req"
  | M_read_reply -> "read-reply"
  | M_prepare -> "prepare"
  | M_prepare_reply -> "prepare-reply"
  | M_replicate -> "replicate"
  | M_commit -> "commit"
  | M_abort -> "abort"
  | M_status_req -> "status-req"
  | M_status_reply -> "status-reply"
  | M_prepare_batch -> "prepare-batch"
  | M_replicate_batch -> "replicate-batch"

type ev = {
  kind : [ `Span of span_kind | `Instant of instant_kind ];
  pid : int;
  tid : int;
  t0 : int;
  mutable t1 : int;
  a : int;
  b : int;
  note : string;
}

type t = {
  on : bool;
  base : int;
  mutable evs : ev array;  (** [| |] until the first event *)
  mutable n : int;
  aborts : int array;
  msgs : int array;
  causal : Causal.t;
  mutable tseries : Timeseries.t option;
  mutable procs : (int * string) list;  (** reverse declaration order *)
  mutable thrs : (int * int * string) list;  (** reverse declaration order *)
  mutable sts : (string * int) list;
}

let create ?(pid_base = 0) ?(causal = true) () =
  {
    on = true;
    base = pid_base;
    evs = [||];
    n = 0;
    aborts = Array.make Taxonomy.count 0;
    msgs = Array.make n_msg_kinds 0;
    causal = (if causal then Causal.create () else Causal.disabled ());
    tseries = None;
    procs = [];
    thrs = [];
    sts = [];
  }

let disabled () = { (create ()) with on = false; causal = Causal.disabled () }

let enabled t = t.on
let pid_base t = t.base

(* Thread-identity scheme: 64 tids per node — coordinator, cache, then
   one per replicated partition. *)
let coord_tid node = (node * 64) + 1
let cache_tid node = (node * 64) + 2
let server_tid ~node ~partition = (node * 64) + 3 + partition

let push t ev =
  if Array.length t.evs = 0 then t.evs <- Array.make 1024 ev
  else if t.n = Array.length t.evs then begin
    let bigger = Array.make (2 * t.n) ev in
    Array.blit t.evs 0 bigger 0 t.n;
    t.evs <- bigger
  end;
  t.evs.(t.n) <- ev;
  t.n <- t.n + 1

let span_begin t ~kind ~pid ~tid ~t0 ?(a = min_int) ?(b = min_int) ?(note = "") () =
  if not t.on then -1
  else begin
    let i = t.n in
    push t { kind = `Span kind; pid; tid; t0; t1 = -1; a; b; note };
    i
  end

let span_end t i ~t1 =
  if t.on && i >= 0 then begin
    let ev = t.evs.(i) in
    if ev.t1 < 0 then ev.t1 <- t1
  end

let instant t ~kind ~pid ~tid ~time ?(a = min_int) ?(b = min_int) ?(note = "") () =
  if t.on then
    push t { kind = `Instant kind; pid; tid; t0 = time; t1 = time; a; b; note }

let count_abort t reason =
  if t.on then begin
    let i = Taxonomy.index reason in
    t.aborts.(i) <- t.aborts.(i) + 1
  end

let count_msg t kind =
  if t.on then begin
    let i = msg_index kind in
    t.msgs.(i) <- t.msgs.(i) + 1
  end

let causal t = t.causal

let set_timeseries t ts = if t.on then t.tseries <- Some ts
let timeseries t = t.tseries

let edge t ~kind ?(a = min_int) ?(b = min_int) ~src ~dst ~t_enq ~t_wire ~t_deliver
    ~queue ~cost () =
  if t.on then
    Causal.record t.causal
      {
        Causal.ekind = msg_index kind;
        ea = a;
        eb = b;
        esrc = src;
        edst = dst;
        et_enq = t_enq;
        et_wire = t_wire;
        et_deliver = t_deliver;
        equeue = queue;
        ecost = cost;
      }

let adopt t ~from =
  t.evs <- from.evs;
  t.n <- from.n;
  Array.blit from.aborts 0 t.aborts 0 Taxonomy.count;
  Array.blit from.msgs 0 t.msgs 0 n_msg_kinds;
  Causal.adopt t.causal ~from:from.causal;
  t.tseries <- from.tseries;
  t.procs <- from.procs;
  t.thrs <- from.thrs;
  t.sts <- from.sts

let declare_process t ~pid ~name = if t.on then t.procs <- (pid, name) :: t.procs

let declare_thread t ~pid ~tid ~name = if t.on then t.thrs <- (pid, tid, name) :: t.thrs

let set_stat t name v = if t.on then t.sts <- (name, v) :: List.remove_assoc name t.sts

let close_open_spans t ~t1 =
  for i = 0 to t.n - 1 do
    let ev = t.evs.(i) in
    if ev.t1 < 0 then ev.t1 <- t1
  done

let n_events t = t.n

let iter t f =
  for i = 0 to t.n - 1 do
    f t.evs.(i)
  done

let processes t = List.rev t.procs
let threads t = List.rev t.thrs

(* Counter serialization keeps the v1 byte layout: buckets the v1
   schema knew are always present (zeros included); buckets added with
   the failure/recovery subsystem appear only when they fired, so a
   fault-free trace exports the exact v1 bytes. *)
let abort_counts t =
  List.filter_map
    (fun r ->
      let i = Taxonomy.index r in
      if i < Taxonomy.v1_count || t.aborts.(i) > 0 then Some (Taxonomy.name r, t.aborts.(i))
      else None)
    Taxonomy.all

let msg_counts t =
  List.filter_map
    (fun k ->
      let i = msg_index k in
      if i < v1_msg_kinds || t.msgs.(i) > 0 then Some (msg_name k, t.msgs.(i)) else None)
    msg_kinds

let stats t = List.sort (fun (a, _) (b, _) -> String.compare a b) t.sts

let find_stat t name = List.assoc_opt name t.sts

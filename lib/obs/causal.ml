(* Causal message-edge store.  One record per delivered protocol
   payload, stamped with the emitting transaction's context, so the
   deliveries of a run link into per-transaction causal DAGs.  Storage
   mirrors Trace: a growable array, appends only, one branch when off.

   An edge's four timestamps decompose the payload's life exactly:
   [et_enq, et_wire) is batch-window parking (zero for solo sends),
   [et_wire, et_deliver) is network flight, [et_deliver,
   et_deliver + equeue) is destination-CPU queueing behind earlier
   work, and the [ecost] that follows is the dispatch service time.
   All are simulated-time microseconds, so the store is a pure
   function of (configuration, seed). *)

type edge = {
  ekind : int;  (** [Trace.msg_index] of the payload kind *)
  ea : int;  (** sender transaction identity, [min_int] when none *)
  eb : int;
  esrc : int;
  edst : int;
  et_enq : int;  (** payload handed to the send path *)
  et_wire : int;  (** wire message departs ([= et_enq] unless batched) *)
  et_deliver : int;  (** delivery instant at [edst] *)
  equeue : int;  (** destination CPU backlog at delivery *)
  ecost : int;  (** dispatch CPU cost charged for this payload *)
}

type t = { on : bool; mutable evs : edge array; mutable n : int }

let create () = { on = true; evs = [||]; n = 0 }
let disabled () = { on = false; evs = [||]; n = 0 }

let record t e =
  if t.on then begin
    if Array.length t.evs = 0 then t.evs <- Array.make 1024 e
    else if t.n = Array.length t.evs then begin
      let bigger = Array.make (2 * t.n) e in
      Array.blit t.evs 0 bigger 0 t.n;
      t.evs <- bigger
    end;
    t.evs.(t.n) <- e;
    t.n <- t.n + 1
  end

let adopt t ~from =
  t.evs <- from.evs;
  t.n <- from.n

let n_edges t = t.n

let iter t f =
  for i = 0 to t.n - 1 do
    f t.evs.(i)
  done

(* Binary min-heap over (time, seq) keys.  The heap property is:
   parent key <= child keys, comparing time first and insertion
   sequence second.

   Keys live in parallel unboxed [int] arrays ([times]/[seqs]) with the
   payloads in a parallel array, so a push allocates nothing
   (amortized) — the previous ['a cell option array] boxed every
   element in two heap blocks, which showed up as allocation and
   pointer-chasing in the simulator's innermost loop.

   Each entry additionally carries a packed routing word ([metas]):
   [-1] for internal events, or [(src lsl 20) lor dst] for network
   deliveries.  Carrying the endpoints unboxed in the queue lets the
   run loop apply liveness checks (drop deliveries to/from crashed
   nodes) and pass the destination to the delivery hook, so a pending
   delivery is its payload alone, which a fan-out shares.

   The payload array is created lazily on the first push (using that
   payload as the fill), so no sentinel of type ['a] is ever
   fabricated; a freed slot keeps a reference to an element that is
   still in the heap (or, when the queue drains empty, to the last
   popped payload until the next push overwrites it) — at most one
   payload is retained beyond its lifetime, never a growing set. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable metas : int array;
  mutable payloads : 'a array;  (** [| |] until the first push *)
  mutable size : int;
  mutable next_seq : int;
  (* Lifetime accounting (a few int ops per operation, no branches on
     the pop path): total pushes/pops and the depth high-water mark.
     The observability layer reports these in run summaries. *)
  mutable pushed : int;
  mutable pops : int;
  mutable max_depth : int;
  (* Key of the entry most recently removed by [pop_payload]: read via
     the accessors instead of returning a tuple (the simulator's inner
     loop would otherwise allocate one block per event). *)
  mutable popped_time : int;
  mutable popped_meta : int;
}

let initial_capacity = 64

let no_meta = -1

let pack_meta ~src ~dst =
  if src < 0 then no_meta else (src lsl 20) lor (dst land 0xfffff)

let meta_src m = m lsr 20

let meta_dst m = m land 0xfffff

let create () =
  {
    times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    metas = Array.make initial_capacity no_meta;
    payloads = [||];
    size = 0;
    next_seq = 0;
    pushed = 0;
    pops = 0;
    max_depth = 0;
    popped_time = 0;
    popped_meta = no_meta;
  }

let is_empty q = q.size = 0

let length q = q.size

let grow q =
  let cap = 2 * Array.length q.times in
  let times = Array.make cap 0 in
  Array.blit q.times 0 times 0 q.size;
  q.times <- times;
  let seqs = Array.make cap 0 in
  Array.blit q.seqs 0 seqs 0 q.size;
  q.seqs <- seqs;
  let metas = Array.make cap no_meta in
  Array.blit q.metas 0 metas 0 q.size;
  q.metas <- metas;
  let payloads = Array.make cap q.payloads.(0) in
  Array.blit q.payloads 0 payloads 0 q.size;
  q.payloads <- payloads

let push_full q ~time ~seq ~meta payload =
  if Array.length q.payloads = 0 then
    q.payloads <- Array.make (Array.length q.times) payload
  else if q.size = Array.length q.times then grow q;
  q.pushed <- q.pushed + 1;
  (* Hole-based sift-up: slide larger parents down, write once. *)
  let i = ref q.size in
  q.size <- q.size + 1;
  if q.size > q.max_depth then q.max_depth <- q.size;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = q.times.(p) in
    if time < pt || (time = pt && seq < q.seqs.(p)) then begin
      q.times.(!i) <- pt;
      q.seqs.(!i) <- q.seqs.(p);
      q.metas.(!i) <- q.metas.(p);
      q.payloads.(!i) <- q.payloads.(p);
      i := p
    end
    else continue := false
  done;
  q.times.(!i) <- time;
  q.seqs.(!i) <- seq;
  q.metas.(!i) <- meta;
  q.payloads.(!i) <- payload

let push q ~time payload =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  push_full q ~time ~seq ~meta:no_meta payload

let push_msg q ~time ~src ~dst payload =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  push_full q ~time ~seq ~meta:(pack_meta ~src ~dst) payload

let push_keyed q ~time ~seq ~meta payload = push_full q ~time ~seq ~meta payload

let head_time q = if q.size = 0 then max_int else q.times.(0)

let min_time q = if q.size = 0 then None else Some q.times.(0)

(** [(time, seq)] of the earliest event, if any.  The sequence number is
    the queue-local insertion counter, so it is deterministic across
    replayed runs — the model checker uses it as a stable event
    identity. *)
let peek_key q = if q.size = 0 then None else Some (q.times.(0), q.seqs.(0))

let fold_keys f q acc =
  let acc = ref acc in
  for i = 0 to q.size - 1 do
    acc := f (q.times.(i), q.seqs.(i)) !acc
  done;
  !acc

(* Ascending (time, seq) order, independent of the heap's internal
   layout: sort an index permutation rather than the heap itself (the
   queue must stay untouched — fingerprinting happens mid-run). *)
let fold_keys_sorted f q acc =
  let n = q.size in
  if n = 0 then acc
  else begin
    let idx = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = compare (q.times.(a) : int) q.times.(b) in
        if c <> 0 then c else compare (q.seqs.(a) : int) q.seqs.(b))
      idx;
    let acc = ref acc in
    for i = 0 to n - 1 do
      let j = idx.(i) in
      acc := f q.times.(j) q.seqs.(j) !acc
    done;
    !acc
  end

let pop_payload q =
  if q.size = 0 then raise Not_found;
  let payload = q.payloads.(0) in
  q.popped_time <- q.times.(0);
  q.popped_meta <- q.metas.(0);
  let n = q.size - 1 in
  q.size <- n;
  q.pops <- q.pops + 1;
  if n > 0 then begin
    (* Move the last element into the root hole and sift it down. *)
    let mt = q.times.(n) and ms = q.seqs.(n) in
    let mm = q.metas.(n) and mp = q.payloads.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (q.times.(r) < q.times.(l)
                || (q.times.(r) = q.times.(l) && q.seqs.(r) < q.seqs.(l)))
          then r
          else l
        in
        if q.times.(c) < mt || (q.times.(c) = mt && q.seqs.(c) < ms) then begin
          q.times.(!i) <- q.times.(c);
          q.seqs.(!i) <- q.seqs.(c);
          q.metas.(!i) <- q.metas.(c);
          q.payloads.(!i) <- q.payloads.(c);
          i := c
        end
        else continue := false
      end
    done;
    q.times.(!i) <- mt;
    q.seqs.(!i) <- ms;
    q.metas.(!i) <- mm;
    q.payloads.(!i) <- mp
  end;
  payload

let pop q =
  let payload = pop_payload q in
  (q.popped_time, payload)

let popped_time q = q.popped_time

let popped_src q = if q.popped_meta < 0 then -1 else meta_src q.popped_meta

let popped_dst q = if q.popped_meta < 0 then -1 else meta_dst q.popped_meta

let popped_meta q = q.popped_meta

let pushes q = q.pushed

let pops q = q.pops

let max_depth q = q.max_depth

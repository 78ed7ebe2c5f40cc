(* Hierarchical timer wheel: 4 levels x 1024 slots, level-0 granularity
   1 microsecond, so level k spans deltas in [2^(10k), 2^(10(k+1))) and
   the wheel as a whole covers ~2^40 us (= 12.7 simulated days) ahead
   of [base].  Events outside that range — far timers, or events pushed
   behind [base] after a peek advanced it — park in a binary-heap
   [outside] queue and are merged at pop by key comparison.

   The contract is exact heap equivalence: pops come out in ascending
   [(time, seq)] order where [seq] numbers every push from one global
   counter, so same-time events fire in FIFO push order exactly as
   [Event_queue] fires them.  Replay, trace fingerprints and the model
   checker can therefore treat the two structures as interchangeable.

   Placement: an event with [delta = time - base] goes to level [k]
   (the smallest with [delta < 2^(10(k+1))]) at slot [(time lsr 10k)
   land 1023].  Two invariants make pop order exact without ever
   sorting whole levels:

   - {e Window locality.}  A level-k slot holds events of at most one
     level-k window at a time.  A push can land in the {e next} window
     of its level (delta crosses the window boundary), but then its
     slot index is strictly below the index [base] currently points
     at — both indexes are the low bits of nearby times — so the slot
     was already drained for the current window and is not revisited
     before the next window reaches it.

   - {e Single timestamp per level-0 slot.}  Within a window, level-0
     slot [i] holds exactly the time [window_start + i].  Draining a
     slot therefore only needs a sort by [seq], and because the global
     counter is monotone, events appended {e while} the slot is being
     consumed (delay-0 fiber wakeups) always sort after the remaining
     ones — the sorted suffix stays sorted.

   Advancing [base] across a window boundary cascades the next
   higher-level slot down (its events re-place at strictly lower
   levels).  Empty stretches are skipped a whole level-window at a
   time by scanning the per-level occupancy counters, so a sparse
   far-future queue does not tick through empty slots.

   Like [Event_queue], drained slots may retain references to a few
   already-popped payloads until the slot is next written — bounded
   retention, never a growing set. *)

let bits = 10
let slots = 1 lsl bits
let mask = slots - 1
let horizon = 1 lsl (4 * bits)

type 'a slot = {
  mutable st : int array;  (* times *)
  mutable ss : int array;  (* seqs *)
  mutable sm : int array;  (* packed routing words *)
  mutable sp : 'a array;   (* payloads; [| |] until first append *)
  mutable len : int;
}

type 'a t = {
  levels : 'a slot array array;  (* 4 x 1024 *)
  mutable base : int;
      (** every event stored in a slot has [time >= base] *)
  mutable wheel_size : int;  (** events in slots (excludes [outside]) *)
  counts : int array;  (** per-level event counts *)
  outside : 'a Event_queue.t;
  mutable next_seq : int;  (** global push counter, shared with [outside] *)
  mutable cur_slot : int;  (** level-0 slot being consumed, or -1 *)
  mutable cur_ptr : int;  (** next unconsumed entry in [cur_slot] *)
  mutable pushed : int;
  mutable popped : int;
  mutable max_depth : int;
  mutable popped_time : int;
  mutable popped_meta : int;
}

let new_slot () = { st = [||]; ss = [||]; sm = [||]; sp = [||]; len = 0 }

let create () =
  {
    levels = Array.init 4 (fun _ -> Array.init slots (fun _ -> new_slot ()));
    base = 0;
    wheel_size = 0;
    counts = Array.make 4 0;
    outside = Event_queue.create ();
    next_seq = 0;
    cur_slot = -1;
    cur_ptr = 0;
    pushed = 0;
    popped = 0;
    max_depth = 0;
    popped_time = 0;
    popped_meta = -1;
  }

let length w = w.wheel_size + Event_queue.length w.outside

let is_empty w = length w = 0

let append s time seq meta payload =
  let cap = Array.length s.st in
  if s.len = cap then begin
    let cap' = if cap = 0 then 4 else 2 * cap in
    let st = Array.make cap' 0 in
    Array.blit s.st 0 st 0 s.len;
    s.st <- st;
    let ss = Array.make cap' 0 in
    Array.blit s.ss 0 ss 0 s.len;
    s.ss <- ss;
    let sm = Array.make cap' (-1) in
    Array.blit s.sm 0 sm 0 s.len;
    s.sm <- sm;
    let sp = Array.make cap' payload in
    Array.blit s.sp 0 sp 0 s.len;
    s.sp <- sp
  end
  else if Array.length s.sp = 0 then s.sp <- Array.make cap payload;
  s.st.(s.len) <- time;
  s.ss.(s.len) <- seq;
  s.sm.(s.len) <- meta;
  s.sp.(s.len) <- payload;
  s.len <- s.len + 1

let place w ~time ~seq ~meta payload =
  let delta = time - w.base in
  if delta < 0 || delta >= horizon then
    Event_queue.push_keyed w.outside ~time ~seq ~meta payload
  else begin
    let level =
      if delta < 1 lsl bits then 0
      else if delta < 1 lsl (2 * bits) then 1
      else if delta < 1 lsl (3 * bits) then 2
      else 3
    in
    append w.levels.(level).((time lsr (bits * level)) land mask) time seq meta
      payload;
    w.counts.(level) <- w.counts.(level) + 1;
    w.wheel_size <- w.wheel_size + 1
  end

let push_full w ~time ~meta payload =
  let seq = w.next_seq in
  w.next_seq <- seq + 1;
  w.pushed <- w.pushed + 1;
  place w ~time ~seq ~meta payload;
  let d = length w in
  if d > w.max_depth then w.max_depth <- d

let push w ~time payload = push_full w ~time ~meta:(-1) payload

let push_msg w ~time ~src ~dst payload =
  push_full w ~time ~meta:(Event_queue.pack_meta ~src ~dst) payload

(* Drain a higher-level slot back through [place]; every event lands at
   a strictly lower level because the slot's window starts at the new
   [base] and spans less than the slot's own level range. *)
let cascade w level idx =
  let s = w.levels.(level).(idx) in
  let n = s.len in
  if n > 0 then begin
    s.len <- 0;
    w.counts.(level) <- w.counts.(level) - n;
    w.wheel_size <- w.wheel_size - n;
    for i = 0 to n - 1 do
      place w ~time:s.st.(i) ~seq:s.ss.(i) ~meta:s.sm.(i) s.sp.(i)
    done
  end

(* Move [base] to [target] (a level-0 window start) and cascade the
   slots whose windows begin there, highest level first. *)
let advance_to w target =
  w.base <- target;
  let i1 = (target lsr bits) land mask in
  let i2 = (target lsr (2 * bits)) land mask in
  if i1 = 0 then begin
    if i2 = 0 then cascade w 3 ((target lsr (3 * bits)) land mask);
    cascade w 2 i2
  end;
  cascade w 1 i1

let scan_level w level from_ =
  let arr = w.levels.(level) in
  let i = ref from_ and hit = ref (-1) in
  while !hit < 0 && !i < slots do
    if arr.(!i).len > 0 then hit := !i else incr i
  done;
  !hit

(* The current level-0 window is exhausted; advance [base] to the next
   window that can hold events, skipping empty stretches a whole
   level-window at a time.  Precondition: [wheel_size > 0]. *)
let advance w =
  let b = w.base in
  if w.counts.(0) > 0 then
    (* remaining level-0 events sit in the immediately-next window
       (window locality), so step one window. *)
    advance_to w ((b lor mask) + 1)
  else if w.counts.(1) > 0 then begin
    let s = scan_level w 1 (((b lsr bits) land mask) + 1) in
    if s >= 0 then advance_to w (((b lsr (2 * bits)) lsl (2 * bits)) lor (s lsl bits))
    else advance_to w ((b lor ((1 lsl (2 * bits)) - 1)) + 1)
  end
  else if w.counts.(2) > 0 then begin
    let s = scan_level w 2 (((b lsr (2 * bits)) land mask) + 1) in
    if s >= 0 then
      advance_to w (((b lsr (3 * bits)) lsl (3 * bits)) lor (s lsl (2 * bits)))
    else advance_to w ((b lor ((1 lsl (3 * bits)) - 1)) + 1)
  end
  else begin
    let s = scan_level w 3 (((b lsr (3 * bits)) land mask) + 1) in
    if s >= 0 then
      advance_to w (((b lsr (4 * bits)) lsl (4 * bits)) lor (s lsl (3 * bits)))
    else advance_to w (((b lsr (4 * bits)) + 1) lsl (4 * bits))
  end

(* Insertion sort by [seq] over the slot's parallel arrays.  Buckets
   are one timestamp's events: direct pushes arrive already in [seq]
   order and cascades splice in short sorted runs, so the input is
   nearly sorted and insertion sort is effectively linear. *)
let sort_bucket s =
  for i = 1 to s.len - 1 do
    let t = s.st.(i) and q = s.ss.(i) in
    let m = s.sm.(i) and p = s.sp.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && s.ss.(!j) > q do
      s.st.(!j + 1) <- s.st.(!j);
      s.ss.(!j + 1) <- s.ss.(!j);
      s.sm.(!j + 1) <- s.sm.(!j);
      s.sp.(!j + 1) <- s.sp.(!j);
      decr j
    done;
    s.st.(!j + 1) <- t;
    s.ss.(!j + 1) <- q;
    s.sm.(!j + 1) <- m;
    s.sp.(!j + 1) <- p
  done

(* Position the consumption cursor on the earliest wheel event (not
   [outside]), advancing [base] as far as needed.  Returns [false] iff
   no event is stored in the slots. *)
let settle w =
  if w.cur_slot >= 0 && w.cur_ptr < w.levels.(0).(w.cur_slot).len then true
  else begin
    if w.cur_slot >= 0 then begin
      w.levels.(0).(w.cur_slot).len <- 0;
      w.cur_slot <- -1;
      w.cur_ptr <- 0
    end;
    if w.wheel_size = 0 then false
    else begin
      let found = ref false in
      while not !found do
        let idx =
          if w.counts.(0) > 0 then scan_level w 0 (w.base land mask) else -1
        in
        if idx >= 0 then begin
          w.base <- (w.base land lnot mask) lor idx;
          sort_bucket w.levels.(0).(idx);
          w.cur_slot <- idx;
          w.cur_ptr <- 0;
          found := true
        end
        else advance w
      done;
      true
    end
  end

let head_time w =
  let tw = if settle w then w.levels.(0).(w.cur_slot).st.(w.cur_ptr) else max_int in
  let to_ = Event_queue.head_time w.outside in
  if tw <= to_ then tw else to_

let min_time w = if is_empty w then None else Some (head_time w)

let peek_key w =
  let wh =
    if settle w then begin
      let s = w.levels.(0).(w.cur_slot) in
      Some (s.st.(w.cur_ptr), s.ss.(w.cur_ptr))
    end
    else None
  in
  match wh, Event_queue.peek_key w.outside with
  | None, o -> o
  | w_, None -> w_
  | Some (tw, sw), Some (to_, so) ->
    if tw < to_ || (tw = to_ && sw < so) then wh
    else Some (to_, so)

let take_wheel w =
  let s = w.levels.(0).(w.cur_slot) in
  let i = w.cur_ptr in
  w.cur_ptr <- i + 1;
  w.wheel_size <- w.wheel_size - 1;
  w.counts.(0) <- w.counts.(0) - 1;
  w.popped <- w.popped + 1;
  w.popped_time <- s.st.(i);
  w.popped_meta <- s.sm.(i);
  s.sp.(i)

let take_outside w =
  let p = Event_queue.pop_payload w.outside in
  w.popped <- w.popped + 1;
  w.popped_time <- Event_queue.popped_time w.outside;
  w.popped_meta <- Event_queue.popped_meta w.outside;
  p

(* Allocation-free unless both the slots and [outside] hold events, the
   rare case where the two heads are compared by full key. *)
let pop_payload w =
  let in_wheel = settle w in
  if Event_queue.is_empty w.outside then
    if in_wheel then take_wheel w else raise Not_found
  else if not in_wheel then take_outside w
  else begin
    let s = w.levels.(0).(w.cur_slot) in
    let tw = s.st.(w.cur_ptr) and sw = s.ss.(w.cur_ptr) in
    match Event_queue.peek_key w.outside with
    | Some (to_, so) when to_ < tw || (to_ = tw && so < sw) -> take_outside w
    | Some _ | None -> take_wheel w
  end

let pop w =
  let p = pop_payload w in
  (w.popped_time, p)

let popped_time w = w.popped_time

let popped_src w =
  if w.popped_meta < 0 then -1 else Event_queue.meta_src w.popped_meta

let popped_dst w =
  if w.popped_meta < 0 then -1 else Event_queue.meta_dst w.popped_meta

let fold_keys_sorted f w acc =
  let n = length w in
  if n = 0 then acc
  else begin
    let ts = Array.make n 0 and qs = Array.make n 0 in
    let k = ref 0 in
    let add t q =
      ts.(!k) <- t;
      qs.(!k) <- q;
      incr k
    in
    for level = 0 to 3 do
      let arr = w.levels.(level) in
      for i = 0 to slots - 1 do
        let s = arr.(i) in
        let from_ = if level = 0 && i = w.cur_slot then w.cur_ptr else 0 in
        for j = from_ to s.len - 1 do
          add s.st.(j) s.ss.(j)
        done
      done
    done;
    let (_ : unit) =
      Event_queue.fold_keys (fun (t, q) () -> add t q) w.outside ()
    in
    let idx = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = compare (ts.(a) : int) ts.(b) in
        if c <> 0 then c else compare (qs.(a) : int) qs.(b))
      idx;
    let acc = ref acc in
    for i = 0 to n - 1 do
      let j = idx.(i) in
      acc := f ts.(j) qs.(j) !acc
    done;
    !acc
  end

let pushes w = w.pushed

let pops w = w.popped

let max_depth w = w.max_depth

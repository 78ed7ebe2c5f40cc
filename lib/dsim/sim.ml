(* The engine runs in one of three modes:

   - [Heap] (default): a single priority queue; events fire in strict
     (time, insertion) order.  This is the mode every benchmark and test
     harness uses, and its behaviour is unchanged.

   - [Wheel]: the same strict (time, insertion) order served from a
     hierarchical timer wheel ([Dsim.Wheel]) instead of the binary
     heap — O(1) amortized for the near-horizon bulk of arrival /
     think-time / timeout events, selected per simulator at creation
     ([create ~queue:`Wheel ()]).  The two structures are
     pop-for-pop identical, so everything downstream (replay, traces,
     fingerprints) is unaffected by the choice.

   - [Controlled]: events are split into {e lanes} — one [Internal] lane
     for timers, CPU completions and fiber wakeups, plus one lane per
     directed network channel — and an external {e chooser} picks which
     lane's head event fires next.  Within a lane, order stays FIFO by
     (time, seq), so per-channel FIFO delivery and the determinism of
     local processing are preserved, while the chooser is free to
     reorder deliveries {e across} channels (equivalently: to assign
     each message an arbitrary finite latency).  Firing an event whose
     timestamp lies behind the current instant advances nothing; firing
     one from the future advances [now] to it.  Simulated time therefore
     never regresses, and every monotone-clock guarantee holds in all
     modes.  This is the hook the bounded model checker in [lib/check]
     drives.

   A network delivery is one queue entry: its endpoints sit unboxed in
   the entry's routing word, and its payload is immutable data of the
   extensible type [msg].  The run loop consults a per-sim {e delivery
   gate} (drop deliveries to/from crashed nodes) and then hands the
   payload to a per-sim {e delivery hook}, which the protocol engine
   installs once and which runs the handler chosen by the payload's
   constructor.  A pending protocol message therefore holds no closure; a
   fan-out pushes one payload to many destinations.

   Internal events come in three private entry kinds:
   - [Resume (k, v)] continues a suspended fiber with [v]: the entry a
     filled ivar pushes for each fiber parked on it ({!resume}), and an
     await on a full ivar pushes at once;
   - [Wake k] is a fiber's timer ({!wake_at}: [Fiber.sleep] and a
     coordinator's CPU charge).  When it fires it pushes [Resume (k, ())]
     at that instant, so a wake-up takes two hops, the timer then the
     resume, and the fiber runs behind everything already queued for
     that instant: the pop order every golden and model-checker count
     pins;
   - [Run f] runs a closure: plain timers, non-fiber CPU completions,
     fault actions and the closure deliveries of [schedule_msg].
   A suspended fiber therefore waits as its continuation in one small
   block, with no closure. *)

(* [Fault] is declared after [Internal] so the runtime representation of
   pre-existing values (Internal = 0, Chan = the only block) is
   unchanged — fingerprints of fault-free controlled runs hash the same
   bytes as before the lane existed. *)
type tag = Internal | Fault | Chan of { src : int; dst : int }

let compare_tag a b =
  match a, b with
  | Internal, Internal -> 0
  | Internal, _ -> -1
  | _, Internal -> 1
  | Fault, Fault -> 0
  | Fault, _ -> -1
  | _, Fault -> 1
  | Chan a, Chan b -> (
    match compare (a.src : int) b.src with 0 -> compare (a.dst : int) b.dst | c -> c)

let pp_tag ppf = function
  | Internal -> Format.pp_print_string ppf "internal"
  | Fault -> Format.pp_print_string ppf "fault"
  | Chan { src; dst } -> Format.fprintf ppf "chan %d->%d" src dst

type candidate = { tag : tag; time : int; seq : int }

type msg = ..

(* The entries that are not payloads: every internal event and every
   closure delivery ([schedule_msg]).  Private to this module, so a
   payload the hook receives is never one. *)
type msg +=
  | Run of (unit -> unit)
  | Resume : ('a, unit) Effect.Deep.continuation * 'a -> msg
  | Wake of (unit, unit) Effect.Deep.continuation

type lane = { ltag : tag; events : msg Event_queue.t }

type controlled = {
  mutable lanes : lane list;  (** sorted by [ltag]; lanes are never removed *)
  chooser : candidate array -> int;
}

type mode =
  | Heap of msg Event_queue.t
  | Wheel of msg Wheel.t
  | Controlled of controlled

(* Shared defaults so [create] allocates no closure; replaced by
   [set_delivery_gate] / [set_delivery_hook]. *)
let gate_open ~src:_ ~dst:_ = true

let no_hook ~src:_ ~dst:_ (_ : msg) =
  invalid_arg "Sim.run: a payload delivery with no delivery hook installed"

type t = {
  mutable now : int;
  mutable mode : mode;
  mutable gate : src:int -> dst:int -> bool;
  mutable hook : src:int -> dst:int -> msg -> unit;
  mutable live_fibers : int;  (** spawned minus finished, kept by [Fiber] *)
  mutable fiber_handler : (unit, unit) Effect.Deep.handler option;
      (** what [Fiber] runs its fibers under, built on the first spawn *)
}

let create ?(queue = `Heap) () =
  let mode =
    match queue with
    | `Heap -> Heap (Event_queue.create ())
    | `Wheel -> Wheel (Wheel.create ())
  in
  { now = 0; mode; gate = gate_open; hook = no_hook; live_fibers = 0; fiber_handler = None }

let set_delivery_gate t gate = t.gate <- gate
let set_delivery_hook t hook = t.hook <- hook

let live_fibers t = t.live_fibers
let fiber_spawned t = t.live_fibers <- t.live_fibers + 1
let fiber_finished t = t.live_fibers <- t.live_fibers - 1

let fiber_handler t make =
  match t.fiber_handler with
  | Some h -> h
  | None ->
    let h = make t in
    t.fiber_handler <- Some h;
    h

let now t = t.now

let pending t =
  match t.mode with
  | Heap q -> Event_queue.length q
  | Wheel w -> Wheel.length w
  | Controlled c ->
    List.fold_left (fun acc l -> acc + Event_queue.length l.events) 0 c.lanes

(* Lifetime queue accounting, aggregated over whatever queues back the
   current mode (observability run summaries). *)
let queue_pushes t =
  match t.mode with
  | Heap q -> Event_queue.pushes q
  | Wheel w -> Wheel.pushes w
  | Controlled c ->
    List.fold_left (fun acc l -> acc + Event_queue.pushes l.events) 0 c.lanes

let queue_pops t =
  match t.mode with
  | Heap q -> Event_queue.pops q
  | Wheel w -> Wheel.pops w
  | Controlled c ->
    List.fold_left (fun acc l -> acc + Event_queue.pops l.events) 0 c.lanes

(* In Controlled mode this is the max over lanes, not the global
   high-water mark — good enough for a per-run summary. *)
let queue_max_depth t =
  match t.mode with
  | Heap q -> Event_queue.max_depth q
  | Wheel w -> Wheel.max_depth w
  | Controlled c ->
    List.fold_left (fun acc l -> max acc (Event_queue.max_depth l.events)) 0 c.lanes

let set_chooser t chooser =
  if pending t > 0 then invalid_arg "Sim.set_chooser: events already scheduled";
  t.mode <- Controlled { lanes = []; chooser }

let lane_for c tag =
  let rec find = function
    | l :: _ when compare_tag l.ltag tag = 0 -> Some l
    | l :: rest when compare_tag l.ltag tag < 0 -> find rest
    | _ -> None
  in
  match find c.lanes with
  | Some l -> l
  | None ->
    let l = { ltag = tag; events = Event_queue.create () } in
    let rec insert = function
      | [] -> [ l ]
      | x :: rest when compare_tag x.ltag tag < 0 -> x :: insert rest
      | rest -> l :: rest
    in
    c.lanes <- insert c.lanes;
    l

let push_internal t ~time ev =
  match t.mode with
  | Heap q -> Event_queue.push q ~time ev
  | Wheel w -> Wheel.push w ~time ev
  | Controlled c -> Event_queue.push (lane_for c Internal).events ~time ev

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Sim.schedule: negative delay";
  push_internal t ~time:(t.now + delay) (Run f)

let schedule_at t ~time f =
  push_internal t ~time:(if time < t.now then t.now else time) (Run f)

let resume t k v = push_internal t ~time:t.now (Resume (k, v))

let wake_at t ~time k =
  if time < t.now then invalid_arg "Sim.wake_at: time in the past";
  push_internal t ~time (Wake k)

(** Schedule a planned fault action.  Identical to {!schedule_at} in the
    single-queue modes; in controlled mode the event goes to the
    dedicated [Fault] lane, so the chooser can place each action at any
    point relative to deliveries {e and} to internal events (fiber
    wakeups, timers) — crash points become first-class transitions
    instead of riding the Internal FIFO.  Within the lane, plan order is
    preserved. *)
let schedule_fault t ~time f =
  let time = if time < t.now then t.now else time in
  match t.mode with
  | Heap q -> Event_queue.push q ~time (Run f)
  | Wheel w -> Wheel.push w ~time (Run f)
  | Controlled c -> Event_queue.push (lane_for c Fault).events ~time (Run f)

(** Schedule a network delivery on channel [src -> dst].  In single-
    queue modes the entry's routing word records the endpoints the
    delivery gate checks and the hook receives; in [Controlled] mode
    the event goes to the channel's own lane, where the chooser may
    defer it behind events of other lanes (but never behind later
    messages of the same channel). *)
let schedule_delivery t ~time ~src ~dst m =
  if src < 0 || dst < 0 then invalid_arg "Sim.schedule_delivery: negative endpoint";
  let time = if time < t.now then t.now else time in
  match t.mode with
  | Heap q -> Event_queue.push_msg q ~time ~src ~dst m
  | Wheel w -> Wheel.push_msg w ~time ~src ~dst m
  | Controlled c ->
    Event_queue.push_msg (lane_for c (Chan { src; dst })).events ~time ~src ~dst m

let schedule_msg t ~time ~src ~dst f = schedule_delivery t ~time ~src ~dst (Run f)

(* FNV-1a over the sorted key stream: a sequential mix is fine because
   every backing structure now offers the same ascending (time, seq)
   enumeration, so the hash is independent of heap/wheel internals. *)
let fnv_offset = 0x3bf29ce484222325
let fnv_prime = 0x100000001b3

let fnv h x = (h lxor x) * fnv_prime

(** Hash of the pending-event multiset, as the sorted [(time, seq)] key
    stream ([Controlled]: per lane, in lane order, mixed with the lane
    tag; payloads are not hashed — determinism makes them a function
    of the schedule anyway).  Part of the model checker's
    state fingerprint. *)
let pending_fingerprint t =
  let mix_keys acc time seq = fnv (fnv acc time) seq in
  match t.mode with
  | Heap q -> Event_queue.fold_keys_sorted (fun time seq acc -> mix_keys acc time seq) q fnv_offset
  | Wheel w -> Wheel.fold_keys_sorted (fun time seq acc -> mix_keys acc time seq) w fnv_offset
  | Controlled c ->
    List.fold_left
      (fun acc l ->
        if Event_queue.is_empty l.events then acc
        else
          Event_queue.fold_keys_sorted
            (fun time seq acc -> mix_keys acc time seq)
            l.events
            (fnv acc (Hashtbl.hash l.ltag)))
      fnv_offset c.lanes

let candidates c =
  List.filter_map
    (fun l ->
      match Event_queue.peek_key l.events with
      | None -> None
      | Some (time, seq) -> Some ({ tag = l.ltag; time; seq }, l))
    c.lanes

(* Run one popped event: an internal one ([src < 0]) unconditionally,
   a delivery only past the gate — its own code for [Run], the fiber for
   [Resume], the second hop for [Wake], the hook for a payload. *)
let fire t ev ~src ~dst =
  if src < 0 || t.gate ~src ~dst then
    match ev with
    | Run f -> f ()
    | Resume (k, v) -> Effect.Deep.continue k v
    | Wake k -> resume t k ()
    | m -> t.hook ~src ~dst m

let run ?until t =
  let processed = ref 0 in
  let continue = ref true in
  while !continue do
    match t.mode with
    | Heap q -> (
      let time = Event_queue.head_time q in
      if time = max_int && Event_queue.is_empty q then continue := false
      else
        match until with
        | Some limit when time > limit ->
          t.now <- limit;
          continue := false
        | _ ->
          let ev = Event_queue.pop_payload q in
          t.now <- Event_queue.popped_time q;
          incr processed;
          fire t ev ~src:(Event_queue.popped_src q) ~dst:(Event_queue.popped_dst q))
    | Wheel w -> (
      let time = Wheel.head_time w in
      if time = max_int && Wheel.is_empty w then continue := false
      else
        match until with
        | Some limit when time > limit ->
          t.now <- limit;
          continue := false
        | _ ->
          let ev = Wheel.pop_payload w in
          t.now <- Wheel.popped_time w;
          incr processed;
          fire t ev ~src:(Wheel.popped_src w) ~dst:(Wheel.popped_dst w))
    | Controlled c -> (
      match candidates c with
      | [] -> continue := false
      | cands -> (
        let min_t =
          List.fold_left (fun acc (cd, _) -> min acc cd.time) max_int cands
        in
        match until with
        | Some limit when min_t > limit ->
          t.now <- limit;
          continue := false
        | _ ->
          let arr = Array.of_list (List.map fst cands) in
          let idx = if Array.length arr = 1 then 0 else c.chooser arr in
          if idx < 0 || idx >= Array.length arr then
            invalid_arg "Sim.run: chooser returned an out-of-range index";
          let _, lane = List.nth cands idx in
          let ev = Event_queue.pop_payload lane.events in
          let time = Event_queue.popped_time lane.events in
          if time > t.now then t.now <- time;
          incr processed;
          fire t ev ~src:(Event_queue.popped_src lane.events)
            ~dst:(Event_queue.popped_dst lane.events)))
  done;
  !processed

let to_sec x = float_of_int x /. 1_000_000.

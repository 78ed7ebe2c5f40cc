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

   Deliveries scheduled via [schedule_msg] carry their endpoints
   unboxed in the queue entry, and the run loop consults a per-sim
   {e delivery gate} just before invoking them.  The gate is how the
   protocol engine drops messages to/from crashed nodes at delivery
   time without allocating a guard closure around every send. *)

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

type lane = { ltag : tag; events : (unit -> unit) Event_queue.t }

type controlled = {
  mutable lanes : lane list;  (** sorted by [ltag]; lanes are never removed *)
  chooser : candidate array -> int;
}

type mode =
  | Heap of (unit -> unit) Event_queue.t
  | Wheel of (unit -> unit) Wheel.t
  | Controlled of controlled

(* Shared default so [create] allocates no closure; replaced by
   [set_delivery_gate]. *)
let gate_open ~src:_ ~dst:_ = true

type t = {
  mutable now : int;
  mutable mode : mode;
  mutable gate : src:int -> dst:int -> bool;
  mutable live_fibers : int;  (** spawned minus finished, kept by [Fiber] *)
}

let create ?(queue = `Heap) () =
  let mode =
    match queue with
    | `Heap -> Heap (Event_queue.create ())
    | `Wheel -> Wheel (Wheel.create ())
  in
  { now = 0; mode; gate = gate_open; live_fibers = 0 }

let set_delivery_gate t gate = t.gate <- gate

let live_fibers t = t.live_fibers
let fiber_spawned t = t.live_fibers <- t.live_fibers + 1
let fiber_finished t = t.live_fibers <- t.live_fibers - 1

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

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Sim.schedule: negative delay";
  let time = t.now + delay in
  match t.mode with
  | Heap q -> Event_queue.push q ~time f
  | Wheel w -> Wheel.push w ~time f
  | Controlled c -> Event_queue.push (lane_for c Internal).events ~time f

let schedule_at t ~time f =
  let time = if time < t.now then t.now else time in
  match t.mode with
  | Heap q -> Event_queue.push q ~time f
  | Wheel w -> Wheel.push w ~time f
  | Controlled c -> Event_queue.push (lane_for c Internal).events ~time f

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
  | Heap q -> Event_queue.push q ~time f
  | Wheel w -> Wheel.push w ~time f
  | Controlled c -> Event_queue.push (lane_for c Fault).events ~time f

(** Schedule a network delivery on channel [src -> dst].  In single-
    queue modes this is {!schedule_at} plus the endpoint record the
    delivery gate checks; in [Controlled] mode the event goes to the
    channel's own lane, where the chooser may defer it behind events of
    other lanes (but never behind later messages of the same
    channel). *)
let schedule_msg t ~time ~src ~dst f =
  let time = if time < t.now then t.now else time in
  match t.mode with
  | Heap q -> Event_queue.push_msg q ~time ~src ~dst f
  | Wheel w -> Wheel.push_msg w ~time ~src ~dst f
  | Controlled c ->
    Event_queue.push_msg (lane_for c (Chan { src; dst })).events ~time ~src ~dst f

(* FNV-1a over the sorted key stream: a sequential mix is fine because
   every backing structure now offers the same ascending (time, seq)
   enumeration, so the hash is independent of heap/wheel internals. *)
let fnv_offset = 0x3bf29ce484222325
let fnv_prime = 0x100000001b3

let fnv h x = (h lxor x) * fnv_prime

(** Hash of the pending-event multiset, as the sorted [(time, seq)] key
    stream ([Controlled]: per lane, in lane order, mixed with the lane
    tag; payload closures are not hashable — determinism makes them a
    function of the schedule anyway).  Part of the model checker's
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
          let f = Event_queue.pop_payload q in
          t.now <- Event_queue.popped_time q;
          incr processed;
          let src = Event_queue.popped_src q in
          if src < 0 || t.gate ~src ~dst:(Event_queue.popped_dst q) then f ())
    | Wheel w -> (
      let time = Wheel.head_time w in
      if time = max_int && Wheel.is_empty w then continue := false
      else
        match until with
        | Some limit when time > limit ->
          t.now <- limit;
          continue := false
        | _ ->
          let f = Wheel.pop_payload w in
          t.now <- Wheel.popped_time w;
          incr processed;
          let src = Wheel.popped_src w in
          if src < 0 || t.gate ~src ~dst:(Wheel.popped_dst w) then f ())
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
          let f = Event_queue.pop_payload lane.events in
          let time = Event_queue.popped_time lane.events in
          if time > t.now then t.now <- time;
          incr processed;
          let src = Event_queue.popped_src lane.events in
          if src < 0 || t.gate ~src ~dst:(Event_queue.popped_dst lane.events)
          then f ()))
  done;
  !processed

let to_sec x = float_of_int x /. 1_000_000.

type t = {
  sim : Sim.t;
  topology : Topology.t;
  node_dc : int array;
  jitter : float;
  rng : Rng.t;
  mutable messages_sent : int;
  mutable wan_messages : int;
  mutable batches_sent : int;
  mutable fifo_delays : int;
      (** sends whose delivery was pushed back to preserve per-channel
          FIFO order — a cheap congestion signal for trace summaries *)
  last_delivery : int array array;
      (** per (src, dst) channel: last scheduled delivery time; channels
          are FIFO, like the TCP connections of a real deployment *)
}

let loopback_us = 5

let create ~sim ~topology ~node_dc ~jitter ~rng =
  Array.iter
    (fun dc ->
      if dc < 0 || dc >= Topology.size topology then
        invalid_arg "Network.create: node_dc out of range")
    node_dc;
  let n = Array.length node_dc in
  {
    sim;
    topology;
    node_dc;
    jitter;
    rng;
    messages_sent = 0;
    wan_messages = 0;
    batches_sent = 0;
    fifo_delays = 0;
    last_delivery = Array.make_matrix n n 0;
  }

let topology t = t.topology
let node_count t = Array.length t.node_dc
let dc_of_node t i = t.node_dc.(i)

let latency_us t ~src ~dst =
  if src = dst then loopback_us
  else Topology.oneway_us t.topology t.node_dc.(src) t.node_dc.(dst)

(* Count one message on channel [src -> dst] and return its delivery
   time: one latency draw, pushed back behind the channel's last
   delivery. *)
let arrival t ~src ~dst =
  let base = latency_us t ~src ~dst in
  let delay =
    if t.jitter <= 0. then base
    else begin
      let factor = 1. +. (t.jitter *. ((2. *. Rng.float t.rng) -. 1.)) in
      let d = int_of_float (float_of_int base *. factor) in
      if d < 1 then 1 else d
    end
  in
  t.messages_sent <- t.messages_sent + 1;
  if t.node_dc.(src) <> t.node_dc.(dst) then t.wan_messages <- t.wan_messages + 1;
  (* Enforce FIFO delivery per channel: a message never overtakes an
     earlier one on the same (src, dst) pair. *)
  let at = Sim.now t.sim + delay in
  let at =
    if at > t.last_delivery.(src).(dst) then at
    else begin
      t.fifo_delays <- t.fifo_delays + 1;
      t.last_delivery.(src).(dst) + 1
    end
  in
  t.last_delivery.(src).(dst) <- at;
  at

let send_msg t ~src ~dst m =
  Sim.schedule_delivery t.sim ~time:(arrival t ~src ~dst) ~src ~dst m

let send t ~src ~dst f = Sim.schedule_msg t.sim ~time:(arrival t ~src ~dst) ~src ~dst f

(* A coalesced flush is one wire message (one latency draw, one FIFO
   slot) carrying [n] logical payloads; only the counters differ from
   {!send_msg}. *)
let send_coalesced t ~src ~dst ~n m =
  t.batches_sent <- t.batches_sent + 1;
  send_msg t ~src ~dst m;
  (* [send_msg] counted the flush as one message; payloads beyond the
     first ride for free on the wire but keep the logical total
     meaningful. *)
  t.messages_sent <- t.messages_sent + n - 1

let messages_sent t = t.messages_sent
let wan_messages t = t.wan_messages
let batches_sent t = t.batches_sent
let fifo_delays t = t.fifo_delays

let reset_counters t =
  t.messages_sent <- 0;
  t.wan_messages <- 0;
  t.batches_sent <- 0;
  t.fifo_delays <- 0

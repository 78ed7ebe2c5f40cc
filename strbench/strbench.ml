(* strbench: the STR simulator's benchmark.

   Four workloads, each measured two ways:

   - simulator cost (host CPU time and memory: [setup_s], [run_cpu_s],
     [peak_rss_mb]) — noisy, so reported as the median of repeated
     runs;
   - simulated outcome (goodput, attempts per commit, commit latency,
     WAN messages per commit) — a pure function of the seed, so every
     repetition must reproduce it exactly, and it is checked that they
     do.

   A traced run adds the per-layer breakdown (event queue, network,
   engine, partition server/store, workload, observability, runtime):
   counters read from the run, critical-path means from [Obs.Critpath],
   and host ns/op of each layer's own operations replayed in isolation
   from the streams the run recorded.  Every layer is timed from
   outside, through its public functions.

     strbench.exe --workload W --seed N --seconds S --trace 0|1
         one workload; last stdout line is a JSON result
     strbench.exe --seed N [--reps R] [--out FILE]
         all workloads, traced, printed as tables; FILE gets the
         detailed results that --compare reads
     strbench.exe --compare A.json B.json
         verdict per (metric, workload) under BENCHMARK.json's bounds
     strbench.exe --smoke
         every workload at short windows with every correctness check,
         and the emitted names checked against BENCHMARK.json

   Every run executes in a forked child, one at a time, so each reports
   its own peak RSS and starts from a fresh heap. *)

module BJ = Harness.Bench_json
module R = Harness.Runner
module O = Harness.Openloop
module Cp = Obs.Critpath

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type setup = Closed of R.setup | Open of O.setup

type workload = {
  name : string;
  spec : Store.Placement.t -> Workload.Spec.t;
  setup : spec:Workload.Spec.t -> seed:int -> smoke:bool -> setup;
}

let placement () = Store.Placement.ring ~n_nodes:9 ~replication_factor:6 ()

(* Closed loop on the default grid (9 EC2 DCs, rf 6, jitter 0.02):
   2 s warmup, [measure_s] measured; the smoke test shortens both. *)
let closed ~clients ~measure_s ~spec ~seed ~smoke =
  Closed
    {
      (R.default_setup ~workload:spec ~config:(Core.Config.str ())) with
      clients_per_node = clients;
      warmup_us = (if smoke then 300_000 else 2_000_000);
      measure_us = (if smoke then 700_000 else measure_s * 1_000_000);
      seed;
    }

(* Arrival-heavy, contention-light open loop: uniform cold keys keep
   latency near the WAN floor, so host time goes to the event queue,
   fibers, the network and the client pool rather than conflict work. *)
let open_params =
  {
    Workload.Synthetic.default with
    hot_prob = 0.0;
    local_space = 20_000;
    remote_space = 20_000;
    remote_access_prob = 0.1;
  }

let open_loop ~spec ~seed ~smoke =
  Open
    {
      (O.default_setup ~workload:spec ~config:(Core.Config.str ())) with
      clients_per_dc = 111_112 (* 9 DCs -> 1,000,008 clients *);
      arrival = Workload.Arrival.poisson ~rate_per_dc:200.;
      warmup_us = (if smoke then 200_000 else 1_000_000);
      measure_us = (if smoke then 500_000 else 4_000_000);
      seed;
    }

(* Why these four: synth-a is speculation-heavy contention (engine
   conflict work, hot chains); tpcc is write-heavy lock convoys and the
   only heavy set-up; rubis is read-mostly (remote and cache reads);
   open-1m has a million clients and little contention, so host time
   goes to the event queue, fibers, network and client pool. *)
let workloads =
  [
    {
      name = "synth-a";
      spec = (fun pl -> Workload.Synthetic.make ~params:Workload.Synthetic.synth_a pl);
      setup = closed ~clients:10 ~measure_s:20;
    };
    {
      name = "tpcc";
      spec = (fun pl -> fst (Workload.Tpcc.make ~mix:Workload.Tpcc.mix_a pl));
      setup = closed ~clients:60 ~measure_s:20;
    };
    {
      name = "rubis";
      spec = (fun pl -> Workload.Rubis.make pl);
      setup = closed ~clients:450 ~measure_s:60;
    };
    {
      name = "open-1m";
      spec = (fun pl -> Workload.Synthetic.make ~params:open_params pl);
      setup = open_loop;
    };
  ]

let make_setup w ~seed ~smoke = w.setup ~spec:(w.spec (placement ())) ~seed ~smoke

(* ------------------------------------------------------------------ *)
(* Simulated outcome                                                    *)
(* ------------------------------------------------------------------ *)

(* Everything here is deterministic in the seed: two runs of one
   workload and seed must produce equal outcomes, whatever is attached
   (trace, observer) and whichever event queue runs them. *)
type outcome = {
  committed : int;
  dropped : int;  (** open-loop arrivals refused (whole run) *)
  goodput_tps : float;
  latency : Harness.Metrics.summary;  (** first attempt (arrival) to final commit *)
  wan_messages : int;
  stats : Core.Stats.t;  (** counter deltas over the measured window *)
}

let of_closed (r : R.result) =
  {
    committed = r.R.committed;
    dropped = 0;
    goodput_tps = r.R.throughput;
    latency = r.R.final_latency;
    wan_messages = r.R.wan_messages;
    stats = r.R.stats;
  }

let of_open (r : O.result) =
  {
    committed = r.O.completed;
    dropped = r.O.dropped;
    goodput_tps = r.O.throughput;
    latency = r.O.final_latency;
    wan_messages = r.O.wan_messages;
    stats = r.O.stats;
  }

let attempts o = o.stats.Core.Stats.commits + Core.Stats.aborts o.stats
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let describe o =
  Printf.sprintf "committed=%d dropped=%d attempts=%d p50=%dus p99=%dus wan=%d"
    o.committed o.dropped (attempts o) o.latency.Harness.Metrics.p50_us
    o.latency.Harness.Metrics.p99_us o.wan_messages

(* ------------------------------------------------------------------ *)
(* Instrumented open loop                                               *)
(* ------------------------------------------------------------------ *)

(* [Openloop.run] takes neither a trace nor an observer, so the traced
   and checked runs of open-1m go through this transcription of it:
   same construction order and RNG splits, same admission and retry
   rules, with the per-client arrays reduced to a per-DC idle count
   (which client id serves an arrival never reaches the engine).  The
   outcome must equal [Openloop.run]'s exactly; the correctness checks
   compare them. *)
let open_instrumented ?trace ?observer ~queue (s : O.setup) =
  let sim = Dsim.Sim.create ~queue () in
  let dcs = Dsim.Topology.size s.O.topology in
  let rng = Dsim.Rng.create ~seed:s.O.seed in
  let net =
    Dsim.Network.create ~sim ~topology:s.O.topology
      ~node_dc:(Array.init dcs (fun i -> i))
      ~jitter:s.O.jitter ~rng:(Dsim.Rng.split rng)
  in
  let placement =
    Store.Placement.ring ~n_nodes:dcs ~replication_factor:s.O.replication_factor ()
  in
  let eng =
    Core.Engine.create ~sim ~net ~placement ~config:s.O.config ~seed:(Dsim.Rng.next rng)
      ?trace ()
  in
  Option.iter (Core.Engine.set_observer eng) observer;
  s.O.workload.Workload.Spec.load eng;
  let measure_from = s.O.warmup_us and measure_to = s.O.warmup_us + s.O.measure_us in
  let shared = Harness.Client.make_shared ~measure_from ~measure_to in
  let idle = Array.make dcs s.O.clients_per_dc in
  let dropped = ref 0 in
  let execute dc (program : Workload.Spec.program) =
    let t0 = Dsim.Sim.now sim in
    let rec attempt () =
      if Dsim.Sim.now sim >= measure_to || not (Core.Engine.is_alive eng dc) then false
      else begin
        let tx = Core.Engine.begin_tx eng ~origin:dc in
        match
          program.Workload.Spec.body eng tx;
          Core.Engine.commit eng tx
        with
        | _ -> true
        | exception Core.Types.Tx_abort _ -> attempt ()
      end
    in
    if attempt () && Harness.Client.in_window shared (Dsim.Sim.now sim) then
      Harness.Metrics.record shared.Harness.Client.final_latency (Dsim.Sim.now sim - t0);
    idle.(dc) <- idle.(dc) + 1
  in
  for dc = 0 to dcs - 1 do
    let arng = Dsim.Rng.split rng in
    let rec arrive () =
      if Dsim.Sim.now sim < measure_to then begin
        if idle.(dc) > 0 then begin
          idle.(dc) <- idle.(dc) - 1;
          let program = s.O.workload.Workload.Spec.next_program arng ~node:dc in
          Dsim.Fiber.spawn sim (fun () -> execute dc program)
        end
        else incr dropped;
        Dsim.Sim.schedule sim ~delay:(Workload.Arrival.interarrival_us s.O.arrival arng) arrive
      end
    in
    Dsim.Sim.schedule sim ~delay:(Workload.Arrival.interarrival_us s.O.arrival arng) arrive
  done;
  ignore (Dsim.Sim.run ~until:measure_from sim);
  let stats0 = R.snapshot_stats eng in
  Dsim.Network.reset_counters net;
  ignore (Dsim.Sim.run ~until:measure_to sim);
  let stats1 = R.snapshot_stats eng in
  ignore (Dsim.Sim.run ~until:(measure_to + 200_000) sim);
  Option.iter (fun tr -> Obs.Trace.close_open_spans tr ~t1:(Dsim.Sim.now sim)) trace;
  let stats = R.delta_stats ~at_start:stats0 ~at_end:stats1 in
  let outcome =
    {
      committed = stats.Core.Stats.commits;
      dropped = !dropped;
      goodput_tps = float_of_int stats.Core.Stats.commits /. Dsim.Sim.to_sec s.O.measure_us;
      latency = Harness.Metrics.summarize shared.Harness.Client.final_latency;
      wan_messages = Dsim.Network.wan_messages net;
      stats;
    }
  in
  (outcome, sim, net)

(* ------------------------------------------------------------------ *)
(* Forked runs                                                          *)
(* ------------------------------------------------------------------ *)

(* Run [f] in a forked child and return its marshalled result.
   [Harness.Procpool] runs a single cell in the calling process; a
   child of our own gives each run a fresh heap and its own VmHWM. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (result : ('a, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let result =
      try Some (Marshal.from_channel ic : ('a, string) result) with End_of_file -> None
    in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    (match (result, status) with
     | Some (Ok v), Unix.WEXITED 0 -> v
     | Some (Error msg), _ -> failwith ("run failed: " ^ msg)
     | _, Unix.WEXITED c -> failwith (Printf.sprintf "run exited with code %d" c)
     | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
       failwith (Printf.sprintf "run killed by signal %d" s))

let now = Unix.gettimeofday

(* Host time is measured as this process's CPU time (user + system).
   The simulator is single-threaded and never blocks, so that is its
   running time, without the time the machine gave to other work. *)
let cpu = Sys.time

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0.
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
      else scan ()
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

type rep = {
  cpu_s : float;
  rss_mb : float;
  minor_words : float;
  major_collections : int;
  rep_outcome : outcome;
}

(* One untraced run through the library entry point users call. *)
let timed_rep w ~seed ~smoke =
  in_child (fun () ->
      let setup = make_setup w ~seed ~smoke in
      let g0 = Gc.quick_stat () in
      let t0 = cpu () in
      let outcome =
        match setup with Closed s -> of_closed (R.run s) | Open s -> of_open (O.run s)
      in
      let cpu_s = cpu () -. t0 in
      let g1 = Gc.quick_stat () in
      {
        cpu_s;
        rss_mb = peak_rss_mb ();
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        rep_outcome = outcome;
      })

(* Set-up: build the workload, the cluster and the dataset — everything
   before the first simulated event.  Open loop sets up through
   [Openloop.run] with an empty window, which also allocates its client
   pool. *)
let setup_once w ~seed ~smoke =
  let t0 = cpu () in
  (match make_setup w ~seed ~smoke with
   | Closed s ->
     let _, _, _, eng, _ = R.build_cluster s in
     s.R.workload.Workload.Spec.load eng
   | Open s -> ignore (O.run { s with O.warmup_us = 0; measure_us = 0 }));
  cpu () -. t0

(* Repeat set-up until [budget_s] has passed, at least once and at most
   [max_n] times. *)
let setup_samples w ~seed ~smoke ~budget_s ~max_n =
  in_child (fun () ->
      let t_end = now () +. budget_s in
      let rec go acc n =
        if n >= max_n || (n >= 1 && now () > t_end) then List.rev acc
        else go (setup_once w ~seed ~smoke :: acc) (n + 1)
      in
      go [] 0)

(* Checked run: an observer feeds the events of the first
   [checked_txs] transactions to begin into an SPSI history, which the
   checker then validates.  The checker's cost grows faster than
   linearly with the history on contended workloads, hence the bound;
   transactions begun later are left out whole, which the checker
   tolerates (reads from an unrecorded writer are not judged).  open-1m
   runs it on the timer wheel, so its comparison with the heap-backed
   timed runs is also the heap-versus-wheel check.  With [~replay] the
   history's key stream is replayed on one [Mvstore]. *)
type checked = {
  c_outcome : outcome;
  violations : string list;
  history_txs : int;
  store : (float * float * int * int) option;
      (** read ns/op, write ns/op, reads, writes *)
}

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let median3 f = median [ f (); f (); f () ]

let replay_store h =
  let committed =
    List.filter_map
      (fun (tx : Spsi.History.tx) ->
        match tx.Spsi.History.outcome with
        | Spsi.History.Committed ct -> Some (tx, ct)
        | _ -> None)
      (Spsi.History.transactions h)
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  let writes =
    List.concat_map
      (fun ((tx : Spsi.History.tx), ct) ->
        List.map (fun k -> (k, tx.Spsi.History.id, ct))
          (Spsi.History.KeySet.elements tx.Spsi.History.writes))
      committed
    |> Array.of_list
  in
  let reads =
    List.concat_map
      (fun (tx : Spsi.History.tx) ->
        List.map (fun (r : Spsi.History.read) -> (r.Spsi.History.key, tx.Spsi.History.rs))
          tx.Spsi.History.reads)
      (Spsi.History.transactions h)
    |> Array.of_list
  in
  let value = Store.Keyspace.Value.Int 0 in
  (* Prune as a partition server does: every [prune_every_inserts]
     inserts, drop versions older than [prune_horizon_us]. *)
  let config = Core.Config.str () in
  let fill () =
    let st = Store.Mvstore.create () in
    let t0 = cpu () in
    Array.iteri
      (fun i (k, writer, ts) ->
        Store.Mvstore.insert_version st k
          (Store.Version.make ~writer ~state:Store.Version.Committed ~ts ~value);
        if (i + 1) mod config.Core.Config.prune_every_inserts = 0 then
          ignore (Store.Mvstore.prune st ~horizon:(ts - config.Core.Config.prune_horizon_us)))
      writes;
    (st, cpu () -. t0)
  in
  let write_s = median3 (fun () -> snd (fill ())) in
  let st, _ = fill () in
  let read_s =
    median3 (fun () ->
        let t0 = cpu () in
        Array.iter (fun (k, rs) -> ignore (Store.Mvstore.latest_before st k ~rs)) reads;
        cpu () -. t0)
  in
  let per n s = if n = 0 then 0. else s *. 1e9 /. float_of_int n in
  (per (Array.length reads) read_s, per (Array.length writes) write_s,
   Array.length reads, Array.length writes)

let checked_txs = 2_000

let checked_run w ~seed ~smoke ~replay =
  in_child (fun () ->
      let h = Spsi.History.create () in
      let begun = Store.Txid.Tbl.create 1024 in
      let observer ev =
        match ev with
        | Core.Types.Ev_begin { id; _ } ->
          if Store.Txid.Tbl.length begun < checked_txs then begin
            Store.Txid.Tbl.replace begun id ();
            Spsi.History.record h ev
          end
        | Core.Types.Ev_read { id; _ } | Ev_write { id; _ } | Ev_local_commit { id; _ }
        | Ev_commit { id; _ } | Ev_abort { id; _ } ->
          if Store.Txid.Tbl.mem begun id then Spsi.History.record h ev
      in
      let c_outcome =
        match make_setup w ~seed ~smoke with
        | Closed s -> of_closed (R.run ~observer s)
        | Open s ->
          let o, _, _ = open_instrumented ~observer ~queue:`Wheel s in
          o
      in
      let violations =
        List.map
          (fun v -> Format.asprintf "%a" Spsi.Checker.pp_violation v)
          (Spsi.Checker.check_spsi h)
      in
      {
        c_outcome;
        violations;
        history_txs = Spsi.History.size h;
        store = (if replay then Some (replay_store h) else None);
      })

(* ------------------------------------------------------------------ *)
(* Traced run and layer replays                                         *)
(* ------------------------------------------------------------------ *)

type traced = {
  t_outcome : outcome;
  t_cpu_s : float;
  events : int;
  eq_max_depth : int;
  net_messages : int;
  net_wan : int;
  net_fifo : int;
  trace_events : int;
  causal_edges : int;
  critpath_s : float;
  cp_means : (Cp.component * float) list;  (** per committed transaction, sim µs *)
  cp_hidden : float;
  cp_inexact : int;  (** transactions whose components miss their span *)
  tx_spans : int;  (** transaction attempts in the trace *)
  queue_ns : float;
  wheel_ns : float;
  send_ns : float;
  next_program_ns : float;
}

module type QUEUE = sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> time:int -> 'a -> unit
  val pop_payload : 'a t -> 'a
  val min_time : 'a t -> int option
  val is_empty : 'a t -> bool
end

(* Replay the run's message deliveries into a fresh queue: in send
   order, pop every event due by the send time, then push the delivery.
   ns per push or pop. *)
let replay_queue (module Q : QUEUE) sends =
  median3 (fun () ->
      let q = Q.create () in
      let t0 = cpu () in
      Array.iter
        (fun (t_wire, t_deliver) ->
          let rec drain () =
            match Q.min_time q with
            | Some t when t <= t_wire ->
              Q.pop_payload q;
              drain ()
            | Some _ | None -> ()
          in
          drain ();
          Q.push q ~time:t_deliver ())
        sends;
      while not (Q.is_empty q) do
        Q.pop_payload q
      done;
      (cpu () -. t0) *. 1e9 /. float_of_int (2 * max 1 (Array.length sends)))

(* Replay the run's (src, dst) stream through [Network.send]; the
   simulator drains between chunks, outside the timed section. *)
let replay_send pairs =
  let n = Array.length pairs in
  median3 (fun () ->
      let sim = Dsim.Sim.create () in
      let net =
        Dsim.Network.create ~sim ~topology:Dsim.Topology.ec2_nine
          ~node_dc:(Array.init 9 (fun i -> i))
          ~jitter:0.02 ~rng:(Dsim.Rng.create ~seed:1)
      in
      let noop () = () in
      let busy = ref 0. in
      let i = ref 0 in
      while !i < n do
        let hi = min n (!i + 4096) in
        let t0 = cpu () in
        for k = !i to hi - 1 do
          let src, dst = pairs.(k) in
          Dsim.Network.send net ~src ~dst noop
        done;
        busy := !busy +. (cpu () -. t0);
        ignore (Dsim.Sim.run sim);
        i := hi
      done;
      !busy *. 1e9 /. float_of_int (max 1 n))

let replay_next_program w =
  let spec = w.spec (placement ()) in
  let rng = Dsim.Rng.create ~seed:7 in
  let n = 50_000 in
  median3 (fun () ->
      let t0 = cpu () in
      for i = 1 to n do
        ignore (Sys.opaque_identity (spec.Workload.Spec.next_program rng ~node:(i mod 9)))
      done;
      (cpu () -. t0) *. 1e9 /. float_of_int n)

let critical_path trace =
  let t0 = cpu () in
  let txns = Cp.of_trace trace in
  let parts = List.map (fun t -> (t, Cp.decompose t)) txns in
  let critpath_s = cpu () -. t0 in
  let inexact =
    List.length
      (List.filter (fun (t, p) -> Array.fold_left ( + ) 0 p <> Cp.total_us t) parts)
  in
  let commits = List.filter (fun (t, _) -> t.Cp.outcome = `Commit) parts in
  let n = List.length commits in
  let mean f = ratio (List.fold_left (fun acc x -> acc + f x) 0 commits) n in
  let means = List.map (fun c -> (c, mean (fun (_, p) -> p.(Cp.index c)))) Cp.all in
  (critpath_s, means, mean (fun (t, _) -> Cp.hidden_us t), inexact, List.length txns)

let traced_run w ~seed ~smoke =
  in_child (fun () ->
      let trace = Obs.Trace.create () in
      let setup = make_setup w ~seed ~smoke in
      let t0 = cpu () in
      let outcome, events, eq_max_depth, net_messages, net_wan, net_fifo =
        match setup with
        | Closed s ->
          let o = of_closed (R.run ~trace s) in
          let stat k = Option.value ~default:0 (Obs.Trace.find_stat trace k) in
          (o, stat "eq_pops", stat "eq_max_depth", stat "net_messages",
           stat "net_wan_messages", stat "net_fifo_delays")
        | Open s ->
          let o, sim, net = open_instrumented ~trace ~queue:`Heap s in
          (o, Dsim.Sim.queue_pops sim, Dsim.Sim.queue_max_depth sim,
           Dsim.Network.messages_sent net, Dsim.Network.wan_messages net,
           Dsim.Network.fifo_delays net)
      in
      let t_cpu_s = cpu () -. t0 in
      let critpath_s, cp_means, cp_hidden, cp_inexact, tx_spans = critical_path trace in
      let edges = ref [] in
      Obs.Causal.iter (Obs.Trace.causal trace) (fun e -> edges := e :: !edges);
      let edges = Array.of_list (List.rev !edges) in
      let sends = Array.map (fun e -> (e.Obs.Causal.et_wire, e.Obs.Causal.et_deliver)) edges in
      Array.stable_sort (fun (a, _) (b, _) -> compare a b) sends;
      {
        t_outcome = outcome;
        t_cpu_s;
        events;
        eq_max_depth;
        net_messages;
        net_wan;
        net_fifo;
        trace_events = Obs.Trace.n_events trace;
        causal_edges = Array.length edges;
        critpath_s;
        cp_means;
        cp_hidden;
        cp_inexact;
        tx_spans;
        queue_ns = replay_queue (module Dsim.Event_queue) sends;
        wheel_ns = replay_queue (module Dsim.Wheel) sends;
        send_ns =
          replay_send (Array.map (fun e -> (e.Obs.Causal.esrc, e.Obs.Causal.edst)) edges);
        next_program_ns = replay_next_program w;
      })

(* ------------------------------------------------------------------ *)
(* One workload: runs, checks, metrics                                  *)
(* ------------------------------------------------------------------ *)

type budget =
  | Seconds of float  (** time the reps for this long (at least 3) *)
  | Reps of int
  | Smoke  (** one rep at the short windows *)

type probe = { rate : float; p99_ms : float; goodput : float; offered : float }

(* Highest rate on 100..500 tx/s/DC, at 10 tx/s/DC resolution, whose
   p99 is at most 1 s and whose goodput is at least 95% of offered,
   found by bisection (deterministic, so each rate runs once).
   Returns that rate with its probe and the probe of the next rate up
   ([None] when even 100 fails, or 500 passes). *)
let capacity (s : O.setup) =
  let dcs = float_of_int (Dsim.Topology.size s.O.topology) in
  let probe i =
    let rate = 100. +. (10. *. float_of_int i) in
    let o =
      in_child (fun () ->
          of_open (O.run { s with O.arrival = Workload.Arrival.poisson ~rate_per_dc:rate }))
    in
    {
      rate;
      p99_ms = float_of_int o.latency.Harness.Metrics.p99_us /. 1000.;
      goodput = o.goodput_tps;
      offered = dcs *. rate;
    }
  in
  let ok p = p.p99_ms <= 1000. && p.goodput >= 0.95 *. p.offered in
  let first = probe 0 and last = probe 40 in
  if not (ok first) then (None, Some first)
  else if ok last then (Some last, None)
  else
    (* Invariant: rate index [i] meets the limits, [j] misses them. *)
    let rec bisect (i, pi) (j, pj) =
      if j - i <= 1 then (Some pi, Some pj)
      else
        let m = (i + j) / 2 in
        let pm = probe m in
        if ok pm then bisect (m, pm) (j, pj) else bisect (i, pi) (m, pm)
    in
    bisect (0, first) (40, last)

type result = {
  workload : workload;
  failures : string list;
  outcome : outcome;
  reps : rep list;
  setups : float list;  (** set-up samples, s *)
  rf : int;  (** replication factor *)
  checked : checked;
  traced : traced option;
  capacity : (probe option * probe option) option;
}

(* Each timed run is preceded by set-up samples taken in a child of
   their own, so set-up and run time see the machine over the same
   stretch of time. *)
let measure w ~seed ~budget ~trace =
  let smoke = budget = Smoke in
  let t_end = match budget with Seconds s -> now () +. s | Reps _ | Smoke -> 0. in
  let enough n =
    match budget with
    | Seconds _ -> n >= 3 && now () > t_end
    | Reps r -> n >= r
    | Smoke -> n >= 1
  in
  let rec loop setups reps n =
    if enough n then (List.concat (List.rev setups), List.rev reps)
    else
      let s =
        setup_samples w ~seed ~smoke ~budget_s:(if smoke then 0. else 0.1)
          ~max_n:(if smoke then 1 else 25)
      in
      let r = timed_rep w ~seed ~smoke in
      loop (s :: setups) (r :: reps) (n + 1)
  in
  let setups, reps = loop [] [] 0 in
  let checked = checked_run w ~seed ~smoke ~replay:trace in
  let traced = if trace then Some (traced_run w ~seed ~smoke) else None in
  let setup = make_setup w ~seed ~smoke in
  let capacity =
    match setup with
    | Open s when trace && not smoke -> Some (capacity s)
    | Open _ | Closed _ -> None
  in
  let rf =
    match setup with Closed s -> s.R.replication_factor | Open s -> s.O.replication_factor
  in
  let outcome = (List.hd reps).rep_outcome in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iteri
    (fun i r ->
      if r.rep_outcome <> outcome then
        fail "rep %d differs from rep 0: %s vs %s" i (describe r.rep_outcome)
          (describe outcome))
    reps;
  if checked.c_outcome <> outcome then
    fail "checked run (%s) differs from the timed runs: %s vs %s"
      (match setup with
       | Open _ -> "instrumented open loop on the wheel"
       | Closed _ -> "observer attached")
      (describe checked.c_outcome) (describe outcome);
  (match checked.violations with
   | [] -> ()
   | v :: _ ->
     fail "SPSI checker: %d violation(s), first: %s" (List.length checked.violations) v);
  Option.iter
    (fun t ->
      if t.t_outcome <> outcome then
        fail "traced run differs from the timed runs: %s vs %s" (describe t.t_outcome)
          (describe outcome);
      if t.cp_inexact > 0 then
        fail "critical path: %d transaction(s) whose components do not sum to the span"
          t.cp_inexact)
    traced;
  if outcome.committed = 0 then fail "no transaction committed";
  {
    workload = w;
    failures = List.rev !failures;
    outcome;
    reps;
    setups;
    rf;
    checked;
    traced;
    capacity;
  }

(* An end-to-end metric: [exact] ones are deterministic in the seed
   (one value), the others carry every sample. *)
type e2e = { e_name : string; e_unit : string; exact : bool; samples : float list }

let end_to_end r =
  let o = r.outcome in
  let cost name unit samples = { e_name = name; e_unit = unit; exact = false; samples } in
  let sim name unit v = { e_name = name; e_unit = unit; exact = true; samples = [ v ] } in
  [
    cost "setup_s" "s" r.setups;
    cost "run_cpu_s" "s" (List.map (fun p -> p.cpu_s) r.reps);
    cost "peak_rss_mb" "MiB" (List.map (fun p -> p.rss_mb) r.reps);
    sim "sim_goodput_tps" "tx/s" o.goodput_tps;
    sim "sim_attempts_per_commit" "attempts/tx"
      (ratio (attempts o) o.stats.Core.Stats.commits);
    sim "sim_latency_p50_ms" "sim_ms" (float_of_int o.latency.Harness.Metrics.p50_us /. 1000.);
    sim "sim_latency_p99_ms" "sim_ms" (float_of_int o.latency.Harness.Metrics.p99_us /. 1000.);
    sim "wan_msgs_per_commit" "msgs/tx" (ratio o.wan_messages o.committed);
  ]

(* Per-layer metrics, grouped by layer, each group with the end-to-end
   metric it should move.  Needs the traced run. *)
let per_layer r (t : traced) =
  let o = r.outcome and st = r.outcome.stats in
  let run_cpu = median (List.map (fun p -> p.cpu_s) r.reps) in
  let events = float_of_int (max 1 t.events) in
  let ns_per_event = run_cpu *. 1e9 /. events in
  let read_ns, write_ns, n_reads, n_writes =
    Option.value ~default:(0., 0., 0, 0) r.checked.store
  in
  let edges = float_of_int t.causal_edges in
  (* Every event is pushed and popped once; a message's push is inside
     [Network.send], so it is counted with the network.  The store
     replay covers the checked run's first transactions: its operation
     counts are scaled to the traced run's attempts, and every committed
     write is installed at [rf] replicas. *)
  let queue_share = t.queue_ns *. ((2. *. events) -. edges) /. events in
  let net_share = t.send_ns *. edges /. events in
  let store_share =
    ((read_ns *. float_of_int n_reads) +. (write_ns *. float_of_int (r.rf * n_writes)))
    *. ratio t.tx_spans r.checked.history_txs /. events
  in
  let count v = ("count", float_of_int v) in
  let gc_minor = median (List.map (fun p -> p.minor_words) r.reps) in
  let gc_major = median (List.map (fun p -> float_of_int p.major_collections) r.reps) in
  (* Only the components that are nonzero on every workload are metrics;
     the table printed by [print_result] shows all of them. *)
  let cp c = ("cp." ^ String.map (fun ch -> if ch = '-' then '_' else ch) (Cp.name c) ^ "_us",
              ("sim_us", List.assoc c t.cp_means)) in
  [
    ( "Dsim.Sim/Event_queue/Wheel",
      "run_cpu_s on open-1m; no change on synth-a",
      [
        ("dsim.events", count t.events);
        ("dsim.events_per_s", ("1/s", events /. run_cpu));
        ("dsim.eq_max_depth", count t.eq_max_depth);
        ("dsim.queue_ns_per_op", ("ns", t.queue_ns));
        ("dsim.wheel_ns_per_op", ("ns", t.wheel_ns));
      ] );
    ( "Dsim.Network/Cpu",
      "run_cpu_s on all; sim_latency_*, wan_msgs_per_commit",
      [
        ("net.messages", count t.net_messages);
        ("net.wan_messages", count t.net_wan);
        ("net.fifo_delays", count t.net_fifo);
        ("net.send_ns", ("ns", t.send_ns));
        cp Cp.C_network;
        cp Cp.C_queue_wait;
      ] );
    ( "Core.Engine",
      "sim_goodput_tps, sim_attempts_per_commit on synth-a/tpcc",
      [
        ("engine.attempts", count (attempts o));
        ("engine.goodput_ratio", ("ratio", ratio st.Core.Stats.commits (attempts o)));
        ("engine.aborts_local", count st.Core.Stats.aborts_local);
        ("engine.aborts_remote", count st.Core.Stats.aborts_remote);
        ("engine.aborts_dependency", count st.Core.Stats.aborts_dependency);
        ("engine.aborts_stale", count st.Core.Stats.aborts_stale_snapshot);
        ("engine.aborts_evicted", count st.Core.Stats.aborts_evicted);
        ("engine.spec_reads", count st.Core.Stats.spec_reads);
        ("engine.olc_blocks", count st.Core.Stats.olc_blocks);
        cp Cp.C_coord_cpu;
        cp Cp.C_dep_wait;
        cp Cp.C_olc_wait;
      ] );
    ( "Core.Partition_server/Store",
      "sim_latency_p99_ms on tpcc/rubis; run_cpu_s on synth-a",
      [
        ("server.blocked_reads", count st.Core.Stats.server_blocks);
        ("server.reads", count st.Core.Stats.reads);
        ("server.remote_reads", count st.Core.Stats.remote_reads);
        ("server.cache_reads", count st.Core.Stats.cache_reads);
        ("store.read_ns", ("ns", read_ns));
        ("store.write_ns", ("ns", write_ns));
      ] );
    ( "Workload",
      "run_cpu_s on synth-a and open-1m, a small share",
      [
        ("workload.next_program_ns", ("ns", t.next_program_ns));
      ] );
    ( "Obs",
      "no untraced metric (the cost of tracing)",
      [
        ("obs.trace_overhead", ("ratio", t.t_cpu_s /. run_cpu));
        ("obs.trace_events", count t.trace_events);
        ("obs.causal_edges", count t.causal_edges);
        ("obs.critpath_s", ("s", t.critpath_s));
      ] );
    ( "runtime/Harness",
      "run_cpu_s, peak_rss_mb",
      [
        ("gc.minor_words_per_event", ("words/event", gc_minor /. events));
        ("gc.major_collections", ("count", gc_major));
        ("harness.latency_samples", count o.latency.Harness.Metrics.count);
        ("layers.ns_per_event", ("ns", ns_per_event));
        ("layers.queue_ns_per_event", ("ns", queue_share));
        ("layers.net_ns_per_event", ("ns", net_share));
        ("layers.store_ns_per_event", ("ns", store_share));
        ( "layers.unattributed_ns_per_event",
          ("ns", ns_per_event -. queue_share -. net_share -. store_share) );
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Reports                                                              *)
(* ------------------------------------------------------------------ *)

(* Python's statistics.quantiles(xs, n=4) (exclusive method), so the
   spreads printed here match the ones computed from result files. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 0 then (0., 0.)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let print_result r =
  let w = r.workload in
  Printf.printf "== %s: %d timed run(s), %d set-up sample(s) ==\n" w.name
    (List.length r.reps) (List.length r.setups);
  Printf.printf "  %-26s %14s %14s %14s  %s\n" "end-to-end" "median" "q1" "q3" "unit";
  List.iter
    (fun e ->
      let q1, q3 = quartiles e.samples in
      if e.exact then
        Printf.printf "  %-26s %14.4f %14s %14s  %s (exact)\n" e.e_name (median e.samples)
          "" "" e.e_unit
      else
        Printf.printf "  %-26s %14.4f %14.4f %14.4f  %s\n" e.e_name (median e.samples) q1 q3
          e.e_unit)
    (end_to_end r);
  Printf.printf "  outcome: %s (%d latency samples)\n" (describe r.outcome)
    r.outcome.latency.Harness.Metrics.count;
  Printf.printf "  checked run: %d transactions, SPSI %s\n" r.checked.history_txs
    (if r.checked.violations = [] then "clean" else "VIOLATED");
  Option.iter
    (fun t ->
      List.iter
        (fun (layer, moves, ms) ->
          Printf.printf "  -- %s (should move: %s)\n" layer moves;
          List.iter (fun (n, (u, v)) -> Printf.printf "     %-36s %16.4f  %s\n" n v u) ms)
        (per_layer r t);
      Printf.printf "  critical path, mean sim us per committed transaction:";
      List.iter (fun (c, v) -> Printf.printf " %s %.1f" (Cp.name c) v) t.cp_means;
      Printf.printf "; hidden by speculation %.1f\n" t.cp_hidden;
      let get n =
        List.concat_map (fun (_, _, ms) -> ms) (per_layer r t) |> List.assoc n |> snd
      in
      Printf.printf
        "  ns/event %.1f = queue %.1f + network %.1f + store %.1f + unattributed %.1f\n"
        (get "layers.ns_per_event") (get "layers.queue_ns_per_event")
        (get "layers.net_ns_per_event") (get "layers.store_ns_per_event")
        (get "layers.unattributed_ns_per_event"))
    r.traced;
  Option.iter
    (fun (ok, bad) ->
      let show label = function
        | Some p ->
          Printf.printf
            "     %-10s %5.0f tx/s/DC: p99 %.1f sim-ms, goodput %.1f of %.0f tx/s\n" label
            p.rate p.p99_ms p.goodput p.offered
        | None -> ()
      in
      (match ok with
       | Some p -> Printf.printf "  sim_capacity_tps = %.0f tx/s\n" p.offered
       | None -> Printf.printf "  sim_capacity_tps: below 100 tx/s/DC\n");
      show "meets" ok;
      show "misses" bad)
    r.capacity;
  List.iter (fun f -> Printf.printf "  CHECK FAILED: %s\n" f) r.failures;
  print_newline ()

let num v = if Float.is_finite v then BJ.Num v else BJ.Null

let result_json r =
  let e2e =
    List.map
      (fun e ->
        let q1, q3 = quartiles e.samples in
        BJ.Obj
          [
            ("name", BJ.Str e.e_name);
            ("unit", BJ.Str e.e_unit);
            ("exact", BJ.Bool e.exact);
            ("median", num (median e.samples));
            ("q1", num q1);
            ("q3", num q3);
            ("samples", BJ.Arr (List.map num e.samples));
          ])
      (end_to_end r)
  in
  let layers =
    match r.traced with
    | None -> []
    | Some t ->
      List.concat_map
        (fun (_, _, ms) ->
          List.map
            (fun (n, (u, v)) ->
              BJ.Obj [ ("name", BJ.Str n); ("unit", BJ.Str u); ("value", num v) ])
            ms)
        (per_layer r t)
  in
  BJ.Obj
    [
      ("name", BJ.Str r.workload.name);
      ("correct", BJ.Bool (r.failures = []));
      ("failures", BJ.Arr (List.map (fun f -> BJ.Str f) r.failures));
      ("end_to_end", BJ.Arr e2e);
      ("per_layer", BJ.Arr layers);
    ]

(* The one-line result: end-to-end metrics untraced, per-layer traced. *)
let result_line r ~trace =
  let metrics =
    match (trace, r.traced) with
    | true, Some t ->
      List.concat_map (fun (_, _, ms) -> ms) (per_layer r t)
      |> List.map (fun (n, (u, v)) -> (n, v, u))
    | _ -> List.map (fun e -> (e.e_name, median e.samples, e.e_unit)) (end_to_end r)
  in
  let obj =
    BJ.Obj
      [
        ("correct", BJ.Bool (r.failures = []));
        ("attempted", BJ.Num (float_of_int (r.outcome.committed + r.outcome.dropped)));
        ("failed", BJ.Num (float_of_int r.outcome.dropped));
        ( "metrics",
          BJ.Obj
            (List.map
               (fun (n, v, u) -> (n, BJ.Obj [ ("value", num v); ("unit", BJ.Str u) ]))
               metrics) );
      ]
  in
  String.split_on_char '\n' (BJ.to_string obj) |> List.map String.trim |> String.concat ""

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json and --compare                                         *)
(* ------------------------------------------------------------------ *)

let member k = function BJ.Obj fs -> List.assoc_opt k fs | _ -> None
let str_of = function Some (BJ.Str s) -> s | _ -> failwith "expected a string"
let num_of = function Some (BJ.Num f) -> f | _ -> nan
let arr_of = function Some (BJ.Arr l) -> l | _ -> []

let read_json path =
  match BJ.read_file path with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

(* (name, better, bound) of every end-to-end metric, and every
   per-layer name. *)
let benchmark_spec () =
  let j = read_json "BENCHMARK.json" in
  let e2e =
    List.map
      (fun m ->
        (str_of (member "name" m), str_of (member "better" m), num_of (member "bound" m)))
      (arr_of (member "end_to_end" j))
  in
  let layers = List.map (fun m -> str_of (member "name" m)) (arr_of (member "per_layer" j)) in
  (e2e, layers)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* Exact metrics compare by equality.  Cost metrics compare medians
   against the bound; when either side's quartile spread exceeds the
   bound the verdict is unresolved, unless every sample of B beats
   (or loses to) every sample of A. *)
let verdict ~better ~bound a b =
  let samples m = List.map (fun x -> num_of (Some x)) (arr_of (member "samples" m)) in
  let sa = samples a and sb = samples b in
  let ma = num_of (member "median" a) and mb = num_of (member "median" b) in
  let gain x y = if better = "lower" then x -. y else y -. x in
  if member "exact" a = Some (BJ.Bool true) then
    if ma = mb then Unchanged else if gain ma mb > 0. then Improved else Regressed
  else
    let spread m =
      (num_of (member "q3" m) -. num_of (member "q1" m)) /. num_of (member "median" m)
    in
    let rel = gain ma mb /. ma in
    let separated sx sy =
      List.for_all (fun y -> List.for_all (fun x -> gain x y > 0.) sx) sy
    in
    let noisy = Float.max (spread a) (spread b) > bound in
    if rel < -.bound then if noisy && not (separated sb sa) then Unresolved else Regressed
    else if rel > bound then if noisy && not (separated sa sb) then Unresolved else Improved
    else if noisy then Unresolved
    else Unchanged

let compare_files fa fb =
  let e2e, _ = benchmark_spec () in
  let ja = read_json fa and jb = read_json fb in
  let by_name j =
    List.map (fun w -> (str_of (member "name" w), w)) (arr_of (member "workloads" j))
  in
  let wb = by_name jb in
  Printf.printf "%-9s %-24s %14s %14s %9s %7s  %s\n" "workload" "metric" "A median" "B median"
    "change" "bound" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun (wname, wa) ->
      match List.assoc_opt wname wb with
      | None -> Printf.printf "%-9s missing from %s\n" wname fb
      | Some wbj ->
        let metrics w =
          List.map (fun m -> (str_of (member "name" m), m)) (arr_of (member "end_to_end" w))
        in
        let ma = metrics wa and mb = metrics wbj in
        List.iter
          (fun (name, better, bound) ->
            match (List.assoc_opt name ma, List.assoc_opt name mb) with
            | Some a, Some b ->
              let v = verdict ~better ~bound a b in
              if v = Regressed then incr regressions;
              let x = num_of (member "median" a) and y = num_of (member "median" b) in
              Printf.printf "%-9s %-24s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n" wname name x y
                (100. *. (y -. x) /. x) (100. *. bound) (verdict_name v)
            | _ -> Printf.printf "%-9s %-24s missing\n" wname name)
          e2e)
    (by_name ja);
  if !regressions > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let valid_name n =
  n <> "" && String.for_all (fun c ->
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
      || c = '_' || c = '.' || c = '-') n

(* Every workload at the short windows, traced and checked; every
   metric BENCHMARK.json names must be emitted under a valid name. *)
let smoke () =
  let t0 = now () in
  let e2e, layers = benchmark_spec () in
  let wanted = List.map (fun (n, _, _) -> n) e2e @ layers in
  let bad = ref 0 in
  List.iter
    (fun w ->
      let r = measure w ~seed:1 ~budget:Smoke ~trace:true in
      let emitted =
        List.map (fun e -> e.e_name) (end_to_end r)
        @
        match r.traced with
        | Some t -> List.concat_map (fun (_, _, ms) -> List.map fst ms) (per_layer r t)
        | None -> []
      in
      let missing = List.filter (fun n -> not (List.mem n emitted)) wanted in
      let invalid = List.filter (fun n -> not (valid_name n)) emitted in
      List.iter (fun f -> Printf.printf "%s: CHECK FAILED: %s\n" w.name f) r.failures;
      List.iter (fun n -> Printf.printf "%s: metric not emitted: %s\n" w.name n) missing;
      List.iter (fun n -> Printf.printf "%s: invalid metric name: %s\n" w.name n) invalid;
      bad := !bad + List.length r.failures + List.length missing + List.length invalid;
      Printf.printf "%s: %d metrics, %s\n%!" w.name (List.length emitted) (describe r.outcome))
    workloads;
  Printf.printf "smoke: %s in %.1fs\n" (if !bad = 0 then "ok" else "FAILED") (now () -. t0);
  if !bad > 0 then exit 1

let usage =
  "usage: strbench [--workload W] [--seed N] [--seconds S | --reps R] [--trace 0|1]\n\
  \                [--out FILE]\n\
  \       strbench --compare A.json B.json\n\
  \       strbench --smoke"

let () =
  let workload = ref None and seed = ref 1 and budget = ref None and trace = ref None in
  let out = ref None and compare = ref None and smoke_mode = ref false in
  let die msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  let positive v =
    match int_of_string_opt v with Some n when n > 0 -> n | _ -> die ("bad number: " ^ v)
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match List.find_opt (fun w -> w.name = v) workloads with
       | Some w -> workload := Some w
       | None -> die ("unknown workload: " ^ v));
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some n -> seed := n | None -> die ("bad seed: " ^ v));
      parse rest
    | "--seconds" :: v :: rest ->
      budget := Some (Seconds (float_of_int (positive v)));
      parse rest
    | "--reps" :: v :: rest ->
      budget := Some (Reps (positive v));
      parse rest
    | "--trace" :: v :: rest ->
      (match v with
       | "0" -> trace := Some false
       | "1" -> trace := Some true
       | _ -> die ("bad --trace: " ^ v));
      parse rest
    | "--out" :: v :: rest -> out := Some v; parse rest
    | "--compare" :: a :: b :: rest -> compare := Some (a, b); parse rest
    | "--smoke" :: rest -> smoke_mode := true; parse rest
    | arg :: _ -> die ("unknown argument: " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!compare, !smoke_mode) with
  | Some (a, b), _ -> compare_files a b
  | None, true -> smoke ()
  | None, false ->
    let budget = Option.value !budget ~default:(Reps 5) in
    let selected, trace =
      match !workload with
      | Some w -> ([ w ], Option.value !trace ~default:false)
      | None -> (workloads, Option.value !trace ~default:true)
    in
    let results = List.map (fun w -> measure w ~seed:!seed ~budget ~trace) selected in
    List.iter print_result results;
    Option.iter
      (fun path ->
        let j =
          BJ.Obj
            [
              ("tool", BJ.Str "strbench");
              ("seed", BJ.Num (float_of_int !seed));
              ("workloads", BJ.Arr (List.map result_json results));
            ]
        in
        match BJ.write_file path j with Ok () -> () | Error e -> die e)
      !out;
    let ok = List.for_all (fun r -> r.failures = []) results in
    (match results with [ r ] -> print_endline (result_line r ~trace) | _ -> ());
    if not ok then exit 1

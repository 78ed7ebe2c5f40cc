(** Closed-loop emulated clients: draw a transaction program from the
    workload, execute it, retry on abort (fresh snapshot each attempt,
    as in the paper's load injector), record latency inside the
    measurement window, think, repeat.  A client holds a fiber only
    while its transaction runs.

    Records the paper's two latencies: {e final latency} (first
    activation to final commit, across retries) and, for Ext-Spec,
    {e speculative latency} (first activation to the successful
    attempt's speculative commit). *)

type shared = {
  final_latency : Metrics.t;
  spec_latency : Metrics.t;
  mutable measure_from : int;
  mutable measure_to : int;
  mutable retries : int;  (** aborted attempts inside the window *)
  per_label : (string, Metrics.t) Hashtbl.t;  (** final latency per tx type *)
}

val make_shared : measure_from:int -> measure_to:int -> shared

val in_window : shared -> int -> bool

(** Per-transaction-type recorder (creates it on first use). *)
val label_metrics : shared -> string -> Metrics.t

(** The per-label recorders in ascending label order.  Renderers must
    use this rather than iterating [per_label] directly: [Hashtbl]
    iteration order is an implementation detail, so direct iteration
    makes reports nondeterministic. *)
val per_label_sorted : shared -> (string * Metrics.t) list

(** Run one transaction of [program] on [node] to its end: attempt
    after attempt (a fresh snapshot each) until one commits, [stop_at]
    passes or [node] is down.  A commit inside the window records the
    final latency from [t0], per label too, and the speculative one.
    Aborted attempts inside the window count as retries.  Must run in
    a fiber; {!Openloop} runs each arrival through it. *)
val execute :
  Core.Engine.t ->
  shared ->
  node:int ->
  stop_at:int ->
  Workload.Spec.program ->
  t0:int ->
  unit

(** Start one client on [node]; it stops issuing transactions at
    [stop_at] or when its node crashes, and polls a crashed node every
    100 ms until it recovers.  The client holds a fiber only while a
    transaction runs: its start-up stagger [start_delay] (which keeps
    clients out of lockstep), its think times and its polls are
    timers. *)
val spawn :
  Core.Engine.t ->
  Workload.Spec.t ->
  node:int ->
  rng:Dsim.Rng.t ->
  shared:shared ->
  stop_at:int ->
  start_delay:int ->
  unit

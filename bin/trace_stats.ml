(* Text report over a Chrome trace produced by `str_sim --trace`.

     trace_stats FILE                 convoy-effect report: lock hold-time
                                      distribution vs the inter-DC RTT,
                                      abort taxonomy, message counts
     trace_stats --validate FILE      structural check + byte fingerprint
                                      (the trace-smoke golden)
     trace_stats --critical-path FILE per-transaction critical-path
                                      decomposition: every committed and
                                      aborted transaction's latency split
                                      exactly into named components, plus
                                      the hidden-vs-externalized split
     trace_stats --timeseries FILE    embedded snapshot series as CSV

   The trace is self-contained: span timings live in "traceEvents",
   per-cell counters, causal message edges and the optional snapshot
   series in the "strMeta" object the exporter appends.  Every report is
   a pure function of the trace bytes — byte-identical across [-j]
   workers because the trace itself is. *)

open Cmdliner
module J = Harness.Bench_json
module Critpath = Obs.Critpath

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- JSON accessors ------------------------------------------------- *)

let field name = function
  | J.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let field_exn ctx name j =
  match field name j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: missing %S" ctx name)

let as_arr ctx = function J.Arr l -> l | _ -> failwith (ctx ^ ": expected array")
let as_obj ctx = function J.Obj kvs -> kvs | _ -> failwith (ctx ^ ": expected object")

let as_int ctx = function
  | J.Num f when Float.is_integer f -> int_of_float f
  | _ -> failwith (ctx ^ ": expected integer")

let as_str ctx = function J.Str s -> s | _ -> failwith (ctx ^ ": expected string")

let opt_str name j = Option.map (as_str name) (field name j)

(* --- trace decoding ------------------------------------------------- *)

type span = {
  name : string;
  ts : int;
  dur : int;
  pid : int;
  tx : (int * int) option;  (** args.tx, "origin.number" *)
}

type instant = { iname : string; its : int; ipid : int; itx : (int * int) option }

type cell = {
  cell_name : string;
  events : int;
  aborts : (string * int) list;
  msgs : (string * int) list;
  stats : (string * int) list;
  pid_base : int;  (** 0 when the trace predates causal edges *)
  edges : Obs.Causal.edge list;
  tseries : Obs.Timeseries.t option;
}

type trace = { spans : span list; instants : instant list; cells : cell list }

(* args.tx is printed as "origin.number". *)
let decode_tx j =
  match field "args" j with
  | None -> None
  | Some args ->
    (match opt_str "tx" args with
    | None -> None
    | Some s ->
      (match String.index_opt s '.' with
      | None -> failwith ("malformed tx id: " ^ s)
      | Some i ->
        Some
          ( int_of_string (String.sub s 0 i),
            int_of_string (String.sub s (i + 1) (String.length s - i - 1)) )))

let decode_event j =
  match opt_str "ph" j with
  | Some "X" ->
    let name = as_str "span name" (field_exn "span" "name" j) in
    let dur = as_int "dur" (field_exn "span" "dur" j) in
    let ts = as_int "ts" (field_exn "span" "ts" j) in
    let pid = as_int "pid" (field_exn "span" "pid" j) in
    ignore (as_int "tid" (field_exn "span" "tid" j));
    if dur < 0 then failwith "span: negative dur";
    `Span { name; ts; dur; pid; tx = decode_tx j }
  | Some "i" ->
    let iname = as_str "instant name" (field_exn "instant" "name" j) in
    let its = as_int "ts" (field_exn "instant" "ts" j) in
    let ipid = as_int "pid" (field_exn "instant" "pid" j) in
    `Instant { iname; its; ipid; itx = decode_tx j }
  | Some "M" -> `Meta
  | Some ph -> failwith ("unknown event ph: " ^ ph)
  | None -> failwith "event without ph"

let int_pairs ctx j =
  List.map (fun (k, v) -> (k, as_int (ctx ^ "." ^ k) v)) (as_obj ctx j)

(* Edge rows are [kind,a,b,src,dst,t_enq,t_wire,t_deliver,queue,cost];
   a = b = -1 marks a send with no transaction context. *)
let decode_edge j =
  match as_arr "edge row" j with
  | [ k; a; b; src; dst; t_enq; t_wire; t_deliver; queue; cost ] ->
    let i ctx v = as_int ctx v in
    {
      Obs.Causal.ekind = i "edge kind" k;
      ea = (let v = i "edge a" a in if v < 0 then min_int else v);
      eb = (let v = i "edge b" b in if v < 0 then min_int else v);
      esrc = i "edge src" src;
      edst = i "edge dst" dst;
      et_enq = i "edge t_enq" t_enq;
      et_wire = i "edge t_wire" t_wire;
      et_deliver = i "edge t_deliver" t_deliver;
      equeue = i "edge queue" queue;
      ecost = i "edge cost" cost;
    }
  | _ -> failwith "edge row: expected 10 integers"

let decode_timeseries j =
  let interval_us = as_int "ts interval" (field_exn "timeseries" "interval_us" j) in
  let cols =
    List.map (as_str "ts col") (as_arr "ts cols" (field_exn "timeseries" "cols" j))
  in
  let ts = Obs.Timeseries.create ~interval_us ~cols in
  List.iter
    (fun row ->
      match as_arr "ts row" row with
      | t :: vs ->
        Obs.Timeseries.sample ts ~time:(as_int "ts time" t)
          (Array.of_list (List.map (as_int "ts value") vs))
      | [] -> failwith "timeseries: empty row")
    (as_arr "ts rows" (field_exn "timeseries" "rows" j));
  ts

let decode_cell j =
  {
    cell_name = as_str "cell name" (field_exn "cell" "name" j);
    events = as_int "cell events" (field_exn "cell" "events" j);
    aborts = int_pairs "aborts" (field_exn "cell" "aborts" j);
    msgs = int_pairs "msgs" (field_exn "cell" "msgs" j);
    stats = int_pairs "stats" (field_exn "cell" "stats" j);
    pid_base =
      (match field "pid_base" j with Some v -> as_int "pid_base" v | None -> 0);
    edges =
      (match field "edges" j with
      | Some v -> List.map decode_edge (as_arr "edges" v)
      | None -> []);
    tseries = Option.map decode_timeseries (field "timeseries" j);
  }

let decode src =
  match J.parse src with
  | Error e -> failwith ("JSON parse error: " ^ e)
  | Ok root ->
    let events = as_arr "traceEvents" (field_exn "root" "traceEvents" root) in
    let meta = field_exn "root" "strMeta" root in
    let cells =
      List.map decode_cell (as_arr "strMeta.cells" (field_exn "strMeta" "cells" meta))
    in
    let spans = ref [] and instants = ref [] in
    List.iter
      (fun ev ->
        match decode_event ev with
        | `Span s -> spans := s :: !spans
        | `Instant i -> instants := i :: !instants
        | `Meta -> ())
      events;
    let t = { spans = List.rev !spans; instants = List.rev !instants; cells } in
    (* The per-cell event counts in strMeta must account for every
       non-metadata event in the stream. *)
    let declared = List.fold_left (fun acc c -> acc + c.events) 0 t.cells in
    let actual = List.length t.spans + List.length t.instants in
    if declared <> actual then
      failwith
        (Printf.sprintf "strMeta event count %d <> %d trace events" declared actual);
    t

(* --- per-transaction causal DAG assembly ----------------------------- *)

(* Cells of a sweep occupy disjoint pid ranges ([pid_base + dc + 1]), so
   the owning cell of an event is the one with the greatest pid_base
   below its pid. *)
let cell_index_of_pid cells pid =
  (* cells appear in ascending pid_base order *)
  let idx = ref 0 in
  List.iteri (fun i c -> if c.pid_base < pid then idx := i) cells;
  !idx

(* Reassemble each cell's transactions exactly as {!Obs.Critpath.of_trace}
   does for in-memory traces: S_tx spans define the transactions, phase
   spans and instants attach by identity, then the cell's causal edges. *)
let assemble t =
  let n_cells = List.length t.cells in
  let tbls = Array.init n_cells (fun _ -> Hashtbl.create 256) in
  let orders = Array.make n_cells [] in
  List.iter
    (fun (s : span) ->
      match (s.name, s.tx) with
      | "tx", Some (a, b) ->
        let i = cell_index_of_pid t.cells s.pid in
        if not (Hashtbl.mem tbls.(i) (a, b)) then begin
          let txn = Critpath.make_txn ~a ~b ~t0:s.ts ~t1:(s.ts + s.dur) in
          Hashtbl.add tbls.(i) (a, b) txn;
          orders.(i) <- txn :: orders.(i)
        end
      | _ -> ())
    t.spans;
  let find pid tx =
    match tx with
    | None -> None
    | Some key ->
      let i = cell_index_of_pid t.cells pid in
      Option.map (fun txn -> txn) (Hashtbl.find_opt tbls.(i) key)
  in
  List.iter
    (fun (s : span) ->
      match
        List.find_opt (fun c -> Critpath.name c = s.name) Critpath.all
      with
      | Some comp -> (
        match find s.pid s.tx with
        | Some txn -> Critpath.add_ival txn comp ~lo:s.ts ~hi:(s.ts + s.dur)
        | None -> ())
      | None -> ())
    t.spans;
  List.iter
    (fun (i : instant) ->
      match find i.ipid i.itx with
      | None -> ()
      | Some txn -> (
        match i.iname with
        | "local-commit" -> txn.Critpath.t_local_commit <- i.its
        | "spec-commit" -> txn.Critpath.t_spec_commit <- i.its
        | "commit" -> txn.Critpath.outcome <- `Commit
        | "abort" -> txn.Critpath.outcome <- `Abort
        | _ -> ()))
    t.instants;
  List.iteri
    (fun i c ->
      List.iter
        (fun (e : Obs.Causal.edge) ->
          if e.Obs.Causal.ea <> min_int then
            match Hashtbl.find_opt tbls.(i) (e.Obs.Causal.ea, e.Obs.Causal.eb) with
            | Some txn -> Critpath.add_edge txn e
            | None -> ())
        c.edges)
    t.cells;
  Array.to_list (Array.map List.rev orders)

(* --- reports -------------------------------------------------------- *)

let validate file =
  let src = read_file file in
  let t = decode src in
  Printf.printf "valid chrome trace\n";
  Printf.printf "cells: %d\n" (List.length t.cells);
  Printf.printf "spans: %d\n" (List.length t.spans);
  Printf.printf "instants: %d\n" (List.length t.instants);
  let edges = List.fold_left (fun acc c -> acc + List.length c.edges) 0 t.cells in
  if edges > 0 then Printf.printf "edges: %d\n" edges;
  let ts_rows =
    List.fold_left
      (fun acc c ->
        acc + match c.tseries with Some ts -> Obs.Timeseries.n_rows ts | None -> 0)
      0 t.cells
  in
  if ts_rows > 0 then Printf.printf "timeseries rows: %d\n" ts_rows;
  Printf.printf "fingerprint: %d\n" (Obs.Export.fingerprint src)

let sum_counts cells proj =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        (proj c))
    cells;
  (* Hash order: sorted below. *)
  (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] [@alert "-nondet"])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let stat_range cells name ~f ~init =
  List.fold_left
    (fun acc c ->
      match List.assoc_opt name c.stats with Some v -> f acc v | None -> acc)
    init cells

let pct num den = if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den

let report file =
  let t = decode (read_file file) in
  Printf.printf "== trace report: %s ==\n" (Filename.basename file);
  Printf.printf "cells: %d\n" (List.length t.cells);
  List.iter
    (fun c ->
      let stat n = Option.value ~default:0 (List.assoc_opt n c.stats) in
      Printf.printf
        "  %-40s events=%d commits=%d eq_max_depth=%d net_msgs=%d wan=%d fifo_delays=%d\n"
        c.cell_name c.events (stat "commits") (stat "eq_max_depth") (stat "net_messages")
        (stat "net_wan_messages") (stat "net_fifo_delays"))
    t.cells;
  let print_counts header counts =
    Printf.printf "%s\n" header;
    if counts = [] then Printf.printf "  (none)\n"
    else List.iter (fun (k, v) -> Printf.printf "  %-16s %d\n" k v) counts
  in
  print_counts "-- aborts by taxonomy --" (sum_counts t.cells (fun c -> c.aborts));
  print_counts "-- messages by kind --" (sum_counts t.cells (fun c -> c.msgs));
  let stat_sum name =
    List.fold_left
      (fun acc c -> acc + Option.value ~default:0 (List.assoc_opt name c.stats))
      0 t.cells
  in
  (* Pipeline efficiency: how many messages one committed transaction
     costs — the headline number message coalescing moves. *)
  let commits = stat_sum "commits" in
  Printf.printf "-- messages per commit --\n";
  if commits = 0 then Printf.printf "  (no commits)\n"
  else begin
    let per n = float_of_int n /. float_of_int commits in
    Printf.printf "  logical: %.1f  wan-wire: %.1f\n"
      (per (stat_sum "net_messages"))
      (per (stat_sum "net_wan_messages"));
    let batches = stat_sum "net_batches" in
    if batches > 0 then Printf.printf "  coalesced flushes: %.1f\n" (per batches)
  end;
  (* Batch occupancy: how full the coalescing windows ran (only batched
     traces carry these stats). *)
  let flushes = stat_sum "batch_flushes" in
  if flushes > 0 then begin
    let payloads = stat_sum "batch_payloads" in
    Printf.printf "-- batch occupancy --\n";
    Printf.printf "  flushes: %d  payloads: %d  mean payload/flush: %.1f\n" flushes
      payloads
      (float_of_int payloads /. float_of_int flushes);
    for i = 1 to 16 do
      let c = stat_sum (Printf.sprintf "batch_occ_%02d" i) in
      if c > 0 then
        Printf.printf "  %s%2d payloads: %d flush(es)\n"
          (if i = 16 then ">=" else "  ")
          i c
    done;
    let sweeps = stat_sum "cert_sweeps" in
    if sweeps > 0 then
      Printf.printf "  certification sweeps: %d covering %d prepare(s)\n" sweeps
        (stat_sum "cert_swept")
  end;
  (* Convoy effect: certified writers hold their locks across the
     synchronous replication round, so under contention the lock
     hold-time tail should reach (and exceed) the inter-DC RTT. *)
  let holds = List.filter (fun (s : span) -> s.name = "lock-hold") t.spans in
  let hist = Obs.Histogram.create () in
  List.iter (fun (s : span) -> Obs.Histogram.record hist s.dur) holds;
  let s = Obs.Histogram.summary hist in
  Printf.printf "-- lock hold times (convoy effect) --\n";
  Printf.printf "  holds: %d\n" s.Obs.Histogram.count;
  if s.Obs.Histogram.count > 0 then begin
    Printf.printf "  p50=%dus p90=%dus p99=%dus p999=%dus max=%dus\n"
      s.Obs.Histogram.p50_us s.Obs.Histogram.p90_us s.Obs.Histogram.p99_us
      s.Obs.Histogram.p999_us s.Obs.Histogram.max_us;
    let rtt_lo = stat_range t.cells "interdc_rtt_min_us" ~f:min ~init:max_int in
    let rtt_hi = stat_range t.cells "interdc_rtt_max_us" ~f:max ~init:0 in
    if rtt_lo <= rtt_hi && rtt_hi > 0 then begin
      Printf.printf "  inter-DC RTT: min=%dus max=%dus\n" rtt_lo rtt_hi;
      let over lim = List.length (List.filter (fun (s : span) -> s.dur >= lim) holds) in
      let n = List.length holds in
      Printf.printf "  holds >= min RTT: %d (%.1f%%)\n" (over rtt_lo) (pct (over rtt_lo) n);
      Printf.printf "  holds >= max RTT: %d (%.1f%%)\n" (over rtt_hi) (pct (over rtt_hi) n)
    end
    else Printf.printf "  inter-DC RTT: n/a (single DC)\n"
  end

(* --- critical-path report -------------------------------------------- *)

(* Per-cell table: each component's share of the summed observed
   latency, its per-affected-transaction mean and p99, and the
   hidden-vs-externalized split.  The per-transaction sums are exact by
   construction (boundary sweep + coordinator-compute base layer); the
   report re-verifies and prints the attribution rate anyway so a
   regression is visible in the golden. *)
let critical_path file =
  let t = decode (read_file file) in
  Printf.printf "== critical path: %s ==\n" (Filename.basename file);
  let edges = List.fold_left (fun acc c -> acc + List.length c.edges) 0 t.cells in
  if edges = 0 then
    Printf.printf "no causal edges in trace (recorded by traced runs of this build)\n"
  else begin
    let per_cell = assemble t in
    List.iter2
      (fun c txns ->
        Printf.printf "-- %s --\n" c.cell_name;
        let txns = List.filter (fun x -> Critpath.total_us x > 0) txns in
        let n = List.length txns in
        let commits =
          List.length (List.filter (fun x -> x.Critpath.outcome = `Commit) txns)
        in
        let aborts =
          List.length (List.filter (fun x -> x.Critpath.outcome = `Abort) txns)
        in
        Printf.printf "transactions: %d (%d commit, %d abort, %d open)\n" n commits
          aborts
          (n - commits - aborts);
        if n > 0 then begin
          let nc = Critpath.n_components in
          let totals = Array.make nc 0 in
          let counts = Array.make nc 0 in
          let hists = Array.init nc (fun _ -> Obs.Histogram.create ()) in
          let grand = ref 0 in
          let exact = ref 0 in
          let ext_hist = Obs.Histogram.create () in
          let ext_total = ref 0 and hidden_total = ref 0 in
          let spec_n = ref 0 in
          List.iter
            (fun txn ->
              let parts = Critpath.decompose txn in
              let total = Critpath.total_us txn in
              grand := !grand + total;
              if Array.fold_left ( + ) 0 parts = total then incr exact;
              Array.iteri
                (fun i v ->
                  if v > 0 then begin
                    totals.(i) <- totals.(i) + v;
                    counts.(i) <- counts.(i) + 1;
                    Obs.Histogram.record hists.(i) v
                  end)
                parts;
              let ext = Critpath.externalized_us txn in
              ext_total := !ext_total + ext;
              hidden_total := !hidden_total + Critpath.hidden_us txn;
              Obs.Histogram.record ext_hist ext;
              if txn.Critpath.t_spec_commit >= 0 then incr spec_n)
            txns;
          Printf.printf "attribution: %d/%d transactions exact (%.1f%% of latency)\n"
            !exact n
            (pct (Array.fold_left ( + ) 0 totals) !grand);
          Printf.printf "%-14s %6s %10s %8s %10s %10s\n" "component" "txs" "total(us)"
            "share" "mean(us)" "p99(us)";
          List.iteri
            (fun i comp ->
              if counts.(i) > 0 then begin
                let s = Obs.Histogram.summary hists.(i) in
                Printf.printf "%-14s %6d %10d %7.1f%% %10d %10d\n" (Critpath.name comp)
                  counts.(i) totals.(i)
                  (pct totals.(i) !grand)
                  (totals.(i) / counts.(i))
                  s.Obs.Histogram.p99_us
              end)
            Critpath.all;
          let ext_s = Obs.Histogram.summary ext_hist in
          Printf.printf
            "latency: total=%dus mean=%dus | externalized mean=%dus p99=%dus\n" !grand
            (!grand / n) (!ext_total / n) ext_s.Obs.Histogram.p99_us;
          Printf.printf
            "hidden by speculation: %dus (%.1f%% of latency, %d spec commit(s))\n"
            !hidden_total
            (pct !hidden_total !grand)
            !spec_n
        end)
      t.cells per_cell
  end

(* --- timeseries report ----------------------------------------------- *)

let timeseries file =
  let t = decode (read_file file) in
  let any = ref false in
  List.iter
    (fun c ->
      match c.tseries with
      | Some ts when Obs.Timeseries.n_rows ts > 0 ->
        any := true;
        Printf.printf "== timeseries: %s (interval %dus) ==\n" c.cell_name
          (Obs.Timeseries.interval_us ts);
        print_string (Obs.Timeseries.to_csv ts)
      | Some _ | None -> ())
    t.cells;
  if not !any then Printf.printf "no timeseries in trace (run with --timeseries-us)\n"

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Chrome trace JSON.")

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ]
        ~doc:
          "Structural check only: parse the trace, cross-check the strMeta event \
           counts, and print a byte fingerprint (the trace-smoke golden).")

let critpath_arg =
  Arg.(
    value & flag
    & info [ "critical-path" ]
        ~doc:
          "Critical-path report: reassemble each transaction's causal DAG and split \
           its observed latency exactly into named components (network, queue wait, \
           batch parking, lock/OLC/dep waits, certification, replication, compute), \
           with the hidden-vs-externalized speculation split.")

let timeseries_arg =
  Arg.(
    value & flag
    & info [ "timeseries" ]
        ~doc:"Print the embedded deterministic snapshot series as CSV, per cell.")

let main validate_only critpath_only timeseries_only file =
  try
    (if validate_only then validate file
     else if critpath_only then critical_path file
     else if timeseries_only then timeseries file
     else report file);
    0
  with Failure msg ->
    Printf.eprintf "trace_stats: %s: %s\n" file msg;
    1

let () =
  let info =
    Cmd.info "trace_stats"
      ~doc:
        "Summarize a str_sim trace: abort taxonomy, message counts, convoy effect, \
         critical-path decomposition, time series"
  in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(const main $ validate_arg $ critpath_arg $ timeseries_arg $ file_arg)))

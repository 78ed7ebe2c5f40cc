(* Command-line driver: regenerate any table/figure of the paper, or
   run a single custom simulation.

     str_sim NAME [--full] [-j N]  one experiment of
                                   Harness.Experiments.registry (fig3a,
                                   fig4, table1, ..., ablations); `all`
                                   prints every table
     str_sim run ...               one custom simulation
                                   (--arrival-rate switches it to open loop;
                                    --crash N crash-stops DC N mid-run and
                                    recovers it, under the recovery protocol) *)

open Cmdliner

let scale_of_full full = if full then Harness.Experiments.Full else Harness.Experiments.Quick

let full_arg =
  Arg.(value & flag & info [ "full" ] ~doc:"Run the full-size sweep (slower).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker processes executing the sweep grid in parallel.  Defaults to \
           $(b,STR_JOBS) when set, else 1.  Output is byte-identical whatever \
           the value.")

let resolve_jobs = function
  | Some n when n > 0 -> n
  | Some n ->
    Printf.eprintf "-j expects a positive integer, got %d\n" n;
    exit 2
  | None -> (
    try Harness.Procpool.default_jobs ()
    with Invalid_argument msg ->
      prerr_endline msg;
      exit 2)

let print_reports rs = List.iter (fun r -> Harness.Report.print r; print_newline ()) rs

(* --- tracing options ------------------------------------------------ *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the full span/counter trace of the run and write it to \
           $(docv) as Chrome trace-event JSON (open in Perfetto or \
           chrome://tracing; feed to $(b,trace_stats) for the text report).  \
           The bytes are identical whatever $(b,--jobs) is.")

let trace_jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-jsonl" ] ~docv:"FILE"
        ~doc:"Also (or instead) write the compact JSONL event log to $(docv).")

let trace_filter_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-filter" ] ~docv:"SUBSTRING"
        ~doc:
          "Only trace sweep cells whose name contains $(docv), e.g. \
           $(b,protocol=str) or $(b,clients=40).  Untraced cells still run \
           (and still reserve their process-id slot, keeping ids stable), \
           they just record nothing — use this to keep traces small on big \
           sweeps.")

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let export_tracer tracer ~trace ~trace_jsonl =
  match tracer with
  | None -> ()
  | Some tr ->
    (match trace with
    | Some f -> write_file f (Harness.Tracing.export_chrome tr)
    | None -> ());
    (match trace_jsonl with
    | Some f -> write_file f (Harness.Tracing.export_jsonl tr)
    | None -> ());
    Printf.eprintf "traced %d cell(s)\n%!" (Harness.Tracing.n_selected tr)

(* One subcommand per registry entry; the tracing flags only where the
   experiment's cells are named for a tracer. *)
let experiment_cmd ({ Harness.Experiments.name; doc; traced; _ } as e) =
  let tracing =
    if traced then
      Term.(
        const (fun trace trace_jsonl filter -> (trace, trace_jsonl, filter))
        $ trace_arg $ trace_jsonl_arg $ trace_filter_arg)
    else Term.const (None, None, None)
  in
  let run full jobs (trace, trace_jsonl, filter) =
    let tracer =
      if trace = None && trace_jsonl = None then None
      else Some (Harness.Tracing.create ?filter ())
    in
    print_reports
      (Harness.Experiments.run ?tracer ~jobs:(resolve_jobs jobs)
         ~scale:(scale_of_full full) e);
    export_tracer tracer ~trace ~trace_jsonl
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ full_arg $ jobs_arg $ tracing)

(* Open-loop variant of `run`: fixed-rate Poisson injection through
   Harness.Openloop; --clients is the population per DC.  Returns the
   snapshot series, if one was recorded. *)
let run_openloop ~protocol ~wname ~config ~workload ~clients ~seconds ~warmup ~seed
    ~rate ~wheel ?trace ?timeseries_us () =
  let setup =
    {
      (Harness.Openloop.default_setup ~workload ~config) with
      clients_per_dc = clients;
      arrival = Workload.Arrival.poisson ~rate_per_dc:rate;
      warmup_us = warmup * 1_000_000;
      measure_us = seconds * 1_000_000;
      seed;
      queue = (if wheel then `Wheel else `Heap);
    }
  in
  let r = Harness.Openloop.run ?trace ?timeseries_us setup in
  Printf.printf "open-loop protocol=%s workload=%s clients/DC=%d rate=%.1f tx/s/DC (%s)\n"
    protocol wname clients rate
    (if wheel then "wheel" else "heap");
  Printf.printf "  population     : %d clients\n" r.Harness.Openloop.clients;
  Printf.printf "  throughput     : %.1f tx/s (offered %.1f)\n"
    r.Harness.Openloop.throughput
    (rate *. float_of_int (Dsim.Topology.size setup.Harness.Openloop.topology));
  Printf.printf "  admitted/dropped : %d / %d arrivals\n" r.Harness.Openloop.admitted
    r.Harness.Openloop.dropped;
  Printf.printf "  peak in flight : %d\n" r.Harness.Openloop.peak_in_flight;
  Printf.printf "  abort rate     : %.1f%%\n" (100. *. r.Harness.Openloop.abort_rate);
  Format.printf "  final latency  : %a@." Harness.Metrics.pp_summary
    r.Harness.Openloop.final_latency;
  if r.Harness.Openloop.spec_latency.Harness.Metrics.count > 0 then
    Format.printf "  spec latency   : %a@." Harness.Metrics.pp_summary
      r.Harness.Openloop.spec_latency;
  Printf.printf "  events         : %d\n" r.Harness.Openloop.events;
  Format.printf "  stats          : %a@." Core.Stats.pp r.Harness.Openloop.stats;
  r.Harness.Openloop.timeseries

(* Closed-loop variant of `run`: --clients is the population per node.
   Returns the snapshot series, if one was recorded. *)
let run_closed ~protocol ~wname ~config ~workload ~clients ~seconds ~warmup ~seed ~wheel
    ~fault_plan ?trace ?timeseries_us () =
  if wheel then
    prerr_endline "note: --wheel only applies with --arrival-rate; ignoring";
  let setup =
    {
      (Harness.Runner.default_setup ~workload ~config) with
      clients_per_node = clients;
      warmup_us = warmup * 1_000_000;
      measure_us = seconds * 1_000_000;
      seed;
      self_tune = (if protocol = "str" then `On 1_000_000 else `Off);
      fault_plan;
    }
  in
  let r = Harness.Runner.run ?trace ?timeseries_us setup in
  Printf.printf "protocol=%s workload=%s clients/node=%d\n" protocol wname clients;
  Printf.printf "  throughput     : %.1f tx/s\n" r.Harness.Runner.throughput;
  Printf.printf "  abort rate     : %.1f%%\n" (100. *. r.Harness.Runner.abort_rate);
  Printf.printf "  misspeculation : %.1f%%\n" (100. *. r.Harness.Runner.misspec_rate);
  Printf.printf "  ext misspec    : %.1f%%\n" (100. *. r.Harness.Runner.ext_misspec_rate);
  Format.printf "  final latency  : %a@." Harness.Metrics.pp_summary
    r.Harness.Runner.final_latency;
  if r.Harness.Runner.spec_latency.Harness.Metrics.count > 0 then
    Format.printf "  spec latency   : %a@." Harness.Metrics.pp_summary
      r.Harness.Runner.spec_latency;
  Printf.printf "  WAN messages   : %d\n" r.Harness.Runner.wan_messages;
  Format.printf "  stats          : %a@." Core.Stats.pp r.Harness.Runner.stats;
  r.Harness.Runner.timeseries

(* The values `run -p` and `run -w` accept. *)
let protocols =
  [
    ("str", fun () -> Core.Config.str ());
    ("clocksi", fun () -> Core.Config.clocksi_rep ());
    ("extspec", fun () -> Core.Config.ext_spec ());
    ("precise", fun () -> Core.Config.precise ());
    ("physical-sr", fun () -> Core.Config.physical_sr ());
    ("precise-sr", fun () -> Core.Config.precise_sr ());
  ]

let workloads =
  [
    ("synth-a", fun pl -> Workload.Synthetic.make ~params:Workload.Synthetic.synth_a pl);
    ("synth-b", fun pl -> Workload.Synthetic.make ~params:Workload.Synthetic.synth_b pl);
    ("tpcc-a", fun pl -> fst (Workload.Tpcc.make ~mix:Workload.Tpcc.mix_a pl));
    ("tpcc-b", fun pl -> fst (Workload.Tpcc.make ~mix:Workload.Tpcc.mix_b pl));
    ("tpcc-c", fun pl -> fst (Workload.Tpcc.make ~mix:Workload.Tpcc.mix_c pl));
    ("rubis", fun pl -> Workload.Rubis.make pl);
  ]

let run_custom protocol workload clients seconds warmup seed arrival_rate wheel
    crash crash_at_ms recover_at_ms batch_window batch_max timeseries_us_arg
    timeseries_csv trace_file trace_jsonl =
  (* Asking for the CSV without an interval means "record at the default
     interval". *)
  let timeseries_us =
    if timeseries_us_arg > 0 then Some timeseries_us_arg
    else if timeseries_csv <> None then Some 500_000
    else None
  in
  (* A malformed flag exits 2 with one line naming it (or the library's
     message), before any simulation runs. *)
  let usage_error msg =
    prerr_endline ("str_sim: " ^ msg);
    exit 2
  in
  let or_usage_error f = try f () with Invalid_argument msg -> usage_error msg in
  if clients < 1 then usage_error "--clients must be at least 1";
  if seconds < 1 then usage_error "--seconds must be at least 1";
  if warmup < 0 then usage_error "--warmup must not be negative";
  if timeseries_us_arg < 0 then usage_error "--timeseries-us must not be negative";
  (match arrival_rate with
  | Some rate when not (rate > 0. && Float.is_finite rate) ->
    usage_error "--arrival-rate must be positive and finite"
  | Some _ | None -> ());
  let config =
    (* Applied even with coalescing off (a zero window), so a malformed
       flag fails here instead of being silently ignored. *)
    or_usage_error (fun () ->
        Core.Config.with_batching ~batch_window_us:batch_window ~batch_max
          (List.assoc protocol protocols ()))
  in
  let n_dcs = Dsim.Topology.size Dsim.Topology.ec2_nine in
  let wl =
    List.assoc workload workloads
      (Store.Placement.ring ~n_nodes:n_dcs ~replication_factor:6 ())
  in
  (* Crash-recover drill: crash-stop one DC mid-measurement and bring it
     back, with the atomic-commitment recovery protocol switched on (the
     config gains failure-detection periods so blocked certifications and
     in-doubt prepares terminate). *)
  let config, fault_plan =
    match crash with
    | None ->
      if crash_at_ms <> None then usage_error "--crash-at-ms needs --crash";
      if recover_at_ms <> None then usage_error "--recover-at-ms needs --crash";
      (config, [])
    | Some n ->
      let crash_at_ms = Option.value crash_at_ms ~default:7_000 in
      let recover_at_ms = Option.value recover_at_ms ~default:9_000 in
      let plan =
        (crash_at_ms * 1_000, Dsim.Fault.Crash n)
        ::
        (if recover_at_ms > crash_at_ms then
           [ (recover_at_ms * 1_000, Dsim.Fault.Recover n) ]
         else [])
      in
      or_usage_error (fun () -> Dsim.Fault.validate ~n:n_dcs plan);
      (Core.Config.with_recovery config, plan)
  in
  let trace =
    if trace_file = None && trace_jsonl = None then None else Some (Obs.Trace.create ())
  in
  let tseries =
    match arrival_rate with
    | Some rate ->
      if fault_plan <> [] then
        prerr_endline "note: --crash is not supported in open-loop mode; ignoring";
      run_openloop ~protocol ~wname:workload ~config ~workload:wl ~clients ~seconds
        ~warmup ~seed ~rate ~wheel ?trace ?timeseries_us ()
    | None ->
      run_closed ~protocol ~wname:workload ~config ~workload:wl ~clients ~seconds
        ~warmup ~seed ~wheel ~fault_plan ?trace ?timeseries_us ()
  in
  (match (timeseries_csv, tseries) with
  | Some f, Some ts -> write_file f (Obs.Timeseries.to_csv ts)
  | Some _, None | None, _ -> ());
  match trace with
  | None -> ()
  | Some tr ->
    let cells =
      [ (Printf.sprintf "protocol=%s/workload=%s/clients=%d" protocol workload clients, tr) ]
    in
    (match trace_file with
    | Some f -> write_file f (Obs.Export.chrome cells)
    | None -> ());
    (match trace_jsonl with
    | Some f -> write_file f (Obs.Export.jsonl cells)
    | None -> ())

let run_cmd =
  let one_of table name flags =
    let names = List.map fst table in
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) names)) name
      & info flags ~doc:(String.concat " | " names))
  in
  let protocol = one_of protocols "str" [ "p"; "protocol" ] in
  let workload = one_of workloads "synth-a" [ "w"; "workload" ] in
  let clients =
    Arg.(value & opt int 10 & info [ "c"; "clients" ] ~doc:"clients per node")
  in
  let seconds =
    Arg.(value & opt int 10 & info [ "t"; "seconds" ] ~doc:"measured (simulated) seconds")
  in
  let warmup =
    Arg.(value & opt int 5 & info [ "warmup" ] ~doc:"warmup (simulated) seconds")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"random seed") in
  let arrival_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "arrival-rate" ] ~docv:"TX_PER_S"
          ~doc:
            "Switch to open-loop injection: Poisson arrivals at $(docv) \
             transactions per second into each DC.  $(b,--clients) then sets \
             the client population per DC (arrivals finding every client busy \
             are dropped, not queued).")
  in
  let wheel =
    Arg.(
      value & flag
      & info [ "wheel" ]
          ~doc:
            "Back the simulator with the hierarchical timer wheel instead of \
             the binary heap (with $(b,--arrival-rate) only).  Results are \
             byte-identical; only wall-clock changes.")
  in
  let crash =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash" ] ~docv:"DC"
          ~doc:
            "Crash-stop data center $(docv) at $(b,--crash-at-ms) and recover \
             it at $(b,--recover-at-ms) (absolute simulated time).  Switches \
             the config to $(b,Core.Config.with_recovery): decision logging, \
             in-doubt holds and timeout-driven termination.")
  in
  let crash_at_ms =
    Arg.(
      value
      & opt (some ~none:"7000" int) None
      & info [ "crash-at-ms" ] ~docv:"MS"
          ~doc:"Crash instant, absolute simulated milliseconds (with $(b,--crash)).")
  in
  let recover_at_ms =
    Arg.(
      value
      & opt (some ~none:"9000" int) None
      & info [ "recover-at-ms" ] ~docv:"MS"
          ~doc:
            "Recovery instant, absolute simulated milliseconds (with \
             $(b,--crash)); a value at or below $(b,--crash-at-ms) means the \
             DC stays down (crash-stop).")
  in
  let batch_window =
    Arg.(
      value & opt int 0
      & info [ "batch-window" ] ~docv:"US"
          ~doc:
            "Coalesce commit-pipeline messages per (src,dst) link for up to \
             $(docv) microseconds (queue-oriented speculative batching).  0 \
             (the default) disables coalescing and is bit-identical to the \
             historical engine.")
  in
  let batch_max =
    Arg.(
      value & opt int 16
      & info [ "batch-max" ] ~docv:"N"
          ~doc:
            "Size cap: a link queue flushes early once it holds $(docv) \
             payloads (with $(b,--batch-window)).")
  in
  let timeseries_us =
    Arg.(
      value & opt int 0
      & info [ "timeseries-us" ] ~docv:"US"
          ~doc:
            "Record the deterministic snapshot series (goodput, abort \
             taxonomy, queue depth, speculation depth ...) every $(docv) \
             simulated microseconds.  Sealed into $(b,--trace) output (read \
             it back with $(b,trace_stats --timeseries)).")
  in
  let timeseries_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeseries-csv" ] ~docv:"FILE"
          ~doc:
            "Write the snapshot series to $(docv) as CSV (implies \
             $(b,--timeseries-us) at 500ms when no interval was given).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a single simulation and print its metrics")
    Term.(
      const run_custom $ protocol $ workload $ clients $ seconds $ warmup $ seed
      $ arrival_rate $ wheel $ crash $ crash_at_ms $ recover_at_ms $ batch_window
      $ batch_max $ timeseries_us $ timeseries_csv $ trace_arg $ trace_jsonl_arg)

let () =
  let info = Cmd.info "str_sim" ~doc:"STR / SPSI geo-replication simulator" in
  let cmds = List.map experiment_cmd Harness.Experiments.registry @ [ run_cmd ] in
  exit (Cmd.eval (Cmd.group info cmds))

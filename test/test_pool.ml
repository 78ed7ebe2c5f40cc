(* Tests for the parallel sweep harness: the fork-based worker pool
   (ordering, failure propagation, reaping, STR_JOBS), the Sweep task
   abstraction, and the determinism contract — experiment reports render
   byte-identical whatever the worker count. *)

module Procpool = Harness.Procpool
module Sweep = Harness.Sweep

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* --- pool ----------------------------------------------------------- *)

let test_pool_ordering () =
  (* Results come back in submission order although four workers run
     their slices concurrently. *)
  let expected = List.init 64 (fun i -> i * i) in
  Alcotest.(check (list int)) "squares in order" expected
    (Procpool.run ~jobs:4 (List.init 64 (fun i () -> i * i)))

let test_pool_inline_matches_parallel () =
  let thunks () = List.init 20 (fun i () -> 3 * i) in
  Alcotest.(check (list int)) "jobs=1 and jobs=3 agree"
    (Procpool.run ~jobs:1 (thunks ()))
    (Procpool.run ~jobs:3 (thunks ()))

let test_pool_exception_propagation () =
  (* Cells 3 and 7 raise on different workers; the lowest-index failure
     is the one reported. *)
  let thunks =
    List.init 10 (fun i () -> if i = 3 || i = 7 then failwith (Printf.sprintf "boom-%d" i) else i)
  in
  match Procpool.run ~jobs:4 thunks with
  | _ -> Alcotest.fail "expected Cell_failed"
  | exception Procpool.Cell_failed msg ->
    Alcotest.(check bool) ("lowest-index failure wins: " ^ msg) true
      (String.starts_with ~prefix:"cell 3 " msg && contains msg "boom-3")

let test_pool_reaps_dead_worker () =
  (* A worker that dies must not leave its siblings unreaped: once
     [run] has raised, this process has no children left. *)
  (match Procpool.run ~jobs:2 [ (fun () -> Unix._exit 3); (fun () -> 1) ] with
  | _ -> Alcotest.fail "expected Cell_failed"
  | exception Procpool.Cell_failed msg ->
    Alcotest.(check bool) ("names the dead worker's cell: " ^ msg) true
      (String.starts_with ~prefix:"cell 0 " msg && contains msg "exited with code 3"));
  match Unix.waitpid [] (-1) with
  | pid, _ -> Alcotest.failf "child %d was left unreaped" pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let with_str_jobs value f =
  let saved = Sys.getenv_opt "STR_JOBS" in
  Unix.putenv "STR_JOBS" value;
  (* No portable unsetenv: an empty value reads as unset. *)
  Fun.protect ~finally:(fun () -> Unix.putenv "STR_JOBS" (Option.value saved ~default:"")) f

let test_default_jobs () =
  with_str_jobs "3" (fun () -> Alcotest.(check int) "STR_JOBS=3" 3 (Procpool.default_jobs ()));
  with_str_jobs "" (fun () -> Alcotest.(check int) "empty reads as unset" 1 (Procpool.default_jobs ()));
  List.iter
    (fun bad ->
      with_str_jobs bad (fun () ->
          match Procpool.default_jobs () with
          | n -> Alcotest.failf "STR_JOBS=%S accepted as %d" bad n
          | exception Invalid_argument msg ->
            Alcotest.(check bool) ("message names STR_JOBS: " ^ msg) true
              (contains msg "STR_JOBS")))
    [ "0"; "abc"; "-2" ]

(* --- sweep ---------------------------------------------------------- *)

let test_sweep_grid_order () =
  Alcotest.(check (list (pair int string)))
    "row-major product"
    [ (1, "a"); (1, "b"); (2, "a"); (2, "b") ]
    (Sweep.product [ 1; 2 ] [ "a"; "b" ]);
  let cells =
    List.map (fun (k, v) -> Sweep.cell (k, v) (fun () -> Printf.sprintf "%d%s" k v))
      (Sweep.product [ 1; 2 ] [ "a"; "b" ])
  in
  let results = Sweep.run ~jobs:3 cells in
  Alcotest.(check (list string))
    "results in enumeration order" [ "1a"; "1b"; "2a"; "2b" ]
    (List.map snd results);
  Alcotest.(check string) "keyed lookup" "2a" (Sweep.get results (2, "a"));
  try
    ignore (Sweep.get results (9, "z"));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* --- parallel determinism ------------------------------------------- *)

let small_setup config =
  let placement = Store.Placement.ring ~n_nodes:3 ~replication_factor:2 () in
  let params =
    {
      Workload.Synthetic.default with
      local_hot = 2;
      remote_hot = 10;
      local_space = 100;
      remote_space = 100;
    }
  in
  {
    Harness.Runner.topology = Dsim.Topology.uniform ~dcs:3 ~rtt_ms:40. ~intra_rtt_ms:0.5;
    replication_factor = 2;
    config;
    workload = Workload.Synthetic.make ~params placement;
    clients_per_node = 4;
    warmup_us = 500_000;
    measure_us = 2_000_000;
    seed = 3;
    jitter = 0.;
    self_tune = `Off;
    fault_plan = [];
  }

(* A trimmed protocol sweep with the same shape as the Fig. 3 grid:
   every cell is an independent Runner.run, rows assembled in grid-key
   order.  The rendered table must be byte-identical whatever [jobs]
   is — the acceptance property of the whole parallel harness. *)
let mini_sweep_report ~jobs =
  let report =
    Harness.Report.create ~title:"mini protocol sweep"
      ~headers:[ "protocol"; "thr(tx/s)"; "abort"; "lat-p50(ms)" ]
  in
  [
    ("STR", fun () -> Core.Config.str ());
    ("ClockSI-Rep", fun () -> Core.Config.clocksi_rep ());
    ("Ext-Spec", fun () -> Core.Config.ext_spec ());
  ]
  |> List.map (fun (name, mk_config) ->
         Sweep.cell name (fun () -> Harness.Runner.run (small_setup (mk_config ()))))
  |> Sweep.run ~jobs
  |> List.iter (fun (name, r) ->
         Harness.Report.add_row report
           [
             name;
             Harness.Report.f1 r.Harness.Runner.throughput;
             Harness.Report.pct r.Harness.Runner.abort_rate;
             Harness.Report.ms_of_us r.Harness.Runner.final_latency.Harness.Metrics.p50_us;
           ]);
  Harness.Report.render report

let test_sweep_parallel_deterministic () =
  let sequential = mini_sweep_report ~jobs:1 in
  let parallel = mini_sweep_report ~jobs:4 in
  Alcotest.(check string) "jobs=1 and jobs=4 render byte-identical" sequential parallel

(* The `str_sim all -j n` path (`make tables-quick JOBS=n`) end to end
   on a real (small) experiment grid: parallel execution must produce a
   complete, well-formed report. *)
let test_experiments_jobs_smoke () =
  let r =
    Harness.Experiments.(sweep ~jobs:2 (ablation_serializability Quick))
  in
  let rows = Harness.Report.rows r in
  Alcotest.(check int) "one row per grid cell" 2 (List.length rows);
  List.iter
    (fun row -> Alcotest.(check int) "full row" 5 (List.length row))
    rows;
  Alcotest.(check bool) "renders" true (String.length (Harness.Report.render r) > 0)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "results in submission order" `Quick test_pool_ordering;
          Alcotest.test_case "inline matches parallel" `Quick test_pool_inline_matches_parallel;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagation;
          Alcotest.test_case "dead worker reaped with its siblings" `Quick
            test_pool_reaps_dead_worker;
          Alcotest.test_case "STR_JOBS validated" `Quick test_default_jobs;
        ] );
      ("sweep", [ Alcotest.test_case "grid order and lookup" `Quick test_sweep_grid_order ]);
      ( "determinism",
        [
          Alcotest.test_case "report byte-identical across jobs" `Slow
            test_sweep_parallel_deterministic;
          Alcotest.test_case "experiments at jobs=2 (tables-quick path)" `Slow
            test_experiments_jobs_smoke;
        ] );
    ]

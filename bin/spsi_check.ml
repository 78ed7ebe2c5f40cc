(* Run a workload against a chosen protocol configuration, record the
   full execution history, and validate it against the SPSI (or SI)
   machine checker.

     dune exec bin/spsi_check.exe -- --protocol str --workload synth-b
     dune exec bin/spsi_check.exe -- --protocol unsafe   # watch it fail *)

open Cmdliner

(* The values `-p` accepts: the configuration and whether the run is
   held to SI rather than SPSI. *)
let protocols =
  [
    ("str", (Core.Config.str (), false));
    ("clocksi", (Core.Config.clocksi_rep (), true));
    ("extspec", (Core.Config.ext_spec (), true));
    ("physical-sr", (Core.Config.physical_sr (), false));
    ("serializable", (Core.Config.str_serializable (), false));
    ("unsafe", (Core.Config.unrestricted_speculation (), false));
  ]

let workloads =
  [
    ("synth-a", fun pl -> Workload.Synthetic.make ~params:Workload.Synthetic.synth_a pl);
    ( "synth-b",
      fun pl ->
        Workload.Synthetic.make
          ~params:{ Workload.Synthetic.synth_b with read_remote_keys = true }
          pl );
    ("tpcc", fun pl -> fst (Workload.Tpcc.make pl));
    ("rubis", fun pl -> Workload.Rubis.make pl);
  ]

let run (config, check_si) workload clients seconds seed verbose =
  (* A malformed flag exits 2 with one line naming it, before any
     simulation runs. *)
  let usage_error msg =
    prerr_endline ("spsi_check: " ^ msg);
    exit 2
  in
  if clients < 1 then usage_error "--clients must be at least 1";
  if seconds < 1 then usage_error "--seconds must be at least 1";
  let placement =
    Store.Placement.ring ~n_nodes:(Dsim.Topology.size Dsim.Topology.ec2_nine)
      ~replication_factor:6 ()
  in
  let wl = workload placement in
  let setup =
    {
      (Harness.Runner.default_setup ~workload:wl ~config) with
      clients_per_node = clients;
      warmup_us = 0;
      measure_us = seconds * 1_000_000;
      seed;
    }
  in
  let history = Spsi.History.create () in
  let result = Harness.Runner.run ~observer:(Spsi.History.record history) setup in
  Printf.printf "ran %d transactions (%.1f tx/s committed, %.1f%% aborted)\n"
    (Spsi.History.size history) result.Harness.Runner.throughput
    (100. *. result.Harness.Runner.abort_rate);
  let violations =
    if check_si then Spsi.Checker.check_si history else Spsi.Checker.check_spsi history
  in
  let criterion = if check_si then "SI" else "SPSI" in
  match violations with
  | [] ->
    Printf.printf "%s: OK — no violations found.\n" criterion;
    0
  | vs ->
    Printf.printf "%s: %d VIOLATION(S) found%s\n" criterion (List.length vs)
      (if verbose then ":" else " (pass --verbose for details):");
    if verbose then print_endline (Spsi.Checker.report vs)
    else print_endline (Spsi.Checker.report (List.filteri (fun i _ -> i < 5) vs));
    1

let () =
  let one_of table name flags =
    let names = List.map fst table in
    Arg.(
      value
      & opt (enum table) (List.assoc name table)
      & info flags ~doc:(String.concat " | " names))
  in
  let protocol = one_of protocols "str" [ "p"; "protocol" ] in
  let workload = one_of workloads "synth-b" [ "w"; "workload" ] in
  let clients = Arg.(value & opt int 4 & info [ "c"; "clients" ] ~doc:"clients per node") in
  let seconds = Arg.(value & opt int 3 & info [ "t"; "seconds" ] ~doc:"simulated seconds") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"random seed") in
  let verbose = Arg.(value & flag & info [ "verbose" ] ~doc:"print all violations") in
  let cmd =
    Cmd.v
      (Cmd.info "spsi_check"
         ~doc:"Validate a protocol run against the SPSI/SI machine checker")
      Term.(const run $ protocol $ workload $ clients $ seconds $ seed $ verbose)
  in
  exit (Cmd.eval' cmd)

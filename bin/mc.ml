(* Bounded model checker driver: exhaustively enumerate event-schedule
   interleavings of a small STR deployment and check the SPSI + liveness
   oracles at every quiescent state.

     mc --dcs 2 --keys 2 --txs 3              # clean engine, deep search
     mc --dcs 2 --keys 2 --txs 2 --broken ww  # must find violations
     mc --dcs 2 --keys 2 --txs 2 --rf 2 --crash-recover 1
                                              # crash-schedule search: node 1's
                                              # crash and recovery become two
                                              # extra transitions the explorer
                                              # orders against every delivery

   Exit status: 0 when the outcome matches the expectation flags
   (--expect-clean / --expect-violation; no flag = report only), 1
   otherwise, 2 on a bad scenario parameter or a --max-runs or
   --max-depth below 1.  A clean run that stopped at the run limit, or
   whose depth bound cut the tree, says so on its own line. *)

open Cmdliner

let run dcs keys txs rf broken crash_recover batching wheel max_runs max_depth
    expect quiet =
  if max_runs < 1 then begin
    Format.eprintf "mc: --max-runs must be at least 1@.";
    exit 2
  end;
  if max_depth < 1 then begin
    Format.eprintf "mc: --max-depth must be at least 1@.";
    exit 2
  end;
  let config = Check.Scenario.config ?seeded_bug:broken ~batching () in
  let fault_plan =
    match crash_recover with
    | None -> []
    | Some n -> [ (0, Dsim.Fault.Crash n); (0, Dsim.Fault.Recover n) ]
  in
  let queue = if wheel then `Wheel else `Heap in
  let s =
    try Check.Scenario.make ~rf ~config ~queue ~fault_plan ~dcs ~keys ~txs ()
    with Invalid_argument msg ->
      Format.eprintf "mc: %s@." msg;
      exit 2
  in
  let report =
    Check.Explorer.explore ~max_runs ~max_depth ~oracle:Check.Oracle.check s
  in
  let clean = report.Check.Explorer.violation = None in
  if not quiet then Format.printf "%a" Check.Explorer.pp_report report
  else
    Format.printf "interleavings=%d states=%d %s@."
      (Check.Explorer.interleavings report)
      report.Check.Explorer.states
      (if clean then "clean" else "VIOLATION");
  if clean && not report.Check.Explorer.exhausted then
    Format.printf "(run limit hit before exhausting the tree — raise --max-runs)@."
  else if clean && report.Check.Explorer.depth_cut then
    Format.printf "(depth bound %d cut the tree — raise --max-depth)@." max_depth;
  match expect with
  | None -> 0
  | Some `Clean -> if clean then 0 else 1
  | Some `Violation ->
    if clean then begin
      Format.printf "expected a violation, found none@.";
      1
    end
    else 0

let dcs = Arg.(value & opt int 2 & info [ "dcs" ] ~docv:"N" ~doc:"Data centers (= nodes).")
let keys = Arg.(value & opt int 2 & info [ "keys" ] ~docv:"N" ~doc:"Keys.")
let txs = Arg.(value & opt int 3 & info [ "txs" ] ~docv:"N" ~doc:"Transactions.")

let rf =
  Arg.(value & opt int 1 & info [ "rf" ] ~docv:"N" ~doc:"Replication factor.")

let broken =
  let variants =
    [
      ("ww", Some Core.Config.Skip_ww_check);
      ("spec", Some Core.Config.Unsafe_speculation);
      ("lost-commit", Some Core.Config.Lost_commit);
      ("double-res", Some Core.Config.Double_resolution);
    ]
  in
  Arg.(
    value
    & opt (enum (("none", None) :: variants)) None
    & info [ "broken" ] ~docv:"VARIANT"
        ~doc:
          "Deliberately broken engine variant: $(b,ww) skips write-write \
           certification (no pre-commit locks), $(b,spec) lifts the SPSI \
           speculative-read guards, $(b,lost-commit) makes recovery presume \
           abort even for logged commits, $(b,double-res) makes recovery \
           commit in-doubt transactions without consulting the decision log.")

let crash_recover =
  Arg.(
    value
    & opt (some int) None
    & info [ "crash-recover" ] ~docv:"NODE"
        ~doc:
          "Add a crash and a recovery of $(docv) to the explored transition \
           system (with the atomic-commitment recovery protocol on): the \
           explorer enumerates every placement of both actions relative to \
           every message delivery.")

let batching =
  Arg.(
    value & flag
    & info [ "batch" ]
        ~doc:
          "Coalesce the commit pipeline (queue-oriented speculative batching, \
           tiny window and size cap): flush timers become ordinary explored \
           transitions, and in-doubt batched prepares must still resolve \
           through the recovery protocol.")

let wheel =
  Arg.(
    value & flag
    & info [ "wheel" ]
        ~doc:
          "Create the simulator on the hierarchical timer wheel instead of the \
           binary heap.  The explorer's controlled mode supersedes either \
           structure, so counts must be identical — this flag exists to verify \
           that.")

let max_runs =
  Arg.(
    value & opt int 200_000
    & info [ "max-runs" ] ~docv:"N" ~doc:"Stop after N explored schedules.")

let max_depth =
  Arg.(
    value & opt int 4_000
    & info [ "max-depth" ] ~docv:"N"
        ~doc:"Stop branching past N choice points per run (runaway guard).")

let expect =
  let flags =
    [
      (Some `Clean, Arg.info [ "expect-clean" ] ~doc:"Exit 1 unless no violation was found.");
      ( Some `Violation,
        Arg.info [ "expect-violation" ]
          ~doc:"Exit 1 unless a violation was found (broken-variant validation)." );
    ]
  in
  Arg.(value & vflag None flags)

let quiet =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"One-line summary only.")

let cmd =
  let doc = "bounded model checking of SPSI on small STR deployments" in
  Cmd.v
    (Cmd.info "mc" ~doc)
    Term.(
      const run $ dcs $ keys $ txs $ rf $ broken $ crash_recover $ batching $ wheel
      $ max_runs $ max_depth $ expect $ quiet)

let () = exit (Cmd.eval' cmd)

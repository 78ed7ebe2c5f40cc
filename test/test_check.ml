(* Tests for the verification subsystem (lib/check): the determinism
   lint, the terminal-state oracles, hand-crafted anomaly histories
   (mutation tests for the paper's figures), and the bounded model
   checker end to end — including that deliberately broken engine
   variants are caught with a violating schedule. *)

open Store
module H = Spsi.History
module Analyzer = Check.Analyzer

let run_scenario s =
  let w = Check.Scenario.prepare s in
  Check.Scenario.start w;
  w

let txid o n = Txid.make ~origin:o ~number:n
let key ~p name = Keyspace.Key.v ~partition:p name

let history events =
  let h = H.create () in
  List.iter (H.record h) events;
  h

let ev_begin id origin rs time = Core.Types.Ev_begin { id; origin; rs; time }

let ev_read id k writer version_ts speculative time =
  Core.Types.Ev_read
    { id; key = k; writer; version_ts; speculative; start_time = time; time }

let ev_write id k time = Core.Types.Ev_write { id; key = k; time }
let ev_lc id lc unsafe time = Core.Types.Ev_local_commit { id; lc; unsafe; time }
let ev_commit id ct time = Core.Types.Ev_commit { id; ct; time }

let ev_abort id time =
  Core.Types.Ev_abort { id; reason = Core.Types.Remote_conflict; time }

let rules vs =
  List.sort_uniq String.compare
    (List.map (fun (v : Spsi.Checker.violation) -> v.rule) vs)

let has_rule rule vs = List.mem rule (rules vs)

(* --- determinism lint ---------------------------------------------- *)

(* The analyzer's token rules over one source; [file] scopes the rules.
   Hash-table order, Random, the wall clock and library printing are
   Prelude alerts (compile-fail rules in test/compile_fail/); the
   analyzer flags the Stdlib path around the Prelude. *)
let lint_findings ~file src =
  let token_rules = [ "poly-compare"; "domain-unsafe"; "prelude-bypass" ] in
  (Analyzer.analyze ~rules:token_rules [ { Analyzer.path = file; text = src } ]).findings

let finding_rules fs = List.map (fun (f : Analyzer.finding) -> f.rule) fs

let test_lint_flags_hazards () =
  (* Global Random state, the wall clock and hash-table order reached
     past the Prelude, and polymorphic compare. *)
  let src =
    "let () = Stdlib.Random.self_init ()\n\
     let t = Stdlib.Sys.time ()\n\
     let d tbl = Stdlib.Hashtbl.iter f tbl\n\
     let s l = List.sort compare l\n\
     let compare = compare\n"
  in
  let fs = lint_findings ~file:"fixture.ml" src in
  Alcotest.(check (list string))
    "all four hazards fire"
    [ "prelude-bypass"; "prelude-bypass"; "prelude-bypass"; "poly-compare"; "poly-compare" ]
    (finding_rules fs);
  Alcotest.(check (list int))
    "line numbers" [ 1; 2; 3; 4; 5 ]
    (List.map (fun (f : Analyzer.finding) -> f.line) fs)

let test_lint_allow_marker () =
  let src =
    "(* lint: allow poly-compare — int keys only *)\n\
     let ks l = List.sort compare l\n\
     let vs l = List.sort compare l\n"
  in
  let fs = lint_findings ~file:"fixture.ml" src in
  (* the marker covers only line 2; line 3 still fires *)
  Alcotest.(check (list int))
    "only the unannotated sort" [ 3 ]
    (List.map (fun (f : Analyzer.finding) -> f.line) fs)

let test_lint_allow_multiline_comment () =
  let src =
    "let f l =\n\
    \  (* lint: allow poly-compare — int keys only, across a\n\
    \     two-line comment *)\n\
    \  List.sort compare l\n"
  in
  Alcotest.(check int)
    "suppressed" 0
    (List.length (lint_findings ~file:"fixture.ml" src))

let test_lint_same_line_marker () =
  let src = "let x = List.sort compare l (* lint: allow poly-compare *)\n" in
  Alcotest.(check int)
    "suppressed" 0
    (List.length (lint_findings ~file:"fixture.ml" src))

let test_lint_ignores_strings_and_comments () =
  let src =
    "let s = \"Stdlib.Random.self_init () and List.sort compare\"\n\
     (* Stdlib.Random.bool, Stdlib.Sys.time, List.sort compare: only prose *)\n\
     let c = '\\\"'\n\
     let q = {q|Stdlib.Sys.time Stdlib.Random.|q}\n"
  in
  Alcotest.(check int)
    "nothing fires" 0
    (List.length (lint_findings ~file:"fixture.ml" src))

let test_lint_runtime_fixture () =
  (* A file written at runtime that reaches the global Random state
     past the Prelude must be flagged. *)
  let path = Filename.temp_file "lint_fixture" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "let () = Stdlib.Random.self_init ()\nlet x = Stdlib.Random.int 7\n";
      close_out oc;
      let fs =
        lint_findings ~file:path (In_channel.with_open_bin path In_channel.input_all)
      in
      Alcotest.(check (list string))
        "Stdlib.Random flagged twice" [ "prelude-bypass"; "prelude-bypass" ]
        (finding_rules fs))

let test_lint_domain_unsafe () =
  (* Toplevel mutable bindings in the simulation path are flagged; a
     binding with parameters allocates per call and is fine; indented
     (non-toplevel) allocations are fine. *)
  let src =
    "let cache = Hashtbl.create 16\n\
     let counter = ref 0\n\
     let table = Txid.Tbl.create 8\n\
     let fresh () = ref 0\n\
     let local () =\n\
    \  let t = Hashtbl.create 4 in\n\
    \  t\n"
  in
  let fs = lint_findings ~file:"lib/core/fixture.ml" src in
  Alcotest.(check (list string))
    "only the toplevel mutable bindings"
    [ "domain-unsafe"; "domain-unsafe"; "domain-unsafe" ]
    (finding_rules fs);
  Alcotest.(check (list int))
    "line numbers" [ 1; 2; 3 ]
    (List.map (fun (f : Analyzer.finding) -> f.line) fs)

let test_lint_domain_unsafe_self_init () =
  (* Random.self_init in the simulation path is domain-unsafe (and a
     nondet alert of the Prelude besides). *)
  let src = "let seed () = Random.self_init ()\n" in
  Alcotest.(check (list string))
    "domain-unsafe fires" [ "domain-unsafe" ]
    (finding_rules (lint_findings ~file:"lib/dsim/fixture.ml" src))

let test_lint_domain_unsafe_scope () =
  (* The rule is scoped to the directories whose modules run inside
     sweep cells (lib/{core,dsim,store,harness,obs,workload});
     the same source outside the simulation path produces no
     findings. *)
  let src = "let cache = Hashtbl.create 16\nlet counter = ref 0\n" in
  List.iter
    (fun file ->
      Alcotest.(check int)
        (Printf.sprintf "%s out of scope" file)
        0
        (List.length (lint_findings ~file src)))
    [ "fixture.ml"; "lib/check/analyzer.ml"; "bin/str_sim.ml" ];
  Alcotest.(check int)
    "lib/store in scope" 2
    (List.length (lint_findings ~file:"lib/store/fixture.ml" src));
  (* Workloads run inside sweep cells too (arrival processes,
     Zipf tables): in scope since the open-loop harness landed. *)
  Alcotest.(check int)
    "lib/workload in scope" 2
    (List.length (lint_findings ~file:"lib/workload/fixture.ml" src))

let test_lint_domain_unsafe_allow () =
  let src =
    "(* lint: allow domain-unsafe — interned constants, written once \
     at module initialisation *)\n\
     let cache = Hashtbl.create 16\n"
  in
  Alcotest.(check int)
    "suppressed" 0
    (List.length (lint_findings ~file:"lib/harness/fixture.ml" src))

let test_lint_no_direct_print () =
  (* Printing to stdout is a [print] alert of the Prelude, an error in
     lib/; the analyzer flags the Stdlib path around it, and not
     Format.pp_print_* (printing to a caller-supplied formatter). *)
  let src =
    "let show () = Stdlib.print_string \"hi\"\n\
     let bar () = Stdlib.Printf.printf \"x=%d\" 3\n\
     let baz ppf = Format.pp_print_string ppf \"ok\"\n\
     let qux () = Stdlib.print_endline \"done\"\n"
  in
  let fs = lint_findings ~file:"lib/harness/fixture.ml" src in
  Alcotest.(check (list string))
    "Stdlib prints flagged, pp_print_* not"
    [ "prelude-bypass"; "prelude-bypass"; "prelude-bypass" ]
    (finding_rules fs);
  Alcotest.(check (list int))
    "line numbers" [ 1; 2; 4 ]
    (List.map (fun (f : Analyzer.finding) -> f.line) fs)

let test_lint_no_direct_print_scope_and_allow () =
  (* The Stdlib path is flagged in every directory (bin/ may print, but
     through the unqualified names); the Prelude alone may name the
     originals it shadows; a marker suppresses. *)
  let src = "let go () = Stdlib.print_endline \"report\"\n" in
  List.iter
    (fun (file, n) ->
      Alcotest.(check int) file n (List.length (lint_findings ~file src)))
    [
      ("lib/harness/fixture.ml", 1);
      ("bin/str_sim.ml", 1);
      ("examples/quickstart.ml", 1);
      ("lib/prelude/prelude.ml", 0);
    ];
  let allowed =
    "(* lint: allow prelude-bypass — sanctioned report sink *)\n\
     let print t = Stdlib.print_string (render t)\n"
  in
  Alcotest.(check int)
    "marker suppresses" 0
    (List.length (lint_findings ~file:"lib/harness/fixture.ml" allowed))

(* --- checker output determinism (satellite) ------------------------- *)

let messy_history () =
  (* two SPSI-2 conflicts + an SPSI-1 missed version, recorded in an
     order designed to exercise the canonical sort *)
  let t1 = txid 1 1 and t2 = txid 0 1 and t3 = txid 1 2 in
  let x = key ~p:0 "x" and y = key ~p:1 "y" in
  history
    [
      ev_begin t1 1 100 0;
      ev_write t1 x 1;
      ev_write t1 y 1;
      ev_commit t1 150 5;
      ev_begin t2 0 120 2;
      ev_write t2 x 3;
      ev_write t2 y 3;
      ev_commit t2 160 6;
      ev_begin t3 1 200 7;
      ev_read t3 x (Some (txid (-1) 0)) 0 false 8;
      ev_commit t3 200 9;
    ]

let test_checker_deterministic () =
  let vs1 = Spsi.Checker.check_spsi (messy_history ()) in
  let vs2 = Spsi.Checker.check_spsi (messy_history ()) in
  Alcotest.(check bool) "two runs agree" true (vs1 = vs2);
  let canonical =
    List.sort_uniq
      (fun (a : Spsi.Checker.violation) b ->
        match String.compare a.rule b.rule with
        | 0 -> String.compare a.detail b.detail
        | c -> c)
      vs1
  in
  Alcotest.(check bool) "output is sorted and deduplicated" true (vs1 = canonical);
  Alcotest.(check bool) "spsi-1 and spsi-2 both present" true
    (has_rule "SPSI-1" vs1 && has_rule "SPSI-2" vs1)

(* --- oracle unit tests ---------------------------------------------- *)

let test_oracle_deadlock () =
  let t1 = txid 0 1 in
  let x = key ~p:0 "x" in
  let h = history [ ev_begin t1 0 100 0; ev_write t1 x 1 ] in
  Alcotest.(check bool) "deadlock reported" true
    (has_rule "MC-deadlock" (Check.Oracle.check_deadlock h));
  Alcotest.(check int) "but no lost lc" 0
    (List.length (Check.Oracle.check_lost_local_commit h))

let test_oracle_lost_lc () =
  let t1 = txid 0 1 in
  let x = key ~p:0 "x" in
  let h =
    history [ ev_begin t1 0 100 0; ev_write t1 x 1; ev_lc t1 105 false 2 ]
  in
  Alcotest.(check bool) "lost local commit reported" true
    (has_rule "MC-lost-lc" (Check.Oracle.check_lost_local_commit h))

let test_oracle_monotonic_rs () =
  let t1 = txid 0 1 and t2 = txid 0 2 and t3 = txid 1 1 in
  let h =
    history
      [
        ev_begin t1 0 100 0;
        ev_commit t1 110 1;
        ev_begin t3 1 50 2 (* other node: lower rs is fine *);
        ev_commit t3 60 3;
        ev_begin t2 0 90 4 (* same node, rs went backwards *);
        ev_commit t2 95 5;
      ]
  in
  Alcotest.(check bool) "regression reported" true
    (has_rule "MC-monotonic-rs" (Check.Oracle.check_monotonic_rs h))

let test_oracle_clean () =
  let t1 = txid 0 1 in
  let x = key ~p:0 "x" in
  let h =
    history
      [
        ev_begin t1 0 100 0;
        ev_write t1 x 1;
        ev_lc t1 105 false 2;
        ev_commit t1 110 3;
      ]
  in
  Alcotest.(check int) "no oracle findings" 0
    (List.length
       (Check.Oracle.check_deadlock h
       @ Check.Oracle.check_lost_local_commit h
       @ Check.Oracle.check_monotonic_rs h))

(* --- anomaly mutation tests (paper figures) ------------------------- *)

let test_fig1b_snapshot_conflict () =
  (* Fig. 1(b): T3's speculative snapshot contains T1 (local-committed,
     wrote x and y) and T2 (committed, wrote y): two transactions of one
     snapshot conflicting on y — exactly what SPSI-3 forbids. *)
  let t1 = txid 0 1 and t2 = txid 1 1 and t3 = txid 0 2 in
  let x = key ~p:0 "x" and y = key ~p:1 "y" in
  let h =
    history
      [
        ev_begin t1 0 5 0;
        ev_write t1 x 1;
        ev_write t1 y 1;
        ev_lc t1 6 true 2;
        ev_begin t2 1 5 3;
        ev_write t2 y 4;
        ev_commit t2 10 5;
        ev_begin t3 0 20 6;
        ev_read t3 x (Some t1) 0 true 7;
        ev_read t3 y (Some t2) 10 false 8;
        ev_abort t1 9;
        ev_abort t3 10;
      ]
  in
  Alcotest.(check bool) "SPSI-3 tagged" true
    (has_rule "SPSI-3" (Spsi.Checker.check_spsi h))

let test_fig2_closure_conflict () =
  (* Fig. 2: the conflict is only visible through the transitive
     read-from closure — T4 reads from T1 (speculative) and from T3,
     T3 read from T2, and T2 conflicts with T1 on key a. *)
  let t1 = txid 0 1 and t2 = txid 1 1 and t3 = txid 2 1 and t4 = txid 0 2 in
  let a = key ~p:1 "A" and b = key ~p:2 "B" and c = key ~p:0 "C" in
  let h =
    history
      [
        ev_begin t1 0 5 0;
        ev_read t1 a (Some (txid (-1) 0)) 0 false 1;
        ev_write t1 a 1;
        ev_write t1 c 1;
        ev_lc t1 6 true 2;
        ev_begin t2 1 8 3;
        ev_write t2 a 4;
        ev_commit t2 10 5;
        ev_begin t3 2 12 6;
        ev_read t3 a (Some t2) 10 false 7;
        ev_write t3 b 8;
        ev_commit t3 15 9;
        ev_begin t4 0 20 10;
        ev_read t4 c (Some t1) 0 true 11;
        ev_read t4 b (Some t3) 15 false 12;
        ev_abort t1 13;
        ev_abort t4 14;
      ]
  in
  Alcotest.(check bool) "SPSI-3 tagged via closure" true
    (has_rule "SPSI-3" (Spsi.Checker.check_spsi h))

let test_ww_si_violation () =
  (* Two concurrent committed writers of one key: first-committer-wins
     broken, tagged SPSI-2. *)
  let t1 = txid 0 1 and t2 = txid 1 1 in
  let x = key ~p:0 "x" in
  let h =
    history
      [
        ev_begin t1 0 100 0;
        ev_write t1 x 1;
        ev_commit t1 150 5;
        ev_begin t2 1 120 2;
        ev_write t2 x 3;
        ev_commit t2 160 6;
      ]
  in
  let vs = Spsi.Checker.check_spsi h in
  Alcotest.(check (list string)) "exactly SPSI-2" [ "SPSI-2" ] (rules vs)

(* --- model checker end to end ---------------------------------------- *)

let test_mc_small_exhaustive_clean () =
  let s = Check.Scenario.make ~dcs:2 ~keys:2 ~txs:2 () in
  let r = Check.Explorer.explore ~max_runs:20_000 ~oracle:Check.Oracle.check s in
  Alcotest.(check bool) "no violation" true (r.Check.Explorer.violation = None);
  Alcotest.(check bool) "tree exhausted" true r.Check.Explorer.exhausted;
  Alcotest.(check bool) "non-trivial tree" true
    (Check.Explorer.interleavings r > 500)

let test_mc_catches_skipped_ww_check () =
  (* The engine variant that never takes pre-commit locks must be caught
     with a concrete schedule. *)
  let config = Check.Scenario.config ~seeded_bug:Core.Config.Skip_ww_check () in
  let s = Check.Scenario.make ~config ~dcs:2 ~keys:2 ~txs:2 () in
  let r = Check.Explorer.explore ~max_runs:20_000 ~oracle:Check.Oracle.check s in
  match r.Check.Explorer.violation with
  | None -> Alcotest.fail "expected a violation"
  | Some (schedule, vs) ->
    Alcotest.(check bool) "SPSI-2 reported" true (has_rule "SPSI-2" vs);
    Alcotest.(check bool) "schedule reported" true (schedule <> [])

let test_mc_catches_unrestricted_speculation () =
  let config = Check.Scenario.config ~seeded_bug:Core.Config.Unsafe_speculation () in
  let s = Check.Scenario.make ~config ~dcs:2 ~keys:2 ~txs:3 () in
  let r = Check.Explorer.explore ~max_runs:50_000 ~oracle:Check.Oracle.check s in
  match r.Check.Explorer.violation with
  | None -> Alcotest.fail "expected a violation"
  | Some (_, vs) ->
    Alcotest.(check bool) "SPSI-1 reported" true (has_rule "SPSI-1" vs)

let test_mc_replay_deterministic () =
  (* Identical worlds under the default schedule produce identical
     histories — the property the whole replay search rests on. *)
  let s = Check.Scenario.make ~dcs:2 ~keys:2 ~txs:3 () in
  let w1 = run_scenario s and w2 = run_scenario s in
  Alcotest.(check int) "history fingerprints agree"
    (H.fingerprint w1.Check.Scenario.history)
    (H.fingerprint w2.Check.Scenario.history);
  Alcotest.(check int) "engine fingerprints agree"
    (Core.Engine.fingerprint w1.Check.Scenario.eng)
    (Core.Engine.fingerprint w2.Check.Scenario.eng)

(* --- crash-schedule model checking ----------------------------------- *)

(* Crash and restart of node [n], both planned at t=0 so the explorer's
   [Fault] lane is free to interleave them anywhere in the run (in
   order): every prefix of the protocol can be hit by the crash, and
   recovery can land at any later point. *)
let crash_recover n = [ (0, Dsim.Fault.Crash n); (0, Dsim.Fault.Recover n) ]

let test_mc_crash_recover_exhaustive_clean () =
  (* Two writers contend on one fully replicated key while node 1
     crashes and restarts at every reachable point of the protocol.
     The recovery oracles (REC-durable / REC-atomic / REC-in-doubt) and
     the liveness oracles must stay silent across the whole tree. *)
  let s =
    Check.Scenario.make ~dcs:2 ~keys:1 ~txs:2 ~rf:2
      ~fault_plan:(crash_recover 1) ()
  in
  let r = Check.Explorer.explore ~max_runs:50_000 ~oracle:Check.Oracle.check s in
  Alcotest.(check bool) "no violation" true (r.Check.Explorer.violation = None);
  Alcotest.(check bool) "tree exhausted" true r.Check.Explorer.exhausted;
  Alcotest.(check bool) "crash points actually explored" true
    (Check.Explorer.interleavings r > 2_000)

let test_mc_crash_recover_rf1_exhaustive_clean () =
  (* rf=1: the crashed node's partition has no surviving replica, so
     fail-over cannot promote and availability is lost for the down
     window — the perfect failure detector must turn every touch of the
     dead partition into a clean Node_failure abort, never a deadlock or
     a dangling in-doubt prepare. *)
  let s =
    Check.Scenario.make ~dcs:2 ~keys:2 ~txs:2 ~rf:1
      ~fault_plan:(crash_recover 1) ()
  in
  let r = Check.Explorer.explore ~max_runs:200_000 ~oracle:Check.Oracle.check s in
  Alcotest.(check bool) "no violation" true (r.Check.Explorer.violation = None);
  Alcotest.(check bool) "tree exhausted" true r.Check.Explorer.exhausted

let test_mc_catches_lost_commit () =
  (* Recovery variant that presumes abort without consulting the
     persistent decision log: a commit decided just before the crash is
     silently rolled back at the recovering replica.  The crash-schedule
     search must produce a concrete schedule violating durability. *)
  let config = Check.Scenario.config ~seeded_bug:Core.Config.Lost_commit () in
  let s =
    Check.Scenario.make ~config ~dcs:2 ~keys:1 ~txs:2 ~rf:2
      ~fault_plan:(crash_recover 1) ()
  in
  let r = Check.Explorer.explore ~max_runs:10_000 ~oracle:Check.Oracle.check s in
  match r.Check.Explorer.violation with
  | None -> Alcotest.fail "expected a durability violation"
  | Some (schedule, vs) ->
    Alcotest.(check bool) "REC-durable reported" true (has_rule "REC-durable" vs);
    Alcotest.(check bool) "schedule reported" true (schedule <> [])

let test_mc_catches_double_resolution () =
  (* Recovery variant that presumes commit for in-doubt prepares: an
     aborted transaction's write resurfaces as a committed version at
     the recovering replica — atomicity across replicas is broken. *)
  let config = Check.Scenario.config ~seeded_bug:Core.Config.Double_resolution () in
  let s =
    Check.Scenario.make ~config ~dcs:2 ~keys:1 ~txs:2 ~rf:2
      ~fault_plan:(crash_recover 1) ()
  in
  let r = Check.Explorer.explore ~max_runs:10_000 ~oracle:Check.Oracle.check s in
  match r.Check.Explorer.violation with
  | None -> Alcotest.fail "expected an atomicity violation"
  | Some (schedule, vs) ->
    Alcotest.(check bool) "REC-atomic reported" true (has_rule "REC-atomic" vs);
    Alcotest.(check bool) "schedule reported" true (schedule <> [])

(* Golden values recorded from the seed (list-backed chain, recomputing
   storage accounting) implementation.  The array-chain / incremental
   accounting rewrite must reproduce them bit for bit: the model
   checker's visited-state dedup and schedule replay both key on the
   engine fingerprint, so any drift would silently invalidate every
   cached exploration result. *)
let test_engine_fingerprint_stable () =
  let s = Check.Scenario.make ~dcs:2 ~keys:2 ~txs:3 () in
  let w = run_scenario s in
  Alcotest.(check int) "dcs=2 keys=2 txs=3 unchanged from seed"
    1189715992851423001
    (Core.Engine.fingerprint w.Check.Scenario.eng);
  let s' = Check.Scenario.make ~rf:1 ~dcs:3 ~keys:2 ~txs:4 () in
  let w' = run_scenario s' in
  Alcotest.(check int) "rf=1 dcs=3 keys=2 txs=4 unchanged from seed"
    (-1051345532034841483)
    (Core.Engine.fingerprint w'.Check.Scenario.eng)

let () =
  Alcotest.run "check"
    [
      ( "lint",
        [
          Alcotest.test_case "flags the four hazards" `Quick test_lint_flags_hazards;
          Alcotest.test_case "allow marker" `Quick test_lint_allow_marker;
          Alcotest.test_case "multi-line marker" `Quick test_lint_allow_multiline_comment;
          Alcotest.test_case "same-line marker" `Quick test_lint_same_line_marker;
          Alcotest.test_case "strings and comments" `Quick
            test_lint_ignores_strings_and_comments;
          Alcotest.test_case "runtime fixture" `Quick test_lint_runtime_fixture;
          Alcotest.test_case "domain-unsafe toplevel state" `Quick test_lint_domain_unsafe;
          Alcotest.test_case "domain-unsafe self_init" `Quick test_lint_domain_unsafe_self_init;
          Alcotest.test_case "domain-unsafe scoping" `Quick test_lint_domain_unsafe_scope;
          Alcotest.test_case "domain-unsafe allow marker" `Quick test_lint_domain_unsafe_allow;
          Alcotest.test_case "no-direct-print" `Quick test_lint_no_direct_print;
          Alcotest.test_case "no-direct-print scope and marker" `Quick
            test_lint_no_direct_print_scope_and_allow;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "checker output deterministic" `Quick
            test_checker_deterministic;
          Alcotest.test_case "engine fingerprint golden" `Quick
            test_engine_fingerprint_stable;
          Alcotest.test_case "deadlock" `Quick test_oracle_deadlock;
          Alcotest.test_case "lost local commit" `Quick test_oracle_lost_lc;
          Alcotest.test_case "monotonic rs" `Quick test_oracle_monotonic_rs;
          Alcotest.test_case "clean history" `Quick test_oracle_clean;
        ] );
      ( "anomalies",
        [
          Alcotest.test_case "Fig 1(b) snapshot conflict" `Quick
            test_fig1b_snapshot_conflict;
          Alcotest.test_case "Fig 2 closure conflict" `Quick test_fig2_closure_conflict;
          Alcotest.test_case "w-w SI violation" `Quick test_ww_si_violation;
        ] );
      ( "model-checker",
        [
          Alcotest.test_case "small config exhaustive clean" `Slow
            test_mc_small_exhaustive_clean;
          Alcotest.test_case "catches skipped ww check" `Quick
            test_mc_catches_skipped_ww_check;
          Alcotest.test_case "catches unrestricted speculation" `Slow
            test_mc_catches_unrestricted_speculation;
          Alcotest.test_case "replay deterministic" `Quick test_mc_replay_deterministic;
        ] );
      ( "crash-schedules",
        [
          Alcotest.test_case "crash-recover exhaustive clean" `Quick
            test_mc_crash_recover_exhaustive_clean;
          Alcotest.test_case "crash-recover rf=1 exhaustive clean" `Slow
            test_mc_crash_recover_rf1_exhaustive_clean;
          Alcotest.test_case "catches lost commit decision" `Quick
            test_mc_catches_lost_commit;
          Alcotest.test_case "catches double resolution" `Quick
            test_mc_catches_double_resolution;
        ] );
    ]

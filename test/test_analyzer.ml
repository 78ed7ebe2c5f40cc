(* Tests for the protocol-flow static analyzer (Check.Analyzer) and the
   shared token lexer (Check.Token).

   The semantic rules are exercised both ways on in-memory fixture
   corpora whose paths mimic the real tree layout (so the default
   configuration's suffix matching applies): a seeded violation must
   fire, and the repaired twin must be clean.  The clean-real-tree
   direction is covered by the root `dune runtest` rule, which runs
   bin/lint.exe over lib/, bin/ and examples/ and fails on any finding.
   The conventions the compiler checks (the Prelude's alerts, warning 9
   on the fingerprints, required send labels) have compile-fail rules
   in test/compile_fail/ instead. *)

module A = Check.Analyzer
module T = Check.Token

let src path text = { A.path; A.text }

let run ?rules srcs = A.analyze ?rules srcs

let fired report =
  List.sort_uniq String.compare
    (List.map (fun (f : A.finding) -> f.A.rule) report.A.findings)

let check_fired msg report rules =
  Alcotest.(check (list string)) msg rules (fired report)

let find_rule report rule =
  List.filter (fun (f : A.finding) -> f.A.rule = rule) report.A.findings

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_nested_comments () =
  let lx = T.lex "(* a (* nested (* deeper *) still *) b *)\nlet x = 1\n" in
  let texts = Array.to_list lx.T.tokens |> List.map (fun t -> t.T.text) in
  Alcotest.(check (list string)) "only the code tokenizes" [ "let"; "x"; "="; "1" ] texts;
  (match lx.T.tokens.(0) with
  | { T.line = 2; T.col = 0; _ } -> ()
  | t -> Alcotest.failf "let at %d:%d, expected 2:0" t.T.line t.T.col);
  match lx.T.comments with
  | [ c ] ->
    Alcotest.(check int) "comment opens on line 1" 1 c.T.cline;
    Alcotest.(check bool) "nested body captured" true
      (String.length c.T.ctext > 0)
  | cs -> Alcotest.failf "expected 1 comment, got %d" (List.length cs)

let test_lexer_strings_hide_code () =
  (* A string containing a comment closer and an escaped quote must not
     derail the scan; the following code still tokenizes at the right
     position. *)
  let lx = T.lex "let s = \"x *) \\\" Random.\" in\nRandom.int 3\n" in
  let on_line2 =
    Array.to_list lx.T.tokens |> List.filter (fun t -> t.T.line = 2)
  in
  Alcotest.(check (list string)) "line 2 tokens"
    [ "Random"; "."; "int"; "3" ]
    (List.map (fun t -> t.T.text) on_line2)

let test_lexer_quoted_string () =
  let lx = T.lex "let q = {xy|\" *) |x} Random.|xy} in\nlet z = 1\n" in
  let on_line2 =
    Array.to_list lx.T.tokens |> List.filter (fun t -> t.T.line = 2)
  in
  Alcotest.(check (list string)) "code after {id|...|id}"
    [ "let"; "z"; "="; "1" ]
    (List.map (fun t -> t.T.text) on_line2);
  Alcotest.(check bool) "no Random token leaks from the literal" true
    (Array.for_all (fun t -> t.T.text <> "Random") lx.T.tokens)

let test_lexer_char_literals () =
  (* '\'' and '\n' are literals, not quote/comment starts; 'a' likewise;
     a lone quote after an identifier is a type-variable-style symbol. *)
  let lx = T.lex "let c = '\\'' let d = '\\n' let e = 'a' let f = c\n" in
  let kinds = Array.to_list lx.T.tokens |> List.map (fun t -> t.T.kind) in
  let n_chars = List.length (List.filter (fun k -> k = T.Char_lit) kinds) in
  Alcotest.(check int) "three char literals" 3 n_chars

let test_lexer_labels () =
  let lx = T.lex "send eng ~kind:M_a ?opt ~cost:(f 1)\n" in
  let labels =
    Array.to_list lx.T.tokens
    |> List.filter (fun t -> t.T.kind = T.Label)
    |> List.map (fun t -> t.T.text)
  in
  Alcotest.(check (list string)) "labels carry bare names"
    [ "kind"; "opt"; "cost" ] labels

let prop_strip_preserves_lines =
  let chars =
    [ 'a'; 'Z'; '0'; ' '; '\n'; '"'; '('; ')'; '*'; '\''; '\\'; '{'; '|'; '}'; '~'; '.'; '=' ]
  in
  QCheck.Test.make ~name:"strip preserves length and newline positions" ~count:500
    (QCheck.make
       QCheck.Gen.(string_size ~gen:(oneofl chars) (int_bound 200)))
    (fun s ->
      let s' = (T.lex s).stripped in
      String.length s' = String.length s
      && (let ok = ref true in
          String.iteri
            (fun i c ->
              if (c = '\n') <> (s'.[i] = '\n') then ok := false)
            s;
          !ok))

(* ------------------------------------------------------------------ *)
(* Fixture corpus                                                      *)
(* ------------------------------------------------------------------ *)

let trace_ok =
  src "lib/obs/trace.ml"
    {fix|type msg_kind = M_a | M_b | M_c
let msg_kinds = [ M_a; M_b; M_c ]
let msg_name = function M_a -> 1 | M_b -> 2 | M_c -> 3
|fix}

let engine_sends_ok =
  src "lib/core/engine.ml"
    {fix|let run eng =
  send eng ~kind:M_a ~ctx:(o, n) ~cost:1 ();
  send eng ~kind:M_b ~ctx:(o, n) ~cost:2 ();
  send eng ~kind:M_c ~ctx:(o, n) ~cost:3 ()
|fix}

let test_message_flow_clean () =
  check_fired "complete flow is clean" (run [ trace_ok; engine_sends_ok ]) []

let test_message_flow_missing_arm () =
  let trace_bad =
    src "lib/obs/trace.ml"
      {fix|type msg_kind = M_a | M_b | M_c
let msg_kinds = [ M_a; M_b; M_c ]
let msg_name = function M_a -> 1 | M_b -> 2
|fix}
  in
  let report = run [ trace_bad; engine_sends_ok ] in
  check_fired "missing arm fires" report [ "message-flow" ];
  match find_rule report "message-flow" with
  | [ f ] ->
    Alcotest.(check int) "at the incomplete table" 3 f.A.line;
    Alcotest.(check bool) "names the kind and the table" true
      (f.A.message = "message kind M_c has no arm in 'msg_name'; the \
                      dispatch/coverage table is incomplete")
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

let test_message_flow_dead_kind () =
  let engine_partial =
    src "lib/core/engine.ml"
      {fix|let run eng =
  send eng ~kind:M_a ~ctx:(o, n) ~cost:1 ();
  send eng ~kind:M_b ~ctx:(o, n) ~cost:2 ()
|fix}
  in
  let report = run [ trace_ok; engine_partial ] in
  check_fired "dead kind fires" report [ "message-flow" ];
  match find_rule report "message-flow" with
  | [ f ] ->
    Alcotest.(check int) "at the declaration" 1 f.A.line;
    Alcotest.(check bool) "reported as dead" true
      (f.A.message = "message kind M_c is declared but never sent (dead kind)")
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

let test_message_flow_unknown_kind () =
  let engine_unknown =
    src "lib/core/engine.ml"
      {fix|let run eng =
  send eng ~kind:M_a ~ctx:(o, n) ~cost:1 ();
  send eng ~kind:M_b ~ctx:(o, n) ~cost:2 ();
  send eng ~kind:M_c ~ctx:(o, n) ~cost:3 ();
  send eng ~kind:M_zzz ~ctx:(o, n) ~cost:4 ()
|fix}
  in
  let report = run [ trace_ok; engine_unknown ] in
  check_fired "unknown kind fires" report [ "message-flow" ];
  match find_rule report "message-flow" with
  | [ f ] -> Alcotest.(check int) "at the send site" 5 f.A.line
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

(* Batched-pipeline send sites: [send_work] (queue for coalescing) and
   [send_batch] (emit a coalesced flush) are message sends for flow
   purposes — kinds sent only through them are not dead, and an
   unregistered batch kind at a [send_batch] site must still fire. *)

let trace_batched =
  src "lib/obs/trace.ml"
    {fix|type msg_kind = M_a | M_b | M_ab
let msg_kinds = [ M_a; M_b; M_ab ]
let msg_name = function M_a -> 1 | M_b -> 2 | M_ab -> 3
|fix}

let test_message_flow_batched_sites () =
  let engine_batched =
    src "lib/core/engine.ml"
      {fix|let run eng =
  send_work eng ~kind:M_a ~ctx:(o, n) ~cost:1 ();
  send eng ~kind:M_b ~ctx:(o, n) ~cost:2 ();
  send_batch eng ~kind:M_ab ~n:3 ()
|fix}
  in
  check_fired "batched flow is clean" (run [ trace_batched; engine_batched ]) [];
  let engine_unregistered =
    src "lib/core/engine.ml"
      {fix|let run eng =
  send_work eng ~kind:M_a ~ctx:(o, n) ~cost:1 ();
  send eng ~kind:M_b ~ctx:(o, n) ~cost:2 ();
  send_batch eng ~kind:M_ab ~n:3 ();
  send_batch eng ~kind:M_zz_batch ~n:2 ()
|fix}
  in
  let report = run [ trace_batched; engine_unregistered ] in
  check_fired "unregistered batch kind fires" report [ "message-flow" ];
  match find_rule report "message-flow" with
  | [ f ] ->
    Alcotest.(check int) "at the flush send site" 5 f.A.line;
    let prefix = "sent message kind M_zz_batch is not declared" in
    Alcotest.(check bool) "reported as undeclared" true
      (String.length f.A.message >= String.length prefix
      && String.sub f.A.message 0 (String.length prefix) = prefix)
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

(* A marker naming no rule it can suppress (a typo, or a rule the
   compiler checks instead) is reported as stale, naming the word,
   instead of silently doing nothing. *)
let check_unknown_marker report ~line rule =
  check_fired "the leftover marker is reported" report [ "unused-allow" ];
  match report.A.findings with
  | [ f ] ->
    Alcotest.(check int) "at the marker line" line f.A.line;
    Alcotest.(check string) "names the rule"
      (Printf.sprintf
         "allow marker names '%s', which is no rule it can suppress; remove it" rule)
      f.A.message
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

let test_causal_coverage_allow_marker () =
  (* [~ctx] is a required label of every send: a send without one does
     not compile, so there is nothing left to allow. *)
  let engine_marked =
    src "lib/core/engine.ml"
      {fix|let run eng =
  send eng ~kind:M_a ~ctx:(o, n) ~dcost:1 ();
  (* lint: allow causal-coverage *)
  send eng ~kind:M_b ~ctx:(o, n) ~dcost:2 ();
  send eng ~kind:M_c ~ctx:(o, n) ~dcost:3 ()
|fix}
  in
  check_unknown_marker (run [ trace_ok; engine_marked ]) ~line:3 "causal-coverage"

let test_fingerprint_allow_marker () =
  (* A field the fingerprint leaves out is named [field = _] in its
     exhaustive pattern (warning 9), with the reason beside it. *)
  let types_marked =
    src "lib/core/types.ml"
      "type tx = {\n  mutable aa : int;\n  (* lint: allow fingerprint-coverage — \
       stat counter *)\n  mutable bb : int;\n}\n"
  in
  let engine_fp = src "lib/core/engine.ml" "let fingerprint { aa; bb = _ } = combine 17 aa\n" in
  check_unknown_marker (run [ types_marked; engine_fp ]) ~line:3 "fingerprint-coverage"

let test_span_pairing () =
  let closed =
    src "lib/core/flow.ml"
      {fix|let timed t =
  let s = Obs.Trace.span_begin t ~kind:1 in
  work t;
  Obs.Trace.span_end t s
|fix}
  in
  check_fired "closed span is clean" (run [ closed ]) [];
  let dangling =
    src "lib/core/flow.ml"
      {fix|let timed t =
  let s = Obs.Trace.span_begin t ~kind:1 in
  work t s
|fix}
  in
  let report = run [ dangling ] in
  check_fired "dangling span fires" report [ "span-pairing" ];
  match find_rule report "span-pairing" with
  | [ f ] -> Alcotest.(check int) "at the open site" 2 f.A.line
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

let test_span_pairing_escaped () =
  let opener =
    src "lib/core/flow.ml" "let start t = t.sp <- Obs.Trace.span_begin t ~kind:1\n"
  in
  let closer =
    src "lib/core/flow_end.ml" "let finish t = Obs.Trace.span_end t.tr t.sp\n"
  in
  check_fired "field-stashed span with a closer is clean" (run [ opener; closer ]) [];
  let report = run [ opener ] in
  check_fired "field-stashed span without any closer fires" report [ "span-pairing" ]

let test_span_mli_and_trace_exempt () =
  (* Declarations and the trace module itself are not span opens. *)
  let mli = src "lib/obs/other.mli" "val span_begin : t -> kind:int -> int\n" in
  let trace_def =
    src "lib/obs/trace.ml"
      "type msg_kind = M_a | M_b\nlet msg_name = function M_a -> 1 | M_b -> 2\n\
       let span_begin t = alloc t\n"
  in
  let sender =
    src "lib/core/engine.ml"
      "let run eng =\n  send eng ~kind:M_a ~ctx:(o, n) ~cost:1 ();\n  send eng \
       ~kind:M_b ~ctx:(o, n) ~cost:2 ()\n"
  in
  check_fired "no span findings" (run [ mli; trace_def; sender ]) []

let test_unused_allow () =
  let stale =
    src "lib/core/stale.ml" "(* lint: allow poly-compare *)\nlet pick n = n + 1\n"
  in
  let report = run [ stale ] in
  check_fired "stale marker fires" report [ "unused-allow" ];
  (match report.A.findings with
  | [ f ] ->
    Alcotest.(check bool) "warning severity" true (f.A.severity = A.Warning);
    Alcotest.(check int) "at the marker line" 1 f.A.line
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
  let used =
    src "lib/core/used.ml"
      "(* lint: allow poly-compare *)\nlet pick l = List.sort compare l\n"
  in
  check_fired "used marker is silent both ways" (run [ used ]) []

let test_unknown_rule () =
  (* Only the first word of each comma-separated part must be a rule
     name; prose after it is not. *)
  let marked =
    src "lib/core/used.ml"
      "(* lint: allow poly-compare, hashtbl-order — sorted below *)\n\
       let pick l = List.sort compare l\n"
  in
  check_unknown_marker (run [ marked ]) ~line:1 "hashtbl-order";
  let typo = src "lib/core/typo.ml" "let x = 1 (* lint: allow poly_compare *)\n" in
  check_unknown_marker (run [ typo ]) ~line:1 "poly"

let test_rule_filter () =
  let engine_unknown =
    src "lib/core/engine.ml" "let run eng = send eng ~kind:M_zzz ()\n"
  in
  let sorter = src "lib/core/sorter.ml" "let ks l = List.sort compare l\n" in
  let report = run ~rules:[ "poly-compare" ] [ trace_ok; engine_unknown; sorter ] in
  check_fired "filter reports only the requested rule" report [ "poly-compare" ]

(* ------------------------------------------------------------------ *)
(* Renderers                                                           *)
(* ------------------------------------------------------------------ *)

let corpus =
  [
    trace_ok;
    engine_sends_ok;
    src "lib/core/stale.ml" "(* lint: allow poly-compare *)\nlet pick n = n + 1\n";
    src "lib/core/flow.ml"
      "let timed t =\n  let s = Obs.Trace.span_begin t ~kind:1 in\n  work t s\n";
    src "lib/store/hot.ml" "let dump t = Stdlib.Hashtbl.iter visit t.chains\n";
    src "lib/dsim/seedy.ml" "let boot () = Random.self_init ()\n";
    src "lib/workload/wl.ml" "let ks l = List.sort compare l\n";
    src "lib/harness/out.ml" "let show r = Stdlib.print_endline r\n";
  ]

let test_render_shapes () =
  let report = run corpus in
  let txt = A.render_text report in
  List.iter
    (fun (f : A.finding) ->
      let line =
        Printf.sprintf "%s:%d:%d: %s [%s] %s" f.file f.line f.col
          (match f.severity with A.Error -> "error" | A.Warning -> "warning")
          f.rule f.message
      in
      Alcotest.(check bool) (line ^ " present in text") true
        (List.mem line (String.split_on_char '\n' txt)))
    report.A.findings;
  let js = A.render_json report in
  match Harness.Bench_json.parse js with
  | Error e -> Alcotest.failf "render_json does not parse: %s" e
  | Ok (Harness.Bench_json.Obj top) ->
    Alcotest.(check bool) "sarif version present" true
      (List.mem_assoc "version" top && List.mem_assoc "runs" top)
  | Ok _ -> Alcotest.fail "render_json is not an object"

let () =
  Alcotest.run "analyzer"
    [
      ( "lexer",
        [
          Alcotest.test_case "nested comments" `Quick test_lexer_nested_comments;
          Alcotest.test_case "strings hide code" `Quick test_lexer_strings_hide_code;
          Alcotest.test_case "quoted strings" `Quick test_lexer_quoted_string;
          Alcotest.test_case "char literals" `Quick test_lexer_char_literals;
          Alcotest.test_case "labels" `Quick test_lexer_labels;
          QCheck_alcotest.to_alcotest prop_strip_preserves_lines;
        ] );
      ( "message-flow",
        [
          Alcotest.test_case "clean" `Quick test_message_flow_clean;
          Alcotest.test_case "missing arm" `Quick test_message_flow_missing_arm;
          Alcotest.test_case "dead kind" `Quick test_message_flow_dead_kind;
          Alcotest.test_case "unknown kind" `Quick test_message_flow_unknown_kind;
          Alcotest.test_case "batched send sites" `Quick
            test_message_flow_batched_sites;
        ] );
      ( "causal-coverage",
        [ Alcotest.test_case "allow marker" `Quick test_causal_coverage_allow_marker ] );
      ( "fingerprint-coverage",
        [ Alcotest.test_case "allow marker" `Quick test_fingerprint_allow_marker ] );
      ( "span-pairing",
        [
          Alcotest.test_case "let-bound handles" `Quick test_span_pairing;
          Alcotest.test_case "escaped handles" `Quick test_span_pairing_escaped;
          Alcotest.test_case "mli/trace exempt" `Quick test_span_mli_and_trace_exempt;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "unused-allow both ways" `Quick test_unused_allow;
          Alcotest.test_case "unknown rule named" `Quick test_unknown_rule;
          Alcotest.test_case "rule filter" `Quick test_rule_filter;
        ] );
      ("render", [ Alcotest.test_case "text and sarif shapes" `Quick test_render_shapes ]);
    ]

(* Static-analysis driver: run Check.Analyzer (the token rules no type
   can state + the cross-file protocol-flow rules) over OCaml sources.
   Hash-table order, Random, the wall clock, library printing,
   fingerprint coverage and message costs are checked by the compiler
   instead (see lib/prelude/prelude.mli).

   Usage: lint [OPTION ...] [PATH ...]        (defaults to lib/)
     --format text|json   report style (json = SARIF 2.1.0 shape)
     --rule RULE          report only RULE (repeatable)

   Exits 1 when any finding survives the allow markers, 2 on usage or
   I/O errors. *)

let usage () =
  prerr_endline "usage: lint [--format text|json] [--rule RULE]... [PATH ...]";
  exit 2

let () =
  let format = ref "text" in
  let rules = ref [] in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--format" :: v :: rest ->
      if v <> "text" && v <> "json" then begin
        Printf.eprintf "lint: unknown format '%s'\n" v;
        usage ()
      end;
      format := v;
      parse rest
    | "--rule" :: v :: rest ->
      if not (List.mem v Check.Analyzer.rule_names) then begin
        Printf.eprintf "lint: unknown rule '%s' (known: %s)\n" v
          (String.concat ", " Check.Analyzer.rule_names);
        usage ()
      end;
      rules := v :: !rules;
      parse rest
    | ("--format" | "--rule") :: [] -> usage ()
    | ("--help" | "-h") :: _ -> usage ()
    | p :: rest ->
      if String.length p > 0 && p.[0] = '-' then begin
        Printf.eprintf "lint: unknown option '%s'\n" p;
        usage ()
      end;
      paths := p :: !paths;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let paths = match List.rev !paths with [] -> [ "lib" ] | ps -> ps in
  let sources =
    try Check.Analyzer.scan_paths paths
    with Sys_error msg ->
      Printf.eprintf "lint: %s\n" msg;
      exit 2
  in
  let rules = match List.rev !rules with [] -> None | rs -> Some rs in
  let report = Check.Analyzer.analyze ?rules sources in
  print_string
    (match !format with
    | "json" -> Check.Analyzer.render_json report
    | _ -> Check.Analyzer.render_text report);
  match report.Check.Analyzer.findings with
  | [] -> ()
  | fs ->
    Printf.eprintf
      "lint: %d finding(s); fix or annotate with (* lint: allow <rule> ... *)\n"
      (List.length fs);
    exit 1

(* Static-analysis driver: run Check.Analyzer (token lint + cross-file
   protocol-flow rules) over OCaml sources.

   Usage: lint [OPTION ...] [PATH ...]        (defaults to lib/)
     --format text|json   report style (json = SARIF 2.1.0 shape)
     --rule RULE          report only RULE (repeatable)
     -j / --jobs N        fan the per-file pass over N worker processes
     --cache FILE         per-file result cache keyed by content hash

   Exits 1 when any finding survives the allow markers, 2 on usage or
   I/O errors. *)

let usage () =
  prerr_endline
    "usage: lint [--format text|json] [--rule RULE]... [-j N] [--cache FILE] \
     [PATH ...]";
  exit 2

let () =
  let format = ref "text" in
  let rules = ref [] in
  let jobs = ref 1 in
  let cache = ref None in
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
    | ("-j" | "--jobs") :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 ->
        jobs := n;
        parse rest
      | _ ->
        Printf.eprintf "lint: bad job count '%s'\n" v;
        usage ())
    | "--cache" :: v :: rest ->
      cache := Some v;
      parse rest
    | ("--format" | "--rule" | "-j" | "--jobs" | "--cache") :: [] -> usage ()
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
  let report =
    Check.Analyzer.analyze ?rules ~jobs:!jobs ?cache_file:!cache sources
  in
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

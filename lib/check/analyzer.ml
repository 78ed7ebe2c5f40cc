(* Cross-file static analysis over the {!Token} stream; see the
   interface for the rule catalog.  Layout:

     1. rule table, messages, path scopes
     2. per-file pass: token rules + fact extraction (markers, message
        constructors, send sites, span opens/closes)
     3. cross-file phase joining the facts into semantic findings
     4. suppression and unused-marker accounting
     5. renderers (text / SARIF JSON)

   The per-file pass is pure (source text in, facts out), and the
   cross-file phase is a deterministic fold over the facts in input
   order, so the report depends only on the sources. *)

type severity = Error | Warning

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : severity;
  message : string;
}

let severity_name = function Error -> "error" | Warning -> "warning"

let to_string f =
  Printf.sprintf "%s:%d:%d: %s [%s] %s" f.file f.line f.col
    (severity_name f.severity) f.rule f.message

type rule_info = { name : string; about : string; default_severity : severity }

(* Messages of the token rules are part of the tool's user interface
   and pinned by tests. *)
let msg_poly_compare =
  "polymorphic compare's order on structured types is brittle; use a typed \
   comparator"

let msg_domain_unsafe =
  "toplevel mutable module state leaks between the sweep cells one worker \
   process runs in turn, so output would depend on -j; allocate per run \
   instead"

let msg_prelude_bypass =
  "a Stdlib-qualified name skips the Prelude's nondet/print alerts; use the \
   unqualified name so the compiler checks it"

let rule_infos =
  [
    { name = "poly-compare"; about = msg_poly_compare; default_severity = Error };
    { name = "domain-unsafe"; about = msg_domain_unsafe; default_severity = Error };
    { name = "prelude-bypass"; about = msg_prelude_bypass; default_severity = Error };
    {
      name = "message-flow";
      about =
        "every declared message kind must be sent somewhere and matched in \
         every dispatch/coverage table; unknown kinds must not be sent";
      default_severity = Error;
    };
    {
      name = "span-pairing";
      about = "every trace span open must have a reachable span_end";
      default_severity = Error;
    };
    {
      name = "unused-allow";
      about =
        "a lint-allow marker that suppresses nothing, or names no known rule, \
         is stale";
      default_severity = Warning;
    };
  ]

let rule_names = List.map (fun r -> r.name) rule_infos

let rule_order r =
  let rec go i = function
    | [] -> max_int
    | ri :: rest -> if ri.name = r then i else go (i + 1) rest
  in
  go 0 rule_infos

(* ------------------------------------------------------------------ *)
(* Path scopes                                                         *)
(* ------------------------------------------------------------------ *)

let contains_sub hay sub =
  let nh = String.length hay and ns = String.length sub in
  let rec go i = i + ns <= nh && (String.sub hay i ns = sub || go (i + 1)) in
  ns = 0 || go 0

(* Same scoping as the regex lint: the domain-unsafe hazard is real in
   the directories whose modules run inside sweep cells. *)
let domain_unsafe_scope file =
  List.exists
    (fun d ->
      contains_sub file ("lib/" ^ d ^ "/") || String.ends_with ~suffix:("lib/" ^ d) file)
    [ "core"; "dsim"; "store"; "harness"; "obs"; "workload" ]

(* Suffix match with a path-component boundary: "lib/obs/trace.ml"
   matches itself and ".../lib/obs/trace.ml" but not "xlib/obs/trace.ml". *)
let path_matches ~suffix path =
  path = suffix || String.ends_with ~suffix:("/" ^ suffix) path

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  trace_file : string;  (** path suffix of the message-kind module *)
  span_exempt : string list;
      (** path suffixes where [span_begin] occurrences are not span
          opens (the trace module itself) *)
  prelude_files : string list;
      (** path suffixes of the Prelude, which alone may name the
          Stdlib originals it shadows *)
}

(* This repository's layout: [lib/obs/trace.ml] declares the message
   kinds; [lib/prelude] re-exports the Stdlib with alerts. *)
let config =
  {
    trace_file = "lib/obs/trace.ml";
    span_exempt = [ "lib/obs/trace.ml" ];
    prelude_files = [ "lib/prelude/prelude.ml"; "lib/prelude/prelude.mli" ];
  }

let in_prelude file = List.exists (fun sfx -> path_matches ~suffix:sfx file) config.prelude_files

type source = { path : string; text : string }

(* ------------------------------------------------------------------ *)
(* Allow markers                                                       *)
(* ------------------------------------------------------------------ *)

(* Every rule can be named in a marker except unused-allow itself
   (suppressing the staleness report would defeat it). *)
let allowable_rules = List.filter (fun r -> r <> "unused-allow") rule_names

let find_sub hay sub =
  let nh = String.length hay and ns = String.length sub in
  let rec go i =
    if i + ns > nh then None else if String.sub hay i ns = sub then Some i else go (i + 1)
  in
  go 0

(** Rules named in one marker comment body ([allow r1, r2 ...] after
    the [lint:] tag), as [(known, unknown)].  Prose may follow a rule
    name, so only the first word of each comma-separated part must
    name a rule; a later word counts only when it is one. *)
let marker_rules body =
  match find_sub body "lint:" with
  | None -> ([], [])
  | Some i ->
    let n = String.length body in
    let rec ws j = if j < n && (body.[j] = ' ' || body.[j] = '\t') then ws (j + 1) else j in
    let j = ws (i + 5) in
    if j + 5 <= n && String.sub body j 5 = "allow" && j + 5 < n
       && (body.[j + 5] = ' ' || body.[j + 5] = '\t')
    then begin
      let k = ref (j + 5) in
      let buf = Buffer.create 32 in
      let cont = ref true in
      while !cont && !k < n do
        (match body.[!k] with
        | 'a' .. 'z' | '-' | ',' | ' ' | '\t' -> Buffer.add_char buf body.[!k]
        | _ -> cont := false);
        if !cont then incr k
      done;
      let words part =
        String.split_on_char ' ' (String.trim part)
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun w -> w <> "")
      in
      let parts = List.map words (String.split_on_char ',' (Buffer.contents buf)) in
      let known = List.concat_map (List.filter (fun w -> List.mem w allowable_rules)) parts in
      let unknown =
        List.filter_map
          (function w :: _ when not (List.mem w allowable_rules) -> Some w | _ -> None)
          parts
      in
      (known, unknown)
    end
    else ([], [])

(* ------------------------------------------------------------------ *)
(* Per-file facts                                                      *)
(* ------------------------------------------------------------------ *)

type span_status =
  | Sp_ok  (** let-bound handle, close found in the same definition *)
  | Sp_open of string  (** let-bound handle, no close in its definition *)
  | Sp_escaped of string  (** handle stored into this field/table *)
  | Sp_unbound  (** handle discarded at the open site *)

type facts = {
  f_findings : (string * int * int) list;  (** token-rule hits: rule, line, col *)
  f_markers : (int * int * string list * string list) list;
      (** marker line, target line, rules, unknown rule names *)
  f_ctors : (string * int) list;  (** [M_*] constructors declared in type items *)
  f_ctor_items : (string * int * string list) list;
      (** let items mentioning message constructors: name, line, ctors *)
  f_sends : (string * int * int) list;  (** kind, line, col *)
  f_spans : (int * int * span_status) list;  (** line, col, classification *)
  f_span_ctx : string list;  (** idents around span_end call sites *)
}

let extract ~file src =
  let lx = Token.lex src in
  let toks = lx.Token.tokens in
  let n = Array.length toks in
  let text i = if i >= 0 && i < n then toks.(i).Token.text else "" in
  let tkind i = if i >= 0 && i < n then Some toks.(i).Token.kind else None in
  let is_id i s = tkind i = Some Token.Ident && text i = s in
  let is_sym i s = tkind i = Some Token.Symbol && text i = s in
  let is_uid i = tkind i = Some Token.Uident in
  let is_ident i = tkind i = Some Token.Ident in
  let is_label i s = tkind i = Some Token.Label && text i = s in
  let is_stdlib_dot i = is_uid i && text i = "Stdlib" && is_sym (i + 1) "." in
  let line i = toks.(i).Token.line in
  let col1 i = toks.(i).Token.col + 1 in
  (* --- toplevel items: a structure item starts at a column-0 keyword --- *)
  let boundary i =
    toks.(i).Token.col = 0
    && is_ident i
    &&
    match text i with
    | "let" | "type" | "module" | "open" | "exception" | "external" | "include" -> true
    | _ -> false
  in
  let item_of = Array.make (max n 1) (-1) in
  let items_rev = ref [] in
  let n_items = ref 0 in
  for i = 0 to n - 1 do
    if boundary i then begin
      let j = if is_id (i + 1) "rec" then i + 2 else i + 1 in
      let name =
        match tkind j with Some (Token.Ident | Token.Uident) -> text j | _ -> ""
      in
      items_rev := (text i, name, line i, i) :: !items_rev;
      incr n_items
    end;
    if n > 0 then item_of.(i) <- !n_items - 1
  done;
  let items = Array.of_list (List.rev !items_rev) in
  let item_end k =
    if k + 1 < Array.length items then
      let _, _, _, s = items.(k + 1) in
      s
    else n
  in
  let end_of_item_at i = if i < n && item_of.(i) >= 0 then item_end item_of.(i) else n in
  (* --- token rules --- *)
  let tfs = ref [] in
  let add_tf rule i = tfs := (rule, line i, col1 i) :: !tfs in
  let du = domain_unsafe_scope file in
  let bypass = not (in_prelude file) in
  for i = 0 to n - 1 do
    if
      (is_id i "let" && is_id (i + 1) "compare" && is_sym (i + 2) "="
      && is_id (i + 3) "compare")
      || (is_stdlib_dot i && is_id (i + 2) "compare")
      || (is_uid i
         && is_sym (i + 1) "."
         && ((text i = "List"
             && (is_id (i + 2) "sort" || is_id (i + 2) "stable_sort"
                || is_id (i + 2) "sort_uniq"))
            || (text i = "Array" && is_id (i + 2) "sort"))
         && is_id (i + 3) "compare")
    then add_tf "poly-compare" i;
    if du then begin
      if is_uid i && text i = "Random" && is_sym (i + 1) "." && is_id (i + 2) "self_init"
      then add_tf "domain-unsafe" i;
      if is_id i "let" && toks.(i).Token.col = 0 then begin
        let j = if is_id (i + 1) "rec" then i + 2 else i + 1 in
        if is_ident j then begin
          (* [let name [: annot] = rhs]: a binding with parameters
             allocates per call and is fine.  The annotation skip is
             bounded and stops at any fresh toplevel item. *)
          let rhs =
            if is_sym (j + 1) "=" then Some (j + 2)
            else if is_sym (j + 1) ":" then begin
              let stop = min n (j + 34) in
              let rec find k =
                if k >= stop then None
                else if is_sym k "=" then Some (k + 1)
                else if toks.(k).Token.col = 0 then None
                else find (k + 1)
              in
              find (j + 2)
            end
            else None
          in
          match rhs with
          | None -> ()
          | Some r ->
            if is_id r "ref" then add_tf "domain-unsafe" i
            else begin
              let p = ref r and last = ref "" in
              while is_uid !p && is_sym (!p + 1) "." do
                last := text !p;
                p := !p + 2
              done;
              if
                (!last = "Hashtbl" || (!last <> "" && String.ends_with ~suffix:"Tbl" !last))
                && is_id !p "create"
              then add_tf "domain-unsafe" i
            end
        end
      end
    end;
    (* The Prelude shadows these names to attach its alerts; a
       Stdlib-qualified path reaches the originals unchecked. *)
    if
      bypass
      && is_stdlib_dot i
      &&
      match text (i + 2) with
      | "Hashtbl" | "Random" | "Sys" | "Printf" | "Format" -> is_uid (i + 2)
      | w -> is_ident (i + 2) && String.starts_with ~prefix:"print_" w
    then add_tf "prelude-bypass" i
  done;
  (* --- allow markers: a marker covers the first line at/after the
     comment that carries a token --- *)
  let has_tok_line = Array.make (lx.Token.n_lines + 2) false in
  Array.iter
    (fun (t : Token.token) -> if t.Token.line <= lx.Token.n_lines then has_tok_line.(t.Token.line) <- true)
    toks;
  let marker_target cl =
    let rec go l = if l > lx.Token.n_lines then cl else if has_tok_line.(l) then l else go (l + 1) in
    go cl
  in
  let markers =
    List.filter_map
      (fun (c : Token.comment) ->
        match marker_rules c.Token.ctext with
        | [], [] -> None
        | rs, unknown -> Some (c.Token.cline, marker_target c.Token.cline, rs, unknown))
      lx.Token.comments
  in
  (* --- message constructors: declared in type items, matched in let
     items --- *)
  let ctors = ref [] in
  let ctor_items = ref [] in
  for k = 0 to Array.length items - 1 do
    let kw, name, iline, s = items.(k) in
    let e = item_end k in
    if kw = "type" then
      for i = s to e - 1 do
        if is_uid i && String.starts_with ~prefix:"M_" (text i)
           && not (List.mem_assoc (text i) !ctors)
        then ctors := (text i, line i) :: !ctors
      done
    else if kw = "let" then begin
      let cs = ref [] in
      for i = s to e - 1 do
        if is_uid i && String.starts_with ~prefix:"M_" (text i) && not (List.mem (text i) !cs)
        then cs := text i :: !cs
      done;
      if !cs <> [] then ctor_items := (name, iline, List.rev !cs) :: !ctor_items
    end
  done;
  (* --- message send sites --- *)
  let sends = ref [] in
  (* [send_work] queues a payload for coalescing (or falls through to a
     plain send); [send_batch] puts a coalesced flush on the wire.  Both
     are message sends for flow purposes. *)
  let send_site i =
    (is_id i "send" || is_id i "send_work" || is_id i "send_batch")
    && not (is_id (i - 1) "let" || is_id (i - 1) "and" || is_id (i - 1) "val" || is_sym (i - 1) ".")
  in
  for i = 0 to n - 1 do
    if send_site i then begin
      let ctor = ref "" in
      let stop = min n (i + 10) in
      (let rec find k =
         if k < stop then
           if is_label k "kind" then begin
             let stop2 = min n (k + 10) in
             let rec find2 m =
               if m < stop2 then
                 if is_uid m && String.starts_with ~prefix:"M_" (text m) then ctor := text m
                 else find2 (m + 1)
             in
             find2 (k + 1)
           end
           else find (k + 1)
       in
       find (i + 1));
      if !ctor <> "" then sends := (!ctor, line i, col1 i) :: !sends
    end
  done;
  (* --- span opens and close contexts --- *)
  let spans = ref [] in
  let span_ctx = ref [] in
  let span_file =
    Filename.check_suffix file ".ml"
    && not (List.exists (fun sfx -> path_matches ~suffix:sfx file) config.span_exempt)
  in
  for i = 0 to n - 1 do
    if is_id i "span_end" then
      for q = max 0 (i - 25) to min (n - 1) (i + 12) do
        if is_ident q then span_ctx := text q :: !span_ctx
      done;
    if
      span_file && is_id i "span_begin"
      && not (is_id (i - 1) "let" || is_id (i - 1) "and" || is_id (i - 1) "val")
    then begin
      let status = ref Sp_unbound in
      let lo = max 0 (i - 40) in
      (* Walk back to the handle's binding: [let h = ...], a field
         assignment [x.f <- ...], a record field [f = ...], or storage
         into a table ([Tbl.replace t.f txid (...)]). *)
      let rec back j =
        if j >= lo then
          if is_id j "replace" || is_id j "add" then begin
            let p = ref (j + 1) and last = ref "" in
            let rec fwd () =
              match tkind !p with
              | Some (Token.Ident | Token.Uident) ->
                last := text !p;
                if is_sym (!p + 1) "." then begin
                  p := !p + 2;
                  fwd ()
                end
              | _ -> ()
            in
            fwd ();
            status := (if !last = "" then Sp_unbound else Sp_escaped !last)
          end
          else if is_sym j "<-" then
            status := (if is_ident (j - 1) then Sp_escaped (text (j - 1)) else Sp_unbound)
          else if is_sym j "=" then begin
            if is_ident (j - 1) && (is_id (j - 2) "let" || (is_id (j - 2) "rec" && is_id (j - 3) "let"))
            then begin
              let h = text (j - 1) in
              let e = end_of_item_at i in
              let ok = ref false in
              for m = i + 1 to e - 1 do
                if is_id m "span_end" then
                  for q = m + 1 to min (e - 1) (m + 12) do
                    if is_id q h then ok := true
                  done
              done;
              status := (if !ok then Sp_ok else Sp_open h)
            end
            else status := (if is_ident (j - 1) then Sp_escaped (text (j - 1)) else Sp_unbound)
          end
          else back (j - 1)
      in
      back (i - 1);
      spans := (line i, col1 i, !status) :: !spans
    end
  done;
  {
    f_findings = List.rev !tfs;
    f_markers = markers;
    f_ctors = List.rev !ctors;
    f_ctor_items = List.rev !ctor_items;
    f_sends = List.rev !sends;
    f_spans = List.rev !spans;
    f_span_ctx = List.sort_uniq String.compare !span_ctx;
  }

(* ------------------------------------------------------------------ *)
(* Cross-file phase                                                    *)
(* ------------------------------------------------------------------ *)

let token_message rule =
  match rule with
  | "poly-compare" -> msg_poly_compare
  | "domain-unsafe" -> msg_domain_unsafe
  | "prelude-bypass" -> msg_prelude_bypass
  | _ -> rule

let mk ?(severity = Error) file line col rule message =
  { file; line; col; rule; severity; message }

let token_findings path facts =
  List.map (fun (rule, line, col) -> mk path line col rule (token_message rule)) facts.f_findings

let semantic_findings pf =
  let span_ctx_all =
    List.sort_uniq String.compare (List.concat_map (fun (_, f) -> f.f_span_ctx) pf)
  in
  let trace_pf =
    List.find_opt (fun (p, _) -> path_matches ~suffix:config.trace_file p) pf
  in
  let message_flow =
    match trace_pf with
    | Some (tp, tf) when tf.f_ctors <> [] ->
      let declared = List.map fst tf.f_ctors in
      let tables =
        List.concat_map
          (fun (iname, iline, cs) ->
            if List.length cs >= 2 then
              declared
              |> List.filter (fun c -> not (List.mem c cs))
              |> List.map (fun c ->
                     mk tp iline 1 "message-flow"
                       (Printf.sprintf
                          "message kind %s has no arm in '%s'; the dispatch/coverage \
                           table is incomplete"
                          c iname))
            else [])
          tf.f_ctor_items
      in
      let sent =
        List.sort_uniq String.compare
          (List.concat_map
             (fun (_, f) -> List.map (fun (c, _, _) -> c) f.f_sends)
             pf)
      in
      let dead =
        tf.f_ctors
        |> List.filter (fun (c, _) -> not (List.mem c sent))
        |> List.map (fun (c, l) ->
               mk tp l 1 "message-flow"
                 (Printf.sprintf "message kind %s is declared but never sent (dead kind)" c))
      in
      let unknown =
        List.concat_map
          (fun (p, f) ->
            f.f_sends
            |> List.filter_map (fun (c, l, col) ->
                   if List.mem c declared then None
                   else
                     Some
                       (mk p l col "message-flow"
                          (Printf.sprintf "sent message kind %s is not declared in %s" c
                             config.trace_file))))
          pf
      in
      tables @ dead @ unknown
    | _ -> []
  in
  let span =
    List.concat_map
      (fun (p, f) ->
        f.f_spans
        |> List.filter_map (fun (l, c, st) ->
               match st with
               | Sp_ok -> None
               | Sp_open h ->
                 Some
                   (mk p l c "span-pairing"
                      (Printf.sprintf
                         "span bound to '%s' has no span_end for it in the same \
                          definition"
                         h))
               | Sp_escaped x ->
                 if List.mem x span_ctx_all then None
                 else
                   Some
                     (mk p l c "span-pairing"
                        (Printf.sprintf
                           "span handle stored in '%s' has no span_end mentioning it \
                            anywhere in the scanned tree"
                           x))
               | Sp_unbound ->
                 Some
                   (mk p l c "span-pairing"
                      "span handle is discarded at the open site; the span can never \
                       be closed")))
      pf
  in
  message_flow @ span

(* Was [rule] actually evaluated against [path]?  Unused-marker
   reporting is restricted to evaluated rules so that partial scans (a
   single file, a subtree without the trace module) do not flag markers
   whose rule simply could not run. *)
let rule_evaluated ~trace_present path facts rule =
  match rule with
  | "poly-compare" -> true
  | "prelude-bypass" -> not (in_prelude path)
  | "domain-unsafe" -> domain_unsafe_scope path
  | "message-flow" ->
    trace_present && (path_matches ~suffix:config.trace_file path || facts.f_sends <> [])
  | "span-pairing" -> facts.f_spans <> []
  | _ -> false

let sort_dedup findings =
  let cmp a b =
    match String.compare a.file b.file with
    | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
        match Int.compare (rule_order a.rule) (rule_order b.rule) with
        | 0 -> Int.compare a.col b.col
        | c -> c)
      | c -> c)
    | c -> c
  in
  let sorted = List.sort cmp findings in
  let rec dedup = function
    | a :: b :: rest when a.file = b.file && a.line = b.line && a.rule = b.rule ->
      dedup (a :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

type report = { findings : finding list; files : int }

(* Suppression + unused accounting over per-file facts. *)
let apply_markers pf raw =
  let allowed = Hashtbl.create 64 in
  List.iter
    (fun (p, f) ->
      List.iter
        (fun (ml, tgt, rs, _) ->
          List.iter (fun r -> Hashtbl.replace allowed (p, tgt, r) (ml, ref false)) rs)
        f.f_markers)
    pf;
  let kept =
    List.filter
      (fun fi ->
        match Hashtbl.find_opt allowed (fi.file, fi.line, fi.rule) with
        | Some (_, used) ->
          used := true;
          false
        | None -> true)
      raw
  in
  let unused =
    let trace_present =
      List.exists (fun (p, _) -> path_matches ~suffix:config.trace_file p) pf
    in
    List.concat_map
      (fun (p, f) ->
        List.concat_map
          (fun (ml, tgt, rs, unknown) ->
            List.filter_map
              (fun r ->
                match Hashtbl.find_opt allowed (p, tgt, r) with
                | Some (ml', used)
                  when ml' = ml && (not !used) && rule_evaluated ~trace_present p f r ->
                  Some
                    (mk ~severity:Warning p ml 1 "unused-allow"
                       (Printf.sprintf "allow marker for '%s' suppresses nothing; remove it" r))
                | _ -> None)
              rs
            @ List.map
                (fun r ->
                  mk ~severity:Warning p ml 1 "unused-allow"
                    (Printf.sprintf
                       "allow marker names '%s', which is no rule it can suppress; \
                        remove it"
                       r))
                unknown)
          f.f_markers)
      pf
  in
  kept @ unused

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_ml path = Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

let rec collect path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.concat_map (fun entry ->
           if entry = "_build" || (String.length entry > 0 && entry.[0] = '.') then []
           else collect (Filename.concat path entry))
  else if is_ml path then [ { path; text = read_file path } ]
  else []

let scan_paths paths = List.concat_map collect paths

let analyze ?rules sources =
  let pf = List.map (fun s -> (s.path, extract ~file:s.path s.text)) sources in
  let raw =
    List.concat_map (fun (p, f) -> token_findings p f) pf @ semantic_findings pf
  in
  let findings = apply_markers pf raw in
  let findings =
    match rules with
    | None -> findings
    | Some rs -> List.filter (fun f -> List.mem f.rule rs) findings
  in
  { findings = sort_dedup findings; files = List.length sources }

(* ------------------------------------------------------------------ *)
(* Renderers                                                           *)
(* ------------------------------------------------------------------ *)

let render_text r = String.concat "" (List.map (fun f -> to_string f ^ "\n") r.findings)

module J = Harness.Bench_json

let render_json r =
  let rules_json =
    List.map
      (fun ri ->
        J.Obj
          [
            ("id", J.Str ri.name);
            ("shortDescription", J.Obj [ ("text", J.Str ri.about) ]);
            ("defaultConfiguration", J.Obj [ ("level", J.Str (severity_name ri.default_severity)) ]);
          ])
      rule_infos
  in
  let result f =
    J.Obj
      [
        ("ruleId", J.Str f.rule);
        ("level", J.Str (severity_name f.severity));
        ("message", J.Obj [ ("text", J.Str f.message) ]);
        ( "locations",
          J.Arr
            [
              J.Obj
                [
                  ( "physicalLocation",
                    J.Obj
                      [
                        ("artifactLocation", J.Obj [ ("uri", J.Str f.file) ]);
                        ( "region",
                          J.Obj [ ("startLine", J.Num (float f.line)); ("startColumn", J.Num (float f.col)) ] );
                      ] );
                ];
            ] );
      ]
  in
  J.to_string
    (J.Obj
       [
         ("version", J.Str "2.1.0");
         ( "runs",
           J.Arr
             [
               J.Obj
                 [
                   ( "tool",
                     J.Obj
                       [
                         ( "driver",
                           J.Obj [ ("name", J.Str "str-analyzer"); ("rules", J.Arr rules_json) ] );
                       ] );
                   ("results", J.Arr (List.map result r.findings));
                 ];
             ] );
       ])

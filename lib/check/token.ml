(* Located-token lexer for the static analyzer; see token.mli for the
   contract.  One pass produces the token stream, the comment list and
   the blanked source simultaneously, so the stripped view and the
   tokens can never disagree about positions. *)

type kind =
  | Ident
  | Uident
  | Number
  | Str_lit
  | Char_lit
  | Label
  | Symbol

type token = { kind : kind; text : string; line : int; col : int }

type comment = { ctext : string; cline : int }

type lexed = {
  tokens : token array;
  comments : comment list;
  stripped : string;
  n_lines : int;
}

let is_lower = function 'a' .. 'z' | '_' -> true | _ -> false
let is_upper = function 'A' .. 'Z' -> true | _ -> false
let is_letter c = is_lower c || is_upper c
let is_digit = function '0' .. '9' -> true | _ -> false
let is_ident_char c = is_letter c || is_digit c || c = '\''

(* Maximal runs of these form one Symbol token, so [->], [<-], [::],
   [|>] and friends arrive whole while a lone [.] or [=] stays a
   one-character token (nothing else glues to them in this codebase's
   style). *)
let is_op_char = function
  | '!' | '$' | '%' | '&' | '*' | '+' | '-' | '.' | '/' | ':' | '<' | '='
  | '>' | '@' | '^' | '|' | '~' | '?' ->
    true
  | _ -> false

let lex src =
  let n = String.length src in
  let out = Buffer.create n in
  let toks = ref [] in
  let comments = ref [] in
  let i = ref 0 in
  let line = ref 1 in
  let col = ref 0 in
  let bump c =
    if c = '\n' then begin
      incr line;
      col := 0
    end
    else incr col
  in
  (* Consume the current char, copying it verbatim into the stripped
     view. *)
  let keep () =
    let c = src.[!i] in
    Buffer.add_char out c;
    bump c;
    incr i;
    c
  in
  (* Consume the current char, blanking it (newlines survive so line
     numbers do). *)
  let blank () =
    let c = src.[!i] in
    Buffer.add_char out (if c = '\n' then '\n' else ' ');
    bump c;
    incr i;
    c
  in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let push kind text l c = toks := { kind; text; line = l; col = c } :: !toks in
  while !i < n do
    let l0 = !line and c0 = !col in
    match src.[!i] with
    | '(' when peek 1 = Some '*' ->
      (* Comment, possibly nested; capture the text for allow markers. *)
      let cbuf = Buffer.create 64 in
      ignore (blank ());
      ignore (blank ());
      let depth = ref 1 in
      while !depth > 0 && !i < n do
        if src.[!i] = '(' && peek 1 = Some '*' then begin
          incr depth;
          Buffer.add_char cbuf (blank ());
          Buffer.add_char cbuf (blank ())
        end
        else if src.[!i] = '*' && peek 1 = Some ')' then begin
          decr depth;
          ignore (blank ());
          ignore (blank ())
        end
        else Buffer.add_char cbuf (blank ())
      done;
      comments := { ctext = Buffer.contents cbuf; cline = l0 } :: !comments
    | '"' ->
      ignore (blank ());
      let closed = ref false in
      while (not !closed) && !i < n do
        match src.[!i] with
        | '\\' when !i + 1 < n ->
          ignore (blank ());
          ignore (blank ())
        | '"' ->
          closed := true;
          ignore (blank ())
        | _ -> ignore (blank ())
      done;
      push Str_lit "" l0 c0
    | '{'
      when (match peek 1 with Some ('a' .. 'z' | '_' | '|') -> true | _ -> false)
           && (let j = ref (!i + 1) in
               while !j < n && is_lower src.[!j] do
                 incr j
               done;
               !j < n && src.[!j] = '|') ->
      (* {id| ... |id} quoted string: consume through the matching
         closer, or to EOF when unterminated. *)
      let j = ref (!i + 1) in
      while !j < n && is_lower src.[!j] do
        incr j
      done;
      let id = String.sub src (!i + 1) (!j - !i - 1) in
      let closing = "|" ^ id ^ "}" in
      let m = String.length closing in
      ignore (blank ());
      String.iter (fun _ -> ignore (blank ())) id;
      ignore (blank ());
      let closed = ref false in
      while (not !closed) && !i < n do
        if !i + m <= n && String.sub src !i m = closing then begin
          for _ = 1 to m do
            ignore (blank ())
          done;
          closed := true
        end
        else ignore (blank ())
      done;
      push Str_lit "" l0 c0
    | '\'' ->
      (* Char literal vs type-variable/ident quote. *)
      if peek 1 = Some '\\' then begin
        ignore (blank ());
        ignore (blank ());
        let closed = ref false in
        while (not !closed) && !i < n do
          if blank () = '\'' then closed := true
        done;
        push Char_lit "" l0 c0
      end
      else if peek 2 = Some '\'' then begin
        ignore (blank ());
        ignore (blank ());
        ignore (blank ());
        push Char_lit "" l0 c0
      end
      else begin
        ignore (keep ());
        push Symbol "'" l0 c0
      end
    | c when is_letter c ->
      let buf = Buffer.create 16 in
      while !i < n && is_ident_char src.[!i] do
        Buffer.add_char buf (keep ())
      done;
      push (if is_upper c then Uident else Ident) (Buffer.contents buf) l0 c0
    | c when is_digit c ->
      let buf = Buffer.create 8 in
      let continue () =
        !i < n
        && (is_digit src.[!i] || is_letter src.[!i]
           || (src.[!i] = '.'
              && match peek 1 with Some d -> is_digit d | None -> false))
      in
      while continue () do
        Buffer.add_char buf (keep ())
      done;
      push Number (Buffer.contents buf) l0 c0
    | '~' when (match peek 1 with Some c -> is_lower c | None -> false) ->
      ignore (keep ());
      let buf = Buffer.create 8 in
      while !i < n && is_ident_char src.[!i] do
        Buffer.add_char buf (keep ())
      done;
      if !i < n && src.[!i] = ':' then ignore (keep ());
      push Label (Buffer.contents buf) l0 c0
    | '?' when (match peek 1 with Some c -> is_lower c | None -> false) ->
      ignore (keep ());
      let buf = Buffer.create 8 in
      while !i < n && is_ident_char src.[!i] do
        Buffer.add_char buf (keep ())
      done;
      if !i < n && src.[!i] = ':' then ignore (keep ());
      push Label (Buffer.contents buf) l0 c0
    | c when is_op_char c ->
      let buf = Buffer.create 4 in
      while !i < n && is_op_char src.[!i] do
        Buffer.add_char buf (keep ())
      done;
      push Symbol (Buffer.contents buf) l0 c0
    | ' ' | '\t' | '\n' | '\r' -> ignore (keep ())
    | c ->
      (* Parens, brackets, comma, semicolon, backtick, anything else:
         one-character symbol.  Every branch consumes at least one
         char, so the scan always terminates. *)
      ignore (keep ());
      push Symbol (String.make 1 c) l0 c0
  done;
  {
    tokens = Array.of_list (List.rev !toks);
    comments = List.rev !comments;
    stripped = Buffer.contents out;
    n_lines = !line;
  }


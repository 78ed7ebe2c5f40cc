(** Located-token lexer over OCaml source, shared by the determinism
    lint and the protocol-flow analyzer ({!Analyzer}).

    This replaces the old line-regex matching (which leaned on [Str]'s
    global match state — itself a [domain-unsafe] hazard: state left by
    one sweep cell leaks into the next cell its worker process runs)
    with a real single-pass lexer: comments (nested), string literals
    (including [{id|...|id}] quoted strings) and char literals
    (including escapes) are recognised and blanked, everything else
    becomes a token carrying its line and column.  The lexer is
    total: malformed or truncated input never raises, it just consumes
    to end of file.

    Alongside the tokens, {!lex} returns the comment texts (for
    suppression-marker parsing) and the blanked source ([stripped]),
    which preserves the newline structure exactly — one output char per
    input char, newlines kept — so line numbers agree between the two
    views by construction. *)

type kind =
  | Ident  (** lowercase identifier or keyword *)
  | Uident  (** capitalized identifier: module, constructor *)
  | Number
  | Str_lit  (** string or quoted-string literal (text blanked) *)
  | Char_lit
  | Label  (** [~name] / [?name], with or without the trailing [:] *)
  | Symbol  (** operator run or single punctuation char *)

type token = {
  kind : kind;
  text : string;  (** empty for blanked literals *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based column of the first char *)
}

type comment = {
  ctext : string;  (** comment body, delimiters excluded *)
  cline : int;  (** 1-based line the comment opens on *)
}

type lexed = {
  tokens : token array;  (** source order *)
  comments : comment list;  (** source order *)
  stripped : string;  (** comments/literals blanked, newlines kept *)
  n_lines : int;  (** line count of the input *)
}

val lex : string -> lexed

(* A fingerprint matches its state record field by field: a field left
   out of the pattern must not compile (warning 9, an error under
   -w @9 in every profile).  [b] is the field a change forgot. *)

type state = { a : int; mutable b : int; mutable hits : int }

let fingerprint { a; hits = _ (* stat counter *) } = a

(* The alert texts live in prelude.mli; every binding here is the
   Stdlib's own value or module.  [S] must name the same alerts as its
   declaration, or matching the two would raise them. *)

module Hashtbl = struct
  include Stdlib.Hashtbl

  module type S = sig
    include S

    val iter : (key -> 'a -> unit) -> 'a t -> unit [@@alert nondet]
    val fold : (key -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc [@@alert nondet]
  end

  module Make (H : HashedType) : S with type key = H.t = Make (H)
end

module Random = Stdlib.Random
module Sys = Stdlib.Sys
module Unix = Unix
module Printf = Stdlib.Printf
module Format = Stdlib.Format

let print_char = Stdlib.print_char
let print_string = Stdlib.print_string
let print_bytes = Stdlib.print_bytes
let print_int = Stdlib.print_int
let print_float = Stdlib.print_float
let print_endline = Stdlib.print_endline
let print_newline = Stdlib.print_newline

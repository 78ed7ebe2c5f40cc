(** Opened by every library, binary and example ([-open Prelude] in
    their dune flags): the Stdlib modules and values whose use breaks a
    run's determinism, re-exported unchanged but with an alert on each
    hazard, so the type checker flags them at the use site.

    - [nondet] (an error everywhere): hash-table iteration order, the
      global [Random] state and the wall clock.
    - [print] (an error in [lib/], silenced in [bin/] and [examples/]):
      library code writing to stdout.

    A reviewed site is wrapped in [[@alert "-nondet"]] (or ["-print"])
    on the expression, with a comment saying why it is safe.  Every
    value is the Stdlib's own, so no code path changes. *)

module Hashtbl : sig
  include module type of struct
    include Stdlib.Hashtbl
  end

  val iter : ('a -> 'b -> unit) -> ('a, 'b) t -> unit
  [@@alert nondet "hash-table iteration order is nondeterministic; sort before exposing it"]

  val fold : ('a -> 'b -> 'acc -> 'acc) -> ('a, 'b) t -> 'acc -> 'acc
  [@@alert nondet "hash-table iteration order is nondeterministic; sort before exposing it"]

  (** [Stdlib.Hashtbl.S] with the same alerts, so every [*Tbl] built by
      {!Make} carries them too. *)
  module type S = sig
    include Stdlib.Hashtbl.S

    val iter : (key -> 'a -> unit) -> 'a t -> unit
    [@@alert nondet "hash-table iteration order is nondeterministic; sort before exposing it"]

    val fold : (key -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
    [@@alert nondet "hash-table iteration order is nondeterministic; sort before exposing it"]
  end

  module Make (H : HashedType) : S with type key = H.t
end

module Random : module type of struct
  include Stdlib.Random
end
[@@alert nondet "use the seeded Dsim.Rng, not the global Random state"]

module Sys : sig
  include module type of struct
    include Stdlib.Sys
  end

  val time : unit -> float
  [@@alert nondet "wall-clock time breaks replay; use Dsim.Sim.now / Dsim.Clock"]
end

module Unix : sig
  include module type of struct
    include Unix
  end

  val gettimeofday : unit -> float
  [@@alert nondet "wall-clock time breaks replay; use Dsim.Sim.now / Dsim.Clock"]

  val time : unit -> float
  [@@alert nondet "wall-clock time breaks replay; use Dsim.Sim.now / Dsim.Clock"]
end

module Printf : sig
  include module type of struct
    include Stdlib.Printf
  end

  val printf : ('a, out_channel, unit) format -> 'a
 
[@@alert print "library code must not print to stdout; return a string"]
end

module Format : sig
  include module type of struct
    include Stdlib.Format
  end

  val printf : ('a, formatter, unit) format -> 'a
 
[@@alert print "library code must not print to stdout; return a string"]
end

val print_char : char -> unit
[@@alert print "library code must not print to stdout; return a string"]
val print_string : string -> unit
[@@alert print "library code must not print to stdout; return a string"]
val print_bytes : bytes -> unit
[@@alert print "library code must not print to stdout; return a string"]
val print_int : int -> unit
[@@alert print "library code must not print to stdout; return a string"]
val print_float : float -> unit
[@@alert print "library code must not print to stdout; return a string"]
val print_endline : string -> unit
[@@alert print "library code must not print to stdout; return a string"]
val print_newline : unit -> unit
[@@alert print "library code must not print to stdout; return a string"]

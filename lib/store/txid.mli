(** Globally unique transaction identifiers: originating node plus a
    per-node sequence number.  Totally ordered, hashable, with ready-made
    ordered/hashed containers. *)

type t = { origin : int; number : int }

val make : origin:int -> number:int -> t
val origin : t -> int
val number : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val to_string : t -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t

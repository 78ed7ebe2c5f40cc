(** Globally unique transaction identifiers.

    A transaction is identified by the node that originated it and a
    per-node sequence number.  Identifiers are totally ordered (node
    first) so they can key ordered containers deterministically. *)

type t = { origin : int; number : int }

let make ~origin ~number = { origin; number }

let origin t = t.origin
let number t = t.number

let equal a b = a.origin = b.origin && a.number = b.number

let compare a b =
  match Int.compare a.origin b.origin with
  | 0 -> Int.compare a.number b.number
  | c -> c

(* Unambiguous alias for the structural comparator above, so functor
   arguments below visibly do not capture the polymorphic [compare]. *)
let compare_id = compare

(* Hashes the record itself: the same value as hashing the tuple
   [(origin, number)], which has the same block layout, without
   allocating that tuple on every table operation. *)
let hash (t : t) = Hashtbl.hash t

let to_string t = Printf.sprintf "tx%d.%d" t.origin t.number

module Map = Map.Make (struct
  type nonrec t = t
  let compare = compare_id
end)

module Set = Set.Make (struct
  type nonrec t = t
  let compare = compare_id
end)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)

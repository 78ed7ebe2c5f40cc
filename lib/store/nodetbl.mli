(** Hash tables keyed by {!Keyspace.Key.t} whose bucket nodes carry the
    entry itself: an entry costs one block, its node, plus the array of
    its further slots when it has more than one.  A node keeps its key's
    hash, so a bucket walk compares another key only when the hashes
    match.  The bucket array starts empty and doubles once the table
    holds twice as many nodes as buckets.  There is no removal.
    Iteration order is unspecified. *)

(** A table entry: its key and its owner's slots, numbered from 0.
    Slot 0 is [data], held in the node itself, so a one-slot entry has
    no second block; slots 1 and up are [rest].  [hash] and [next]
    belong to this module: [next] links the bucket.  An owner may read
    and write [data] directly. *)
type 'a node = {
  key : Keyspace.Key.t;
  hash : int;
  mutable next : 'a node;
  mutable data : 'a;
  rest : 'a array;
}

(** A fresh end marker holding [data] in its one slot: a node that is
    never a member of a table and ends its buckets.  Its key is a
    placeholder. *)
val nil : 'a -> 'a node

(** A node for [key] with [slots] slots (default 1), each holding
    [data].  [nil] is the end marker of the table it will join. *)
val node : nil:'a node -> ?slots:int -> Keyspace.Key.t -> 'a -> 'a node

(** Slot [i] of the node ([0 <= i <] its slot count). *)
val get : 'a node -> int -> 'a

val set : 'a node -> int -> 'a -> unit

type 'a t

(** An empty table whose buckets end in the given {!nil}. *)
val create : 'a node -> 'a t

val length : 'a t -> int

(** The node of [key], or the table's own end marker when [key] is
    absent (so [(find t key).data] is the marker's [data]).  Hashes
    [key] only when the table is not empty. *)
val find : 'a t -> Keyspace.Key.t -> 'a node

val find_opt : 'a t -> Keyspace.Key.t -> 'a node option

(** Link a node whose key is not in the table. *)
val add : 'a t -> 'a node -> unit

val iter : ('a node -> unit) -> 'a t -> unit

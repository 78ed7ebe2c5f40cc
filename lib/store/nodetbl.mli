(** Hash tables keyed by {!Keyspace.Key.t} whose bucket nodes carry the
    entry itself: an entry costs one block, its node, plus the array of
    its further slots while they do not all hold the same value.  A
    node keeps its key's hash, so a bucket walk compares another key
    only when the hashes match.  The bucket array starts empty and
    doubles once the table holds twice as many nodes as buckets, and
    never shrinks.  Iteration order is unspecified. *)

(** A table entry: its key and its owner's slots, numbered from 0.
    Slot 0 is [data], held in the node itself; slots 1 and up are
    [rest].  A node is {e collapsed} when [rest] is empty: every slot
    then holds [data], so an entry whose slots agree (or that has one
    slot) costs no second block.  The mark is the array's length, not
    its identity, so a copy made by [Marshal] reads the same.  [hash],
    [next] and [rest] belong to this module: [next] links the bucket.
    An owner of one-slot entries may read and write [data] directly. *)
type 'a node = {
  key : Keyspace.Key.t;
  hash : int;
  mutable next : 'a node;
  mutable data : 'a;
  mutable rest : 'a array;
}

(** A fresh end marker holding [data] in its one slot: a node that is
    never a member of a table and ends its buckets.  Its key is a
    placeholder. *)
val nil : 'a -> 'a node

(** A collapsed node for [key], every slot holding [data].  [nil] is
    the end marker of the table it will join. *)
val node : nil:'a node -> Keyspace.Key.t -> 'a -> 'a node

(** {!node} with [key]'s hash already known ([Keyspace.Key.hash key]). *)
val node_hashed : nil:'a node -> Keyspace.Key.t -> hash:int -> 'a -> 'a node

(** Do all the node's slots hold [data]? *)
val collapsed : 'a node -> bool

(** Slot [i] of the node ([0 <= i <] its slot count). *)
val get : 'a node -> int -> 'a

(** Write slot [i] of a node with [slots] slots.  The first write that
    makes the slots differ (by physical identity) builds [rest]; a write
    that makes them agree again drops it. *)
val set : slots:int -> 'a node -> int -> 'a -> unit

type 'a t

(** An empty table whose buckets end in the given {!nil}. *)
val create : 'a node -> 'a t

val length : 'a t -> int

(** The node of [key], or the table's own end marker when [key] is
    absent (so [(find t key).data] is the marker's [data]).  Hashes
    [key] only when the table is not empty. *)
val find : 'a t -> Keyspace.Key.t -> 'a node

(** {!find} with [key]'s hash already known: [hash] must be
    [Keyspace.Key.hash key], such as the stored [hash] of a node of
    [key] in another table.  Hashes nothing. *)
val find_hashed : 'a t -> Keyspace.Key.t -> hash:int -> 'a node

val find_opt : 'a t -> Keyspace.Key.t -> 'a node option

(** Link a node whose key is not in the table. *)
val add : 'a t -> 'a node -> unit

(** Unlink a node (found by physical identity; nothing happens if it is
    not in the table).  The node may be added again later. *)
val remove : 'a t -> 'a node -> unit

(** Every node, in the table's hash order. *)
val iter : ('a node -> unit) -> 'a t -> unit
[@@alert nondet "a key directory iterates in hash order; sort before exposing it"]

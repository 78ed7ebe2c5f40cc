(** Hash tables keyed by {!Keyspace.Key.t} whose bucket nodes carry the
    entry itself: an entry costs one block, its node.  A node keeps its
    key's hash, so a bucket walk compares another key only when the
    hashes match.  The bucket array starts empty and doubles once the
    table holds twice as many nodes as buckets.  Iteration order is
    unspecified. *)

(** A table entry: its key and the owner's [data].  [meta] and [next]
    belong to this module: [meta] packs the key's hash with the owner's
    small counter ({!owner}), and [next] links the bucket. *)
type 'a node = {
  key : Keyspace.Key.t;
  mutable data : 'a;
  mutable meta : int;
  mutable next : 'a node;
}

(** A fresh end marker holding [data]: a node that is never a member of
    a table and ends its buckets.  Its key is a placeholder. *)
val nil : 'a -> 'a node

(** A node for [key] holding [data], with owner counter 0.  [nil] is the
    end marker of the table it will join. *)
val node : nil:'a node -> Keyspace.Key.t -> 'a -> 'a node

(** The owner's counter, kept in the node's spare bits beside the hash
    (0 in a new node).  Non-negative, below [2^32]. *)
val owner : 'a node -> int

val set_owner : 'a node -> int -> unit

type 'a t

(** An empty table whose buckets end in the given {!nil}. *)
val create : 'a node -> 'a t

val length : 'a t -> int

(** The node of [key], or the table's own end marker when [key] is
    absent (so [(find t key).data] is the marker's [data]).  Hashes
    [key] only when the table is not empty. *)
val find : 'a t -> Keyspace.Key.t -> 'a node

val find_opt : 'a t -> Keyspace.Key.t -> 'a node option
val mem : 'a t -> Keyspace.Key.t -> bool

(** Link a node whose key is not in the table. *)
val add : 'a t -> 'a node -> unit

val iter : ('a node -> unit) -> 'a t -> unit

(* Why each node keeps its hash: comparing another key follows two more
   pointers (the key record, then its name), and on the simulator's
   heap those are mostly cache misses.  A replica's tables are looked
   up on every read and write it serves.  The functions are plain
   polymorphic ones, not a functor's, so every call is direct. *)

module Key = Keyspace.Key

type 'a node = {
  key : Key.t;
  mutable data : 'a;
  mutable meta : int;
  mutable next : 'a node;
}

(* [meta] is the key's hash in the low [hash_bits] bits ([Key.hash] is
   a [Hashtbl.hash], always below 2^30) and the owner's counter above. *)
let hash_bits = 30
let hash_mask = (1 lsl hash_bits) - 1

let nil data =
  let key = Key.v ~partition:(-1) "" in
  let rec n = { key; data; meta = 0; next = n } in
  n

let node ~nil key data = { key; data; meta = Key.hash key; next = nil }
let hash n = n.meta land hash_mask
let owner n = n.meta lsr hash_bits
let set_owner n x = n.meta <- (x lsl hash_bits) lor hash n

type 'a t = { nil : 'a node; mutable buckets : 'a node array; mutable size : int }

let create nil = { nil; buckets = [||]; size = 0 }
let length t = t.size
let index buckets h = h land (Array.length buckets - 1)

let find t key =
  if t.size = 0 then t.nil
  else begin
    let h = Key.hash key in
    let n = ref t.buckets.(index t.buckets h) in
    while !n != t.nil && not (hash !n = h && Key.equal !n.key key) do
      n := !n.next
    done;
    !n
  end

(* Against the table's own marker, not the one it was created with: the
   two differ in a copy made by [Marshal]. *)
let find_opt t key =
  let n = find t key in
  if n == t.nil then None else Some n

let mem t key = find t key != t.nil

let iter f t =
  Array.iter
    (fun n ->
      let n = ref n in
      while !n != t.nil do
        let next = !n.next in
        f !n;
        n := next
      done)
    t.buckets

let resize t =
  let buckets = Array.make (max 8 (2 * Array.length t.buckets)) t.nil in
  iter
    (fun n ->
      let i = index buckets (hash n) in
      n.next <- buckets.(i);
      buckets.(i) <- n)
    t;
  t.buckets <- buckets

let add t n =
  if t.size >= 2 * Array.length t.buckets then resize t;
  let i = index t.buckets (hash n) in
  n.next <- t.buckets.(i);
  t.buckets.(i) <- n;
  t.size <- t.size + 1

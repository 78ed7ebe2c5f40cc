(* Why each node keeps its hash: comparing another key follows two more
   pointers (the key record, then its name), and on the simulator's
   heap those are mostly cache misses.  A partition's key directory and
   a replica's [LastReader] table are looked up on every read and write
   the replica serves.  The functions are plain polymorphic ones, not a
   functor's, so every call is direct. *)

module Key = Keyspace.Key

type 'a node = {
  key : Key.t;
  hash : int;
  mutable next : 'a node;
  mutable data : 'a;
  mutable rest : 'a array;
}

let nil data =
  let key = Key.v ~partition:(-1) "" in
  let rec n = { key; hash = 0; next = n; data; rest = [||] } in
  n

let node_hashed ~nil key ~hash data = { key; hash; next = nil; data; rest = [||] }
let node ~nil key data = node_hashed ~nil key ~hash:(Key.hash key) data

(* Collapsed: every slot holds [data].  Tested by length, not by
   identity with one empty array, so a copy made by [Marshal] reads the
   same. *)
let collapsed n = Array.length n.rest = 0
let get n i = if i = 0 || collapsed n then n.data else n.rest.(i - 1)

(* Do the slots past 0 all hold [data]? *)
let uniform n =
  let i = ref 0 and len = Array.length n.rest in
  while !i < len && n.rest.(!i) == n.data do
    incr i
  done;
  !i = len

let set ~slots n i x =
  if collapsed n then begin
    if x != n.data && slots > 1 then begin
      n.rest <- Array.make (slots - 1) n.data;
      if i = 0 then n.data <- x else n.rest.(i - 1) <- x
    end
    else n.data <- x
  end
  else begin
    if i = 0 then n.data <- x else n.rest.(i - 1) <- x;
    if uniform n then n.rest <- [||]
  end

type 'a t = { nil : 'a node; mutable buckets : 'a node array; mutable size : int }

let create nil = { nil; buckets = [||]; size = 0 }
let length t = t.size
let index buckets h = h land (Array.length buckets - 1)

let find_hashed t key ~hash:h =
  if t.size = 0 then t.nil
  else begin
    let n = ref t.buckets.(index t.buckets h) in
    while !n != t.nil && not (!n.hash = h && Key.equal !n.key key) do
      n := !n.next
    done;
    !n
  end

let find t key = if t.size = 0 then t.nil else find_hashed t key ~hash:(Key.hash key)

(* Against the table's own marker, not the one it was created with: the
   two differ in a copy made by [Marshal]. *)
let find_opt t key =
  let n = find t key in
  if n == t.nil then None else Some n

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
      let i = index buckets n.hash in
      n.next <- buckets.(i);
      buckets.(i) <- n)
    t;
  t.buckets <- buckets

let add t n =
  if t.size >= 2 * Array.length t.buckets then resize t;
  let i = index t.buckets n.hash in
  n.next <- t.buckets.(i);
  t.buckets.(i) <- n;
  t.size <- t.size + 1

(* Unlinks [n] by identity; the bucket array never shrinks. *)
let remove t n =
  if t.size > 0 then begin
    let i = index t.buckets n.hash in
    let b = t.buckets.(i) in
    if b == n then begin
      t.buckets.(i) <- n.next;
      t.size <- t.size - 1
    end
    else if b != t.nil then begin
      let p = ref b in
      while !p.next != t.nil && !p.next != n do
        p := !p.next
      done;
      if !p.next == n then begin
        !p.next <- n.next;
        t.size <- t.size - 1
      end
    end;
    n.next <- t.nil
  end

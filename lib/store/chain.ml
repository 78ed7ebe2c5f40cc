(** Per-key multi-version chain, newest timestamp first.

    Invariants maintained (checked by [check_invariants], used from the
    property tests):
    - versions are sorted by strictly decreasing timestamp, except that
      two versions never share a timestamp unless written by the same
      transaction (which cannot happen);
    - committed versions form a suffix: every uncommitted (speculative)
      version sits above the whole committed history, so no committed
      version is newer (by position) than any uncommitted one.

    Representation: a growable array sorted by {e ascending} timestamp
    ([data.(0)] is the oldest version, [data.(len-1)] the newest), which
    makes the protocol's common case — installing a version whose
    proposal timestamp exceeds everything in the chain — an O(1)
    append, and turns the snapshot lookups into binary searches.  The
    public API still speaks newest-first, matching the paper's
    presentation.  The array grows from one slot (1, 2, 4, ...): most
    keys of a cold keyspace only ever hold one version.

    A chain is a {!Nodetbl} node, which is also its bucket's entry in
    {!Tbl}: it carries its key, its key's hash and the link to the next
    chain of the bucket, so a key written at a replica costs this one
    block plus its array.

    Slots beyond [len] hold {!hole}, never a dropped version, so a
    removed or pruned version is unreachable from its chain.

    {!Tbl} has no removal, so a chain is a stable handle for its key.
    Committed versions are shared between the replicas that hold them
    and never mutated; only a replica's own uncommitted versions change
    timestamp or state. *)

module Key = Keyspace.Key

(* The node's [data] is the version array, ascending ts, with only
   [0..len-1] live; the live length is the node's owner counter. *)
type 'a node = 'a Nodetbl.node = {
  key : Key.t;
  mutable data : 'a;
  mutable meta : int;
  mutable next : 'a node;
}

type t = Version.t array node

let len = Nodetbl.owner
let set_len = Nodetbl.set_owner

(* Fills the unused slots of every array.  Never returned, so nothing
   mutates it. *)
let hole =
  Version.make ~writer:(Txid.make ~origin:(-1) ~number:(-1)) ~state:Version.Committed
    ~ts:min_int ~value:Keyspace.Value.Unit

(* Ends every bucket.  Never handed out, so nothing mutates it. *)
let nil : t = Nodetbl.nil [||]

(* A chain outside any table; its key is never read. *)
let create () = Nodetbl.node ~nil nil.key [||]

let key c = c.key

let is_empty c = len c = 0

let length c = len c

(** Versions, newest timestamp first (allocates; test/introspection
    support — hot paths use the index-based accessors). *)
let versions c =
  let acc = ref [] in
  for i = 0 to len c - 1 do
    acc := c.data.(i) :: !acc
  done;
  !acc

(** Fold over the versions newest-first without allocating the list. *)
let fold_newest f init c =
  let acc = ref init in
  for i = len c - 1 downto 0 do
    acc := f !acc c.data.(i)
  done;
  !acc

let nth_newest c i = c.data.(len c - 1 - i)

(** First index whose timestamp exceeds [ts] ([len c] if none): the
    insertion point that keeps equal-timestamp versions ordered with the
    newest insertion on the newer side. *)
let upper_bound c ts =
  let lo = ref 0 and hi = ref (len c) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if c.data.(mid).Version.ts <= ts then lo := mid + 1 else hi := mid
  done;
  !lo

let grow c =
  if len c = Array.length c.data then begin
    let vs = Array.make (max 1 (2 * len c)) hole in
    Array.blit c.data 0 vs 0 (len c);
    c.data <- vs
  end

(** Insert keeping the ascending-timestamp order; among equal
    timestamps the newly inserted version goes on the newer side (it is
    newer).  O(1) when [v] is the newest, as protocol inserts are. *)
let insert c (v : Version.t) =
  grow c;
  let pos = upper_bound c v.ts in
  if pos < len c then Array.blit c.data pos c.data (pos + 1) (len c - pos);
  c.data.(pos) <- v;
  set_len c (len c + 1)

(** Newest version regardless of state. *)
let newest c = if len c = 0 then None else Some c.data.(len c - 1)

(** Index of the newest committed version, [-1] if none: a scan down
    the speculative stack, which holds only a few versions. *)
let newest_committed_idx c =
  let i = ref (len c - 1) in
  while !i >= 0 && not (Version.is_committed c.data.(!i)) do
    decr i
  done;
  !i

(** Newest committed version. *)
let newest_committed c =
  let i = newest_committed_idx c in
  if i < 0 then None else Some c.data.(i)

(** Latest version with [ts <= rs] (any state) — the version a reader
    with read snapshot [rs] lands on (Alg. 2, latest_before).  Binary
    search. *)
let latest_before c ~rs =
  let pos = upper_bound c rs - 1 in
  if pos < 0 then None else Some c.data.(pos)

(** Latest committed version with [ts <= rs]: binary search to the
    visibility frontier, then a short walk over the (small) speculative
    stack above the committed history. *)
let latest_committed_before c ~rs =
  let pos = ref (upper_bound c rs - 1) in
  while !pos >= 0 && not (Version.is_committed c.data.(!pos)) do
    decr pos
  done;
  if !pos < 0 then None else Some c.data.(!pos)

(** Index of [txid]'s version, [-1] if absent.  Scans newest-first:
    uncommitted versions — the usual lookup targets — sit on top. *)
let index_of_writer c txid =
  let i = ref (len c - 1) in
  while !i >= 0 && not (Txid.equal c.data.(!i).Version.writer txid) do
    decr i
  done;
  !i

let find_writer c txid =
  let i = index_of_writer c txid in
  if i < 0 then None else Some c.data.(i)

let remove_at c i =
  let v = c.data.(i) in
  if i < len c - 1 then Array.blit c.data (i + 1) c.data i (len c - 1 - i);
  set_len c (len c - 1);
  c.data.(len c) <- hole;
  v

(** Remove [txid]'s version, returning it (accounting support). *)
let remove_writer c txid =
  let i = index_of_writer c txid in
  if i < 0 then None else Some (remove_at c i)

(** Swap [old] (by physical identity) for [v]: remove, then insert at
    [v]'s timestamp.  A final commit trades a replica's private
    uncommitted version for the shared committed one this way. *)
let replace c ~old v =
  let i = ref (len c - 1) in
  while !i >= 0 && c.data.(!i) != old do
    decr i
  done;
  if !i >= 0 then ignore (remove_at c !i);
  insert c v

(** Reposition a version after its timestamp was bumped (pre-commit ->
    local-commit transitions only increase timestamps).  Must be called
    after any externally performed [ts]/[state] mutation; the binary
    searches rely on it. *)
let reposition c v = replace c ~old:v v

(** Uncommitted versions, newest first. *)
let uncommitted c =
  let acc = ref [] in
  for i = 0 to len c - 1 do
    if Version.is_uncommitted c.data.(i) then acc := c.data.(i) :: !acc
  done;
  !acc

(** Any version with [ts > after] (write-write certification): the
    newest version has the maximal timestamp, so this is O(1). *)
let exists_newer_than c ~after =
  len c > 0 && c.data.(len c - 1).Version.ts > after

(** Drop committed versions older than [horizon], always retaining the
    newest committed one and every uncommitted version.  Single
    compaction pass; [on_drop] fires once per dropped version (storage
    accounting).  Returns the number of versions dropped. *)
let prune ?(on_drop = fun (_ : Version.t) -> ()) c ~horizon =
  let nc = newest_committed_idx c in
  let w = ref 0 in
  for i = 0 to len c - 1 do
    let v = c.data.(i) in
    if Version.is_uncommitted v || i = nc || v.Version.ts >= horizon then begin
      if !w < i then c.data.(!w) <- v;
      incr w
    end
    else on_drop v
  done;
  let dropped = len c - !w in
  if dropped > 0 then begin
    Array.fill c.data !w dropped hole;
    set_len c !w
  end;
  dropped

(** Validate both ordering invariants (descending timestamps newest
    first, committed suffix); returns an error description if broken. *)
let check_invariants c =
  let rec go i =
    if i >= len c - 1 then Ok ()
    else begin
      (* Newest-first adjacent pair: a = vs.(i+1) sits above b = vs.(i). *)
      let a = c.data.(i + 1) and b = c.data.(i) in
      if a.Version.ts < b.Version.ts then
        Error
          (Printf.sprintf "chain out of order: %s@%d before %s@%d"
             (Txid.to_string a.writer) a.ts (Txid.to_string b.writer) b.ts)
      else go (i + 1)
    end
  in
  match go 0 with
  | Error _ as e -> e
  | Ok () ->
    (* Committed suffix: scanning oldest to newest, once a speculative
       (uncommitted) version appears nothing above it may be committed. *)
    let rec suffix i seen_uncommitted =
      if i >= len c then Ok ()
      else begin
        let v = c.data.(i) in
        if Version.is_committed v then
          if seen_uncommitted then
            Error
              (Printf.sprintf
                 "committed %s@%d stacked above an uncommitted version"
                 (Txid.to_string v.Version.writer) v.Version.ts)
          else suffix (i + 1) false
        else suffix (i + 1) true
      end
    in
    suffix 0 false

(** Chains by key, in a {!Nodetbl} whose bucket nodes are the chains
    themselves. *)
module Tbl = struct
  type nonrec t = Version.t array Nodetbl.t

  let create () = Nodetbl.create nil

  let find_opt = Nodetbl.find_opt
  let mem = Nodetbl.mem

  let add t key =
    let c = Nodetbl.node ~nil key [||] in
    Nodetbl.add t c;
    c

  let iter = Nodetbl.iter

  let fold f t init =
    let acc = ref init in
    Nodetbl.iter (fun c -> acc := f c !acc) t;
    !acc
end

(** Per-key multi-version chain, newest timestamp first.

    Invariants maintained (checked by [check_invariants], used from the
    property tests):
    - versions are sorted by strictly decreasing timestamp, except that
      two versions never share a timestamp unless written by the same
      transaction (which cannot happen);
    - committed versions form a suffix: every uncommitted (speculative)
      version sits above the whole committed history, so no committed
      version is newer (by position) than any uncommitted one.

    Representation: an array sorted by {e ascending} timestamp
    ([c.(0)] is the oldest version, [c.(len-1)] the newest), which
    makes the protocol's common case — installing a version whose
    proposal timestamp exceeds everything in the chain — an O(1)
    append, and turns the snapshot lookups into binary searches.  The
    public API still speaks newest-first, matching the paper's
    presentation.  The array grows from one slot (1, 2, 4, ...): most
    keys of a cold keyspace only ever hold one version.

    Slots beyond the live prefix hold {!hole}, never a dropped version,
    so a removed or pruned version is unreachable from its chain.  The
    padding is also the length: the hole's timestamp, [max_int], is
    above every version's, so the whole array stays sorted and the live
    prefix ends at the first timestamp [max_int], found by binary
    search.  The chain needs no header of its own, and a store keeps it
    as a bare slot.  The test is by value, so a chain copied by
    [Marshal], whose padding is a copy of the hole, reads the same.  A
    started chain always has at least one slot; the empty array is
    {!absent}, a replica that never wrote the key.

    Committed versions are shared between the replicas that hold them,
    and their type has no mutable field; only a replica's own pending
    versions change timestamp or state.

    A {e frozen} chain — a full array whose versions are all
    committed — may be shared by several replicas of its key, so no
    mutator writes it: {!insert} finds it full and grows into a new
    array, {!remove} and {!replace} work on a copy, {!reposition} moves
    a pending version, which a frozen chain does not hold, and {!prune}
    keeps what it leaves of one in a new array.  The rule is
    structural: it holds whatever the caller removes, a committed
    version included, and whatever order the versions are in. *)

type t = Version.t array

(* The fields the searches read, without a call into [Version]. *)
let ts : Version.t -> int = function Final { ts; _ } | Pending { ts; _ } -> ts
let is_committed : Version.t -> bool = function Final _ -> true | Pending _ -> false
let writer : Version.t -> Txid.t = function Final { writer; _ } | Pending { writer; _ } -> writer

(* Fills the unused slots of every array: a committed version, so
   nothing can write it. *)
let hole =
  Version.make ~writer:(Txid.make ~origin:(-1) ~number:(-1)) ~state:Version.Committed
    ~ts:max_int ~value:Keyspace.Value.Unit

let absent : t = [||]
let is_absent c = Array.length c = 0
let create () = Array.make 1 hole

(** First index from [from] whose timestamp exceeds [ts] (the array's
    length if none): the insertion point that keeps equal-timestamp
    versions ordered with the newest insertion on the newer side.  The
    padding sorts above every [ts] below [max_int]. *)
let upper_bound_from c from t =
  let lo = ref from and hi = ref (Array.length c) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ts c.(mid) <= t then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound c ts = upper_bound_from c 0 ts

(* The live prefix ends at the first hole. *)
let length c = upper_bound c (max_int - 1)

(* A snapshot lookup's insertion point: a snapshot at [max_int] still
   stops below the padding. *)
let visible_bound c rs = upper_bound c (if rs < max_int then rs else max_int - 1)

(** Versions, newest timestamp first (allocates; test/introspection
    support — hot paths use the index-based accessors). *)
let versions c =
  let acc = ref [] in
  for i = 0 to length c - 1 do
    acc := c.(i) :: !acc
  done;
  !acc

(** Fold over the versions newest-first without allocating the list. *)
let fold_newest f init c =
  let acc = ref init in
  for i = length c - 1 downto 0 do
    acc := f !acc c.(i)
  done;
  !acc

let get c i = c.(i)

(* Every live version committed, the newest (the likeliest pending)
   tested first. *)
let all_committed c ~len =
  let i = ref (len - 1) in
  while !i >= 0 && is_committed c.(!i) do
    decr i
  done;
  !i < 0

(* Full (the last slot holds a version) and all committed: possibly
   shared, so never written. *)
let frozen c =
  let cap = Array.length c in
  cap > 0 && ts c.(cap - 1) <> max_int && all_committed c ~len:cap

(* Does [a], with no free slot, hold [c]'s versions?  [c] holding
   [cap] versions, its slot [cap - 1] is no hole, so neither is [a]'s.
   Newest first: two replicas' histories of one key differ at the top
   if anywhere, so a mismatch costs one comparison. *)
let exact a c =
  let cap = Array.length a in
  cap > 0
  && cap <= Array.length c
  && a.(cap - 1) == c.(cap - 1)
  && length c = cap
  &&
  let i = ref (cap - 2) in
  while !i >= 0 && a.(!i) == c.(!i) do
    decr i
  done;
  !i < 0

(* Put [v] into [c], which has a free slot, keeping the order; among
   equal timestamps [v] goes on the newer side. *)
let place c v =
  let pos = upper_bound c (ts v) in
  (* An append lands on the first hole; otherwise the newer versions
     move up one slot. *)
  if ts c.(pos) <> max_int then begin
    let len = upper_bound_from c pos (max_int - 1) in
    Array.blit c pos c (pos + 1) (len - pos)
  end;
  c.(pos) <- v

(** Insert keeping the ascending-timestamp order; among equal
    timestamps the newly inserted version goes on the newer side (it is
    newer).  O(1) amortized when [v] is the newest, as protocol inserts
    are. *)
let insert c v =
  let cap = Array.length c in
  (* Full when the last slot holds a version. *)
  let c =
    if cap > 0 && ts c.(cap - 1) = max_int then c
    else begin
      let grown = Array.make (max 1 (2 * cap)) hole in
      Array.blit c 0 grown 0 cap;
      grown
    end
  in
  place c v;
  c

(** Newest version regardless of state. *)
let newest c =
  let len = length c in
  if len = 0 then None else Some c.(len - 1)

(** Index of the newest committed version, [-1] if none: a scan down
    the speculative stack, which holds only a few versions. *)
let newest_committed_idx c =
  let i = ref (length c - 1) in
  while !i >= 0 && not (is_committed c.(!i)) do
    decr i
  done;
  !i

(** Newest committed version. *)
let newest_committed c =
  let i = newest_committed_idx c in
  if i < 0 then None else Some c.(i)

(** Latest version with [ts <= rs] (any state) — the version a reader
    with read snapshot [rs] lands on (Alg. 2, latest_before).  Binary
    search. *)
let latest_before c ~rs =
  let pos = visible_bound c rs - 1 in
  if pos < 0 then None else Some c.(pos)

(** Latest committed version with [ts <= rs]: binary search to the
    visibility frontier, then a short walk over the (small) speculative
    stack above the committed history. *)
let latest_committed_before c ~rs =
  let pos = ref (visible_bound c rs - 1) in
  while !pos >= 0 && not (is_committed c.(!pos)) do
    decr pos
  done;
  if !pos < 0 then None else Some c.(!pos)

(** Index of [txid]'s version, [-1] if absent.  Scans newest-first:
    uncommitted versions — the usual lookup targets — sit on top. *)
let index_of_writer c txid =
  let i = ref (length c - 1) in
  while !i >= 0 && not (Txid.equal (writer c.(!i)) txid) do
    decr i
  done;
  !i

let find_writer c txid =
  let i = index_of_writer c txid in
  if i < 0 then None else Some c.(i)

(* Remove the [i]-th oldest of [len] versions, in place. *)
let remove_at c ~len i =
  if i < len - 1 then Array.blit c (i + 1) c i (len - 1 - i);
  c.(len - 1) <- hole

(* Index of [v] (by physical identity), [-1] if absent. *)
let index_of c v =
  let i = ref (length c - 1) in
  while !i >= 0 && c.(!i) != v do
    decr i
  done;
  !i

(** Remove [v] (by physical identity).  Returns the chain to keep: [c]
    when [v] is absent, a copy when [c] was frozen. *)
let remove c v =
  let i = index_of c v in
  if i < 0 then c
  else begin
    let c = if frozen c then Array.copy c else c in
    remove_at c ~len:(length c) i;
    c
  end

(** Swap [old] (by physical identity) for [v]: remove, then insert at
    [v]'s timestamp.  A final commit trades a replica's private
    uncommitted version for the shared committed one this way. *)
let replace c ~old v = insert (remove c old) v

(** Reposition a version of the chain after its timestamp was raised:
    removing [v] makes the room its insertion takes.  Only a pending
    version changes, and a chain holding one is not frozen, so the
    chain is written in place. *)
let reposition c v =
  let i = index_of c v in
  if i >= 0 then begin
    remove_at c ~len:(length c) i;
    place c v
  end

(** Uncommitted versions, newest first. *)
let uncommitted c =
  let acc = ref [] in
  for i = 0 to length c - 1 do
    if not (is_committed c.(i)) then acc := c.(i) :: !acc
  done;
  !acc

(** Any version with [ts > after] (write-write certification): the
    newest version has the maximal timestamp. *)
let exists_newer_than c ~after =
  match newest c with Some v -> ts v > after | None -> false

(** Drop committed versions older than [horizon], always retaining the
    newest committed one and every uncommitted version; [on_drop] fires
    once per dropped version (storage accounting).  Returns the chain
    to keep: [c] itself when nothing is dropped; a tight new array when
    only committed versions remain, so that it is frozen and the
    replicas that hold the same history may share it; else [c]
    compacted in place, which holds a pending version and so is not
    frozen. *)
(* Does a prune keep [v], the [i]-th oldest version, [nc] being the
   newest committed one's index? *)
let keeps v ~i ~nc ~horizon = (not (is_committed v)) || i = nc || ts v >= horizon

let prune ?(on_drop = fun (_ : Version.t) -> ()) c ~horizon =
  let len = length c in
  let nc = newest_committed_idx c in
  let kept = ref 0 and pending = ref false in
  for i = 0 to len - 1 do
    let v = c.(i) in
    if keeps v ~i ~nc ~horizon then begin
      incr kept;
      if not (is_committed v) then pending := true
    end
  done;
  if !kept = len then c
  else begin
    let d = if !pending then c else Array.make !kept hole in
    let w = ref 0 in
    for i = 0 to len - 1 do
      let v = c.(i) in
      if keeps v ~i ~nc ~horizon then begin
        d.(!w) <- v;
        incr w
      end
      else on_drop v
    done;
    if d == c then Array.fill c !w (len - !w) hole;
    d
  end

(** Validate both ordering invariants (descending timestamps newest
    first, committed suffix); returns an error description if broken. *)
let check_invariants c =
  let len = length c in
  let rec go i =
    if i >= len - 1 then Ok ()
    else begin
      (* Newest-first adjacent pair: a = c.(i+1) sits above b = c.(i). *)
      let a = c.(i + 1) and b = c.(i) in
      if ts a < ts b then
        Error
          (Printf.sprintf "chain out of order: %s@%d before %s@%d"
             (Txid.to_string (writer a)) (ts a) (Txid.to_string (writer b))
             (ts b))
      else go (i + 1)
    end
  in
  match go 0 with
  | Error _ as e -> e
  | Ok () ->
    (* Committed suffix: scanning oldest to newest, once a speculative
       (uncommitted) version appears nothing above it may be committed. *)
    let rec suffix i seen_uncommitted =
      if i >= len then Ok ()
      else begin
        let v = c.(i) in
        if is_committed v then
          if seen_uncommitted then
            Error
              (Printf.sprintf
                 "committed %s@%d stacked above an uncommitted version"
                 (Txid.to_string (writer v)) (ts v))
          else suffix (i + 1) false
        else suffix (i + 1) true
      end
    in
    suffix 0 false

(** Per-key multi-version chain, ordered by decreasing timestamp.

    The chain accepts speculative "stacks": uncommitted versions sit
    above the committed history; state transitions only increase a
    version's timestamp and {!reposition} restores ordering.

    A chain is a bare version array sorted by timestamp, its unused
    slots padded with a constant committed hole version at timestamp
    [max_int] (so every version's timestamp must be below it).  It costs one block and
    carries neither its key nor its length: a store keeps it in a slot
    of its key's directory node.  Appending the newest version (the
    protocol's common case) is O(1) amortized, the snapshot lookups are
    binary searches, and {!length}/{!newest}/{!exists_newer_than} are a
    binary search for the padding.  {!newest_committed} scans down the
    speculative stack above the committed history.

    {!insert}, {!remove}, {!replace} and {!prune} return the chain to
    keep, and the old array must not be used again: {!insert} moves a
    full chain to a larger array, {!prune} moves a committed remainder
    to a tight one, and the others write in place except on a frozen
    chain.  {!reposition} works in place.  A committed version may sit
    in many chains at once (every replica that committed it holds the
    same value); its type has no mutable field.

    {e Immutability rule.}  A {e frozen} chain is a full array whose
    versions are all committed: by the committed-suffix invariant, its
    last slot holds a version and that version is committed.  The
    replicas of a key may share one, so no mutator ever writes it:
    {!insert} grows it into a new array, {!remove}, {!replace} and
    {!prune} work on a copy, and {!reposition} moves only a pending
    version, which a frozen chain does not hold.  The rule is
    structural: it holds whatever the caller removes, the committed
    versions included, and {!frozen} checks every version rather than
    rely on the suffix invariant. *)

type t

(** The chain of a replica that never wrote its key: no array at all.
    Reads find it empty; an insert starts a real chain. *)
val absent : t

(** Is this {!absent}, rather than a chain that was started (possibly
    emptied since)? *)
val is_absent : t -> bool

(** An empty chain with room for one version. *)
val create : unit -> t

(** A binary search over the padding. *)
val length : t -> int

(** Versions, newest timestamp first (allocates a fresh list;
    introspection and test support). *)
val versions : t -> Version.t list

(** Fold over the versions newest-first without allocating. *)
val fold_newest : ('a -> Version.t -> 'a) -> 'a -> t -> 'a

(** The [i]-th oldest version ([0 <= i < length]).  O(1); scans that
    must not allocate walk the chain with it. *)
val get : t -> int -> Version.t

(** Is this a frozen chain (full, every version committed)? *)
val frozen : t -> bool

(** [exact a c]: has [a] no free slot and the versions of [c], by
    physical identity and in order?  A frozen such [a] may stand in for
    [c].  A mismatch at the newest version costs one comparison. *)
val exact : t -> t -> bool

(** Insert keeping descending-timestamp order; among equal timestamps
    the newly inserted version is considered newer.  O(1) amortized
    when the version is the newest of the chain.  Returns the chain,
    moved to a larger array when it was full (also when it was
    {!absent}); the old one must not be used again. *)
val insert : t -> Version.t -> t

val newest : t -> Version.t option
val newest_committed : t -> Version.t option

(** Latest version with [ts <= rs], any state — what a reader with read
    snapshot [rs] lands on (Alg. 2 [latest_before]).  One binary
    search. *)
val latest_before : t -> rs:int -> Version.t option

(** Latest committed version with [ts <= rs].  Binary search plus a
    walk over the speculative stack. *)
val latest_committed_before : t -> rs:int -> Version.t option

val find_writer : t -> Txid.t -> Version.t option

(** Remove [v] (by physical identity).  Returns the chain to keep: [c]
    itself when [v] is absent, a copy when [c] was frozen. *)
val remove : t -> Version.t -> t

(** Re-sort one version of the chain after {!Version.raise_ts} or
    {!Version.local_commit} raised its timestamp; the binary searches
    rely on it.  Only a pending version changes, and a chain holding one
    is not frozen, so the version's own slot makes room for it in
    place.  Nothing happens if the version is absent. *)
val reposition : t -> Version.t -> unit

(** Swap [old] (found by physical identity; nothing is removed if it is
    absent) for [v], inserted as {!insert} does: the position
    {!reposition} would give [old] had it been mutated into [v].  How a
    replica trades its private uncommitted version for the shared
    committed one.  Returns the chain to keep. *)
val replace : t -> old:Version.t -> Version.t -> t

(** Uncommitted versions, newest first. *)
val uncommitted : t -> Version.t list

(** Any version with [ts > after] (write-write certification). *)
val exists_newer_than : t -> after:int -> bool

(** Drop committed versions older than [horizon], always retaining the
    newest committed one and every uncommitted version, in one pass;
    [on_drop] fires once per dropped version (storage accounting).
    Returns the chain to keep: [c] itself when nothing is dropped, a
    tight new array when only committed versions remain (so it is
    frozen), else [c] compacted in place (a chain holding a pending
    version is not frozen). *)
val prune : ?on_drop:(Version.t -> unit) -> t -> horizon:int -> t

(** Validate the ordering invariants — descending timestamps and the
    committed-suffix property (property-test support). *)
val check_invariants : t -> (unit, string) result

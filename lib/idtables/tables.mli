(** Runtime representation of the Bary and Tary ID tables (paper §5.1).

    The Tary table is an array of IDs with one slot per 4-byte-aligned code
    address (so its size equals the code size); a code address that is not a
    possible indirect-branch target holds the all-zero (invalid) word.  The
    Bary table is a dense array indexed by small constants that the loader
    patches into [Bary_load] instructions.

    Slots are plain word-sized cells: OCaml immediates never tear, exactly
    as the paper's aligned 4-byte accesses never tear on x86, and that is
    the only per-access guarantee the transaction protocol needs — a check
    only {e passes} on bit-identical branch/target IDs, so any stale or
    mixed-version view fails the comparison and retries (or halts on an
    invalid ID); it can never pass wrongly.  [publish] is the update
    transaction's write barrier.  A read at a {e misaligned} address is
    modelled faithfully: it composes the word from the bytes of the two
    neighbouring slots, which cannot produce a valid ID when the slots hold
    valid IDs or zeros (the reserved bits clash) — this is what forces
    indirect-branch targets to be aligned.

    The table region is reserved at creation time ([capacity] bytes of code
    addresses); dynamically linking a library grows the in-use part
    ([extend]) without reallocating, like the paper's reserved 4GB region. *)

type t

(** [create ~code_base ~capacity ~bary_slots] reserves tables covering code
    addresses [code_base, code_base + capacity). [capacity] is rounded up to
    a multiple of 4.  [covered] is the initially in-use prefix (default: the
    whole capacity; the process loader starts at 0 and [extend]s as modules
    load, so update transactions only rewrite the covered prefix — the
    paper's reserved-but-unmapped 4GB region).  [shard] (default 0) is the
    fault-domain id these tables belong to when they are one shard of a
    {!Shards.t}: it labels fault-hook crossings and the [c] field of the
    update-lifecycle telemetry events. *)
val create :
  ?shard:int ->
  ?covered:int ->
  code_base:int ->
  capacity:int ->
  bary_slots:int ->
  unit ->
  t

(** The fault-domain id given at creation (0 for standalone tables). *)
val shard : t -> int

val code_base : t -> int
val capacity : t -> int

(** Bytes of code currently covered (grows with [extend]). *)
val code_size : t -> int

(** [extend t bytes] grows the in-use code size.
    Raises [Invalid_argument] beyond capacity. *)
val extend : t -> int -> unit

val bary_slots : t -> int

(** Current global version number (bumped by each update transaction).
    An [Atomic] read: safe from any domain. *)
val version : t -> int

val set_version : t -> int -> unit

(** The ABA mitigation of paper §5.2: the ID encoding has 2^14 versions,
    so an attacker forcing that many update transactions {e during one
    check transaction} could replay an old ID.  The runtime therefore
    counts update transactions and resets the counter at quiescence
    points (moments when every thread has been observed outside a check
    transaction); the count approaching [Id.max_version] is the signal to
    force quiescence first. *)
val updates_since_quiesce : t -> int

(** Bump the update counter (called by the update transaction). *)
val count_update : t -> unit

(** Declare a quiescence point directly.  The caller asserts that every
    thread has been observed outside a check transaction since the last
    update — only sound when it can actually know that (single-domain
    runtimes, tests).  Concurrent runtimes use the epoch machinery below
    instead. *)
val quiesce : t -> unit

(** How many quiescence points have been declared (directly or via
    {!try_quiesce}) over the table's lifetime. *)
val quiesce_events : t -> int

(** The update-transaction serialization lock (paper: the global update
    lock; it never blocks check transactions). *)
val with_update_lock : t -> (unit -> 'a) -> 'a

(** Whether some domain currently holds the update lock — a diagnostic
    for the update watchdog; racy by nature. *)
val update_in_progress : t -> bool

(** {2 Epoch-based quiescence}

    A checker domain {!register_reader}s itself and calls
    {!reader_quiescent} at branch boundaries — points where it is provably
    outside any check transaction.  Each completed install snapshots every
    reader's epoch ({!observe_readers}); {!try_quiesce} declares
    quiescence once every online reader has advanced past its snapshot,
    because then any check still in flight began {e after} the last
    install completed and cannot span a version-space wrap.  With no
    registered readers there is no evidence and [try_quiesce] never
    declares (the direct {!quiesce} remains for callers that know
    better). *)

type reader

(** Register the calling domain as a checker; the handle is not shared. *)
val register_reader : t -> reader

(** Remove a reader from the registry (it stops gating quiescence). *)
val unregister_reader : t -> reader -> unit

(** The branch-boundary hook: the owning domain is outside any check
    transaction right now.  One atomic increment. *)
val reader_quiescent : reader -> unit

(** The reader's current epoch — an atomic load, safe from any domain.
    A supervisor samples this to tell a live checker (epoch advancing)
    from a wedged one (epoch stalled while still registered). *)
val reader_epoch : reader -> int

(** An offline reader does not gate quiescence (e.g. blocked in a long
    syscall); mark it online again before its next check. *)
val set_reader_online : reader -> bool -> unit

val reader_online : reader -> bool

val registered_readers : t -> int

(** Snapshot every reader's epoch; update-lock holders call this when an
    install completes (done by {!Tx.install_locked}'s callers). *)
val observe_readers : t -> unit

(** [try_quiesce t] — caller holds the update lock — declares quiescence
    and returns [true] iff every online registered reader has crossed a
    branch boundary since the last completed install (or the counter is
    already zero). *)
val try_quiesce : t -> bool

(** Non-blocking [try_quiesce]: takes the update lock only if free
    ([Mutex.try_lock]), so a checker-side quiescent point never stalls
    behind a live updater. *)
val quiesce_attempt : t -> bool

(** {2 Install observer}

    Commit hooks for an external oracle (the torture harness): called
    under the update lock when an install transaction begins (before its
    first slot write) and when it completes (after the final barrier).  A
    torn install's completion is reported by the journal redo that
    finishes it, with the tag the original updater passed to
    {!Tx.update}.  Set before any concurrent use; [None] (the default)
    costs one field load per update. *)

type observer = {
  obs_begin : version:int -> tag:int -> unit;
  obs_complete : version:int -> tag:int -> unit;
}

val set_observer : t -> observer option -> unit

(**/**)

(* update-lock holders only; used by Tx *)
val notify_begin : t -> version:int -> tag:int -> unit
val notify_complete : t -> version:int -> tag:int -> unit

(**/**)

(** The write barrier between (and after) the update transaction's two
    phases: a sequentially consistent operation that publishes the
    preceding plain slot writes to other domains. *)
val publish : t -> unit

(** {2 Install sequence word}

    A seqlock word over the slot arrays, maintained by {e every}
    install-like mutation (updates, journal redo, loader rollback):
    odd exactly while slot writes are in flight, advanced to a fresh
    even value once they are published.  The check transaction never
    needs it — a check only passes on bit-identical IDs — but the
    version-hoisted check sites ({!Tx.check_hoisted} and the threaded
    engine's superinstructions) revalidate a cached ID pair on it
    alone, which is sound only because every writer path maintains it.
    A torn install leaves the word odd; recovery (or rollback) forces
    it even. *)

(** The current sequence value — an atomic load, safe from any domain. *)
val seq_read : t -> int

(** Make the word odd (idempotent on an already-odd word: a journal redo
    re-entering a torn install keeps the value readers sampled).
    Update-lock holders only, before the first slot write. *)
val seq_enter : t -> unit

(** Advance to a new even value — also from an already-even word, so a
    reader that sampled before the install always observes movement.
    Update-lock holders only, after the final barrier. *)
val seq_exit : t -> unit

(** [tary_read t addr] is the 4-byte word at code address [addr] in the
    Tary region — atomic for aligned [addr], byte-composed for misaligned
    ones, and [Id.invalid] outside the in-use code range. *)
val tary_read : t -> int -> Id.t

(** [bary_read t idx] is the branch ID at slot [idx].
    Raises [Invalid_argument] on out-of-range slots (the loader guarantees
    embedded indexes are in range). *)
val bary_read : t -> int -> Id.t

(** [tary_set t addr id] writes a slot in one non-tearing store (the
    [movnti] analog); [publish] provides the phase barrier.
    Raises [Invalid_argument] when [addr] is misaligned or out of range. *)
val tary_set : t -> int -> Id.t -> unit

val bary_set : t -> int -> Id.t -> unit

(** [tary_entries t] lists [(addr, id)] for every non-invalid slot. *)
val tary_entries : t -> (int * Id.t) list

val bary_entries : t -> (int * Id.t) list

(** The redo log of an in-flight update transaction: the intended version
    and ECN maps.  {!Tx.update} sets it (under the update lock) before the
    first slot write and clears it after the final barrier, so a non-[None]
    journal observed by the next lock holder means the previous updater
    died mid-transaction and the install must be redone ({!Tx.recover}). *)
type journal_body =
  | Jfull of {
      jf_tary : (int * int) list;  (** target address -> ECN *)
      jf_bary : (int * int) list;  (** branch slot -> ECN *)
    }  (** a full install: slots not listed become invalid *)
  | Jdelta of {
      jd_tary : (int * int) list;  (** rewrites, packed at [j_version] *)
      jd_bary : (int * int) list;
      jd_tary_carry : (int * int * int) list;
          (** address, ECN, carried version: a slot joining an existing
              class at the class's already-installed version *)
      jd_bary_carry : (int * int * int) list;
    }  (** a delta install: only the listed slots are written *)

type journal = {
  j_version : int;
  j_body : journal_body;
  j_tag : int;  (** the updater's observer tag, replayed on redo *)
}

val set_journal : t -> journal option -> unit
val journal : t -> journal option

(** {2 Shard state snapshot (forensics)}

    A cheap view of one shard's control words for a forensic bundle:
    version, install-sequence word, quiescence accounting, reader
    registry size, in-flight-update flag, and the intent journal's
    identity (version/tag/kind/write count — not its slot values).
    Reads are the same racy-but-safe atomics the checkers use; a
    snapshot taken mid-install may straddle it, which an odd sequence
    word makes self-describing. *)

type journal_state = {
  js_version : int;
  js_tag : int;
  js_kind : string;  (** ["full"] or ["delta"] *)
  js_writes : int;  (** table-slot writes the redo would replay *)
}

type state = {
  st_shard : int;
  st_version : int;
  st_seq : int;
  st_updates_since_quiesce : int;
  st_quiesce_events : int;
  st_readers : int;
  st_update_in_progress : bool;
  st_code_size : int;
  st_bary_slots : int;
  st_journal : journal_state option;
}

val state : t -> state

val state_json : t -> Mcfi_util.Json.t
(** {!state} as the ["shard"] object of the forensic-bundle schema. *)

(** An opaque copy of the full table state — version, covered code size,
    ABA counter, both ECN maps, and the update journal.  The loader
    captures one before a dynamic-link protocol and {!restore}s it when the
    protocol fails, making a failed load observationally a no-op even when
    the failure struck between the two update phases. *)
type snapshot

val snapshot : t -> snapshot

(** [restore t s] reinstates [s] under the update lock and publishes the
    result with the write barrier. *)
val restore : t -> snapshot -> unit

(** {2 Partial snapshots}

    A delta install touches a known, small set of slots; the loader's
    rollback journal for an incremental dlopen captures only those
    (plus the scalar state), instead of both full tables.  The record
    is exposed so the loader can pin [ss_code_size] to the value it saw
    {e before} it extended the covered region. *)

type slot_snapshot = {
  ss_version : int;
  ss_code_size : int;
  ss_updates_since_quiesce : int;
  ss_journal : journal option;
  ss_tary : (int * Id.t) list;  (** address -> raw word (may be invalid) *)
  ss_bary : (int * Id.t) list;  (** slot -> raw word *)
}

(** [snapshot_slots t ~tary ~bary] captures the raw words of the given
    Tary addresses and Bary slots, with the scalar state.  Addresses may
    lie beyond the covered prefix (but within capacity): the extend
    happens before the install whose effects are being journalled.
    Raises [Invalid_argument] on a misaligned or out-of-capacity
    address.  Call under the update lock (e.g. from [Tx.update_delta]'s
    [pre_install] hook) so the capture is not torn by a concurrent
    update. *)
val snapshot_slots : t -> tary:int list -> bary:int list -> slot_snapshot

(** [restore_slots t s] writes the captured words back, restores the
    scalar state, and publishes — under the update lock.  Slots beyond
    the restored code size end up holding their captured (invalid)
    values, keeping the uncovered suffix clean. *)
val restore_slots : t -> slot_snapshot -> unit

(** Sharded ID tables: per-shard fault domains with independent recovery.

    The single-table design serializes every install on one update lock
    and one global version word, so a stuck updater or a torn install
    wedges the whole process.  A {!t} splits the Bary/Tary pair into
    [count] independently versioned shards — each a complete
    {!Tables.t} with its own update lock, intent journal, install
    sequence word, reader registry (quiescence epoch) and observer — so
    a mid-install kill, torn update or wedged reader is confined to one
    shard while every other shard keeps serving checks and accepting
    installs.

    {b Placement.}  A check compares a branch ID against a target ID
    bit for bit, which is only meaningful inside one version domain, so
    an equivalence class — its branch slots {e and} its targets — lives
    wholly in one shard.  The placement unit is the module: classes
    anchored by module [m] live in [m]'s {e home shard} (pinned with
    {!set_home}, otherwise a deterministic hash of [m] — the hashed
    fallback).  A check reads both tables from the branch slot's shard;
    a target the shard does not cover reads [Id.invalid] and fails
    closed.

    {b Commit protocol.}  Every shard transaction is MCFI's own
    ({!Tx.check}, {!Tx.update}, …) against that shard's tables, so the
    journal-based torn-update guarantee holds per shard. *)

type t

(** [create ~code_base ~capacity ~bary_slots ()] builds [shards]
    (default 1) table pairs of identical geometry, shard [i] carrying
    fault-domain id [i]. *)
val create :
  ?shards:int ->
  ?covered:int ->
  code_base:int ->
  capacity:int ->
  bary_slots:int ->
  unit ->
  t

val count : t -> int

(** The shard's underlying tables (for direct [Tables] access: epoch
    machinery, snapshots, diagnostics).  Raises [Invalid_argument] out
    of range. *)
val tables : t -> int -> Tables.t

(** Pin module [m]'s home shard. *)
val set_home : t -> m:int -> shard:int -> unit

(** [home t ~m] is [m]'s home shard: the pinned one, or the hashed
    fallback — deterministic, uniform over [count t]. *)
val home : t -> m:int -> int

(** {2 Per-shard transactions} *)

(** {!Tx.check} against shard [shard]'s tables. *)
val check :
  ?max_retries:int ->
  ?escalation:Tx.escalation ->
  ?watchdog:Tx.watchdog ->
  ?jitter:Mcfi_util.Prng.t ->
  ?on_retry:(unit -> unit) ->
  t ->
  shard:int ->
  bary_index:int ->
  target:int ->
  Tx.outcome

val check_fast :
  ?on_retry:(int -> unit) ->
  t ->
  shard:int ->
  bary_index:int ->
  target:int ->
  bool

(** One check transaction through a version-hoisted {!Tx.site} against
    shard [shard]'s tables: the hit path validates on that shard's
    install sequence word alone; a miss runs {!Tx.check} and refills.
    The site caches state from one shard's tables — use one site per
    (checker, shard, branch slot). *)
val check_hoisted :
  ?max_retries:int ->
  ?escalation:Tx.escalation ->
  ?watchdog:Tx.watchdog ->
  ?jitter:Mcfi_util.Prng.t ->
  ?on_retry:(unit -> unit) ->
  t ->
  shard:int ->
  Tx.site ->
  bary_index:int ->
  target:int ->
  Tx.outcome

val update :
  ?tag:int ->
  ?got_update:(unit -> unit) ->
  t ->
  shard:int ->
  tary:(int * int) list ->
  bary:(int * int) list ->
  int

val update_delta :
  ?tag:int ->
  ?got_update:(unit -> unit) ->
  ?pre_install:(unit -> unit) ->
  t ->
  shard:int ->
  tary:(int * int) list ->
  bary:(int * int) list ->
  tary_carry:(int * int * Tx.carry_source) list ->
  bary_carry:(int * int * Tx.carry_source) list ->
  int

val refresh : t -> shard:int -> int

(** Redo shard [shard]'s torn install, if its journal holds one. *)
val recover : t -> shard:int -> bool

(** Sweep every shard; returns how many had a torn install to redo. *)
val recover_all : t -> int

(** Whether shard [shard] currently holds an unredone intent journal —
    a torn install awaiting recovery.  Racy diagnostic. *)
val torn : t -> shard:int -> bool

(** {2 Cross-shard commits}

    A delta spanning shards commits shard by shard in ascending shard
    order, each slice an ordinary single-shard transaction.  There is
    deliberately no cross-shard atomicity: the recovery rule is that a
    death anywhere in the sequence is {e indistinguishable from a crash
    just before the remaining shards} — committed shards stay
    committed, the mid-install shard is torn and redone by its own next
    lock holder ({!recover}, or any later updater on that shard), and
    unreached shards are untouched.  Checks never compare IDs across
    shards, so partial commitment is never observable as a table
    anomaly; the caller re-submits the unreached suffix as it would
    after a process crash. *)

type part = {
  p_tary : (int * int) list;
  p_bary : (int * int) list;
  p_tary_carry : (int * int * Tx.carry_source) list;
  p_bary_carry : (int * int * Tx.carry_source) list;
}

(** [part ()] builds a shard's slice of a cross-shard delta; all fields
    default empty. *)
val part :
  ?tary:(int * int) list ->
  ?bary:(int * int) list ->
  ?tary_carry:(int * int * Tx.carry_source) list ->
  ?bary_carry:(int * int * Tx.carry_source) list ->
  unit ->
  part

(** [update_multi t parts] commits each [(shard, part)] in ascending
    shard order and returns the per-shard new versions in that order.
    The {!Faults.Plan.Between_shard_commits} hook fires before each
    commit except the first, reporting the shard {e about to} commit —
    an [At_shard {shard = s; _}] plan kills the sequence with every
    shard before [s] committed and [s] plus the rest untouched.
    Raises [Invalid_argument] on an out-of-range or duplicate shard
    (before any commit). *)
val update_multi : ?tag:int -> t -> (int * part) list -> (int * int) list

(** [update_multi_full t parts] — the same ascending shard-by-shard
    commit sequence and fault hook, but each [(shard, (tary, bary))]
    slice is a {e full} install ({!update}): slots not listed become
    invalid.  Used by harnesses whose oracles rely on full-rewrite
    semantics. *)
val update_multi_full :
  ?tag:int ->
  t ->
  (int * ((int * int) list * (int * int) list)) list ->
  (int * int) list

(** {2 Per-shard readers, observers, quiescence} *)

val register_reader : t -> shard:int -> Tables.reader
val unregister_reader : t -> shard:int -> Tables.reader -> unit
val set_observer : t -> shard:int -> Tables.observer option -> unit

(** Non-blocking quiescence probe on one shard ({!Tables.quiesce_attempt}):
    a wedged reader on shard [k] blocks only shard [k]'s declaration. *)
val quiesce_attempt : t -> shard:int -> bool

(** Probe every shard; element [i] is shard [i]'s verdict. *)
val quiescent_shards : t -> bool array

val version : t -> shard:int -> int

(** {2 Shard state snapshots (forensics)} *)

val state : t -> shard:int -> Tables.state
(** One shard's {!Tables.state} snapshot. *)

val states : t -> Tables.state list
(** Every shard's state, in shard order. *)

val states_json : t -> Mcfi_util.Json.t
(** {!states} as the ["shards"] array of the forensic-bundle schema. *)

(** MCFI's table-access transactions (paper §5.2, Figs. 3 and 4).

    [check] is the reference implementation of the check transaction: read
    branch ID, read target ID, one equality compare in the common case; on
    mismatch, distinguish (a) invalid target ID — CFI violation, (b) version
    mismatch — an update transaction is in flight, retry, (c) same version
    but different ECN — CFI violation.  The VM executes the same logic as an
    inlined instruction sequence (see {!Instrument.Rewriter}); this
    function is used by the micro-benchmarks and the concurrency tests.

    [update] is the update transaction: serialized by the global update
    lock, it bumps the version, rewrites the whole Tary table, issues a
    write barrier (every [Tables.tary_set] is sequentially consistent),
    runs the GOT-update hook, then rewrites the Bary table.  Tary-first
    ordering guarantees a check that observes a new-version branch ID also
    observes new-version target IDs. *)

type outcome =
  | Pass
  | Violation
  | Retries_exhausted
      (** only with [~max_retries] and [Fail_check] escalation; the
          unbounded transaction spins until the concurrent update
          completes *)

val pp_outcome : Format.formatter -> outcome -> unit

(** What a bounded check does when its retry budget runs out with the
    tables still version-skewed (an update transaction stuck or dead
    mid-flight):
    - [Fail_check] surfaces {!Retries_exhausted} to the caller (default;
      the VM maps it to a fault);
    - [Halt_process] treats exhaustion as a {!Violation} — the
      fail-closed posture: never keep running on tables of unprovable
      consistency;
    - [Wait_for_updater] takes the update lock (waiting out a live
      updater, redoing a dead one's journalled install — {!recover}) and
      re-attempts once with a fresh budget. *)
type escalation = Halt_process | Wait_for_updater | Fail_check

val pp_escalation : Format.formatter -> escalation -> unit

(** The update watchdog: a deadline, measured in backoff rounds of the
    retry loop, after which a still-version-skewed check concludes the
    update-lock holder is stalled (or died mid-install, leaving torn
    tables) and escalates.  [Wait_for_updater] as the expiry action is
    journal-assisted recovery: take the lock — waiting out a live holder,
    redoing a dead one's journal — and re-attempt.  Every expiry bumps
    [Faults.Stats.watchdog_fires]. *)
type watchdog = {
  wd_deadline : int;  (** backoff rounds before the watchdog fires *)
  wd_on_expire : escalation;
}

val pp_watchdog : Format.formatter -> watchdog -> unit

(** [backoff round] is the bounded exponential backoff used by the retry
    loops: [2^min(round,6)] [Domain.cpu_relax] pause hints.  With
    [jitter], the spin count is drawn uniformly from [base, 2*base) —
    N checkers backing off from the same contended install desynchronize
    instead of retrying in lockstep, and the schedule is deterministic
    per PRNG seed. *)
val backoff : ?jitter:Mcfi_util.Prng.t -> int -> unit

(** [backoff_spins round] is the spin count {!backoff} would use — the
    deterministic jitter schedule, exposed for tests and for callers
    that pace something other than [cpu_relax] (the fleet supervisor's
    restart delays). *)
val backoff_spins : ?jitter:Mcfi_util.Prng.t -> int -> int

(** The calling domain's own jitter stream, derived lazily from the
    process-wide base seed and the domain id.  A [Prng.t] is mutable and
    unsynchronized, so handing one stream to checkers on several domains
    both races its state and correlates their backoff draws; pass
    [~jitter:(Tx.domain_jitter ())] instead and every domain gets an
    independent, deterministic schedule.  Repeated calls on one domain
    return the same stream. *)
val domain_jitter : unit -> Mcfi_util.Prng.t

(** [seed_domain_jitter seed] sets the base seed the per-domain streams
    derive from (harness replay).  Each domain re-derives its stream on
    its next {!domain_jitter} call, including domains that already hold
    one from the previous seed. *)
val seed_domain_jitter : int64 -> unit

(** {2 Flight-recorder failure capture}

    Gated on {!Obs.Flightrec.recording} — never on telemetry sampling —
    so the black box still has answers when tracing was off.
    {!check} calls them on every non-[Pass] outcome and on watchdog
    expiry; the hoisted-site hit path reports cached violations through
    them too.  Each occurrence writes one ring event. *)

(** Record a violating / exhausted transfer: a breadcrumb in the calling
    domain's ring (skipped when [traced]: the check's sampled outcome
    event is already there) plus (cap permitting) a forensic bundle
    whose [site] carries the slot, target, both ID words with ECN class
    names, and [shard] the table's structural state.  The caller gates
    it on {!Obs.Flightrec.recording}. *)
val capture_failure :
  ?traced:bool ->
  Tables.t -> bary_index:int -> target:int -> outcome:outcome -> retries:int ->
  unit

(** Record a watchdog expiry ([rounds] = backoff rounds waited): the
    fire event ({!Obs.Flightrec.event}: traced when telemetry is on,
    else noted) plus (cap permitting) a forensic bundle.  Ungated: both
    writes check their own gates. *)
val capture_watchdog :
  Tables.t -> bary_index:int -> target:int -> rounds:int -> unit

(** [check t ~bary_index ~target] runs one check transaction.
    [max_retries] bounds the retry loop (tests and the VM use a fuel
    bound; production semantics is unbounded): [~max_retries:n] allows the
    initial attempt plus at most [n] retries, so [~max_retries:0] means
    "no retries" — the first version skew already exhausts the budget.
    Every retry backs off ([Domain.cpu_relax], bounded exponential).
    [on_retry] is called once per actual retry — test instrumentation.
    [escalation] picks the budget-exhaustion policy (default
    [Fail_check]); [watchdog] independently bounds how long the loop will
    chase a stalled updater.  [jitter] randomizes each retry's backoff
    (see {!backoff}); the PRNG is owned by the calling domain. *)
val check :
  ?max_retries:int ->
  ?escalation:escalation ->
  ?watchdog:watchdog ->
  ?jitter:Mcfi_util.Prng.t ->
  ?on_retry:(unit -> unit) ->
  Tables.t ->
  bary_index:int ->
  target:int ->
  outcome

(** The production fast path: the same transaction without the test
    instrumentation hooks (no allocation; one load per table and one
    equality compare in the common case — the shape the paper's inline
    sequence has). [true] = the transfer is allowed.  On version skew it
    pauses the core ([Domain.cpu_relax]) and retries; [on_retry], given
    the retry round, lets a caller layer extra backoff without touching
    the common path. *)
val check_fast :
  ?on_retry:(int -> unit) -> Tables.t -> bary_index:int -> target:int -> bool

(** {2 Version-hoisted check sites}

    TML-style read hoisting for a branch site that keeps transferring to
    the same target: cache the (branch ID, target ID) pair together with
    the install sequence word ({!Tables.seq_read}) it was read under,
    and re-validate each check on that word alone.  Every install-like
    mutation — full and delta updates, journal redo, loader rollback —
    makes the word odd before its first slot write and advances it to a
    {e fresh} even value after the final barrier, so an unchanged even
    word proves the slot arrays are bit-identical to the fill instant:
    replaying the cached pair is linearizable to both loads happening
    now.  A moved or odd word (an install completed or is in flight)
    falls back to the full transaction and refills.  Only {e settled}
    pairs are cached — equal IDs, an invalid target, or an ECN mismatch
    at equal versions; a version-skewed pair is never replayed, so the
    retry/escalation ladder lives entirely on the fallback path and a
    hoisted hit can never mask an in-flight update. *)

(** One branch site's hoisted-read cache.  Owned by a single checker
    domain (plain mutable state, not shared). *)
type site

(** A fresh, empty site (the first check through it always misses). *)
val site : unit -> site

(** [(hits, misses)] — how often the site validated on the sequence word
    alone vs fell back to the full transaction. *)
val site_stats : site -> int * int

(** [check_hoisted t site ~bary_index ~target] — one check transaction
    through [site]'s cache: a hit costs one atomic load of the sequence
    word plus two compares; a miss runs {!check} with the given options
    and refills.  Outcomes are identical to {!check} against the same
    table state. *)
val check_hoisted :
  ?max_retries:int ->
  ?escalation:escalation ->
  ?watchdog:watchdog ->
  ?jitter:Mcfi_util.Prng.t ->
  ?on_retry:(unit -> unit) ->
  Tables.t ->
  site ->
  bary_index:int ->
  target:int ->
  outcome

(** [update t ~tary ~bary] installs a new CFG: [tary] maps each valid
    indirect-branch target address to its ECN, [bary] maps each branch slot
    to its branch ECN.  Slots not mentioned become invalid.  [got_update]
    runs between the Tary and Bary phases (paper: GOT entries are updated
    there, serialized by the same barrier).  [tag] (default [-1]) labels
    the install for the table's {!Tables.observer} and travels with the
    journal, so a redo reports the original tag.  Returns the new
    version. *)
val update :
  ?tag:int ->
  ?got_update:(unit -> unit) ->
  Tables.t ->
  tary:(int * int) list ->
  bary:(int * int) list ->
  int

(** Where a grow entry's version comes from: an existing slot of the
    class it is joining.  Resolved by [update_delta] itself, under the
    update lock and after torn-predecessor recovery, so the carried
    version can never be stale. *)
type carry_source = From_tary of int | From_bary of int

(** [update_delta t ~tary ~bary ~tary_carry ~bary_carry] installs a CFG
    {e delta}: only the listed slots are written, every other slot keeps
    its current ID.  [tary]/[bary] are rewrites, packed at the bumped
    version — every slot of every class whose shape changed, so classes
    stay version-uniform.  [tary_carry]/[bary_carry] are
    [(slot, ecn, source)] grow entries: new slots joining an otherwise
    untouched class at the version that class already carries (read off
    the donor [source], which must still hold the entry's ECN), which is
    what keeps untouched classes readable (no version skew, no check
    retries) for the whole install window.  The transaction follows the
    full protocol — torn-predecessor recovery, ABA budget, version bump,
    intent journal ({!Tables.Jdelta}, with carries resolved so a redo is
    deterministic), Tary phase, barrier, [got_update], Bary phase — and
    a death mid-install is redone by the next lock holder exactly like a
    full update.  [pre_install] runs under the update lock after
    recovery and validation, before the journal is set: the loader
    captures its rollback {!Tables.slot_snapshot} there.  Returns the
    new version. *)
val update_delta :
  ?tag:int ->
  ?got_update:(unit -> unit) ->
  ?pre_install:(unit -> unit) ->
  Tables.t ->
  tary:(int * int) list ->
  bary:(int * int) list ->
  tary_carry:(int * int * carry_source) list ->
  bary_carry:(int * int * carry_source) list ->
  int

(** [refresh t] re-installs the current tables under a fresh version,
    preserving every ECN — the paper's §8.1 update-transaction stress
    experiment does exactly this at 50 Hz. Returns the new version. *)
val refresh : Tables.t -> int

(** [recover t] redoes a torn update transaction from the journal a dead
    updater left behind ({!Tables.journal}), under the update lock.
    Returns [true] if there was one to redo.  [update] performs the same
    recovery implicitly before installing its own CFG, so an explicit call
    is only needed to repair tables without changing the CFG.  The torn
    transaction's GOT hook is {e not} re-run — binding GOT slots again is
    the loader journal's job (see {!Mcfi_runtime.Process}). *)
val recover : Tables.t -> bool

(** Raised by [update]/[refresh] when 2^14 - 1 update transactions have
    executed with no intervening quiescence point — the ABA hazard of
    paper §5.2.  Before giving up, the update transaction tries to infer
    quiescence from the epoch registry ({!Tables.try_quiesce}): it waits,
    bounded, for every registered checker to cross a branch boundary, so
    a sustained update storm against live epoch-registered checkers never
    exhausts the version space.  With no registered readers the historical
    behaviour stands: the wall is hit at 2^14 - 1 unquiesced updates. *)
exception Version_space_exhausted

(** The shared-table rig, and the multi-domain torture harness built on
    it, for the transaction protocol (§5.2) and the dynamic-linking
    protocol (§6–7).

    The rig (see {!rig} below) is what every harness on shared tables
    runs on: the tables, the seeded CFG pool, the install logs, the
    judged check, the kill-armed install and the end-of-run audit.  The
    torture below and the fleet supervisor ([lib/supervisor]) both drive
    it, each with its own workload shape.

    A torture {e scenario} — derived deterministically from a seed — runs N
    checker domains against M updater domains on one table pair, plus an
    optional loader storm that [Process.load]s (and fails, and rolls
    back) modules against a live process while more checkers run.  The
    updater storm is composed with the fault-injection plans of
    [lib/faults], so updaters are killed mid-install and recovery is
    exercised {e concurrently} with running checks.

    Every check outcome is validated by an {e epoch-history oracle}: the
    table observer logs each install transaction's begin (before its
    first slot write) and completion (after its final barrier), both
    under the update lock; a checker brackets its transaction with the
    completed/begun counters and the oracle then demands that a [Pass] be
    justified by some CFG whose install overlapped the check's read
    window, and a [Violation] by some overlapping CFG that denies the
    edge.  A pass explained by no live version would be a CFI breach of
    the mechanism itself; a violation explained by none would be a
    spurious halt.

    Scenarios are deterministic in their {e workload} (CFG pool, probe
    streams, kill schedule all derive from the seed); domain scheduling
    still varies between runs, but the oracle judges every interleaving,
    so a reported anomaly always carries the seed needed to re-run the
    same hunt. *)

type scenario = {
  seed : int64;
  checkers : int;  (** checker domains on the shared tables *)
  updaters : int;  (** updater domains *)
  updates : int;  (** update transactions, total across updaters *)
  cfgs : int;  (** size of the seeded CFG pool *)
  targets : int;  (** 4-byte-aligned Tary target slots *)
  slots : int;  (** Bary slots *)
  kill_every : int;
      (** arm a mid-install updater kill every [kill_every] updates of
          updater 0 (0 = never) *)
  reclaimer : bool;  (** run a background quiescence-reclaimer domain *)
  watchdog_deadline : int;  (** checker watchdog deadline, backoff rounds *)
  loader_loads : int;  (** loader-storm [Process.load]s (0 = storm off) *)
  loader_fault_one_in : int;
      (** arm a fault for roughly 1 in [n] loader loads (0 = never) *)
  shards : int;
      (** fault domains: the table pair is split into [shards]
          independently versioned shards ({!Idtables.Shards}); checkers
          and updaters are homed round-robin, roughly one update in
          eleven commits cross-shard, and kills are shard-scoped so a
          torn install is confined to one shard's recovery *)
  hoisted : bool;
      (** torture checkers run through version-hoisted {!Idtables.Tx.site}
          caches (one per branch slot, as the threaded engine's fused
          check superinstructions do) instead of full per-check table
          reads; the epoch-history oracle judges both paths unchanged *)
}

(** A scenario with the dimensions the acceptance gate needs: 4 checkers,
    2 updaters, > 2^14 updates, periodic mid-install kills. *)
val default : seed:int64 -> scenario

(** Derive a randomized scenario (domain counts, pool shape, kill cadence,
    storm size) from the seed — the [torture] subcommand's generator. *)
val generate : seed:int64 -> scenario

val pp_scenario : Format.formatter -> scenario -> unit

(** An oracle violation (or fatal protocol error), with enough detail to
    investigate and the seed to replay the hunt. *)
type anomaly = { an_seed : int64; an_kind : string; an_detail : string }

val pp_anomaly : Format.formatter -> anomaly -> unit

type report = {
  rp_scenario : scenario;
  rp_checks : int;  (** check transactions run (torture + storm) *)
  rp_passes : int;
  rp_violations : int;
  rp_exhausted : int;  (** checks that reported [Retries_exhausted] *)
  rp_installs : int;  (** completed install transactions, all shards *)
  rp_shard_installs : int array;
      (** completed install transactions per shard (each shard's own
          history log balanced begin-for-completion) *)
  rp_kills : int;  (** updater kills injected mid-install *)
  rp_recoveries : int;  (** torn installs redone from the journal *)
  rp_retries : int;  (** check retries on version skew *)
  rp_watchdog_fires : int;
  rp_rollbacks : int;  (** loader-storm journal rollbacks *)
  rp_loads_ok : int;
  rp_loads_failed : int;  (** failed loads (faults, duplicates) — all rolled back *)
  rp_quiesces : int;  (** quiescence points declared on the torture tables *)
  rp_anomalies : anomaly list;
  rp_trace : Telemetry.Event.t list;
      (** merged trace tail attached as evidence when the run is
          anomalous and [Telemetry.enabled]; empty otherwise *)
  rp_elapsed_s : float;
}

val pp_report : Format.formatter -> report -> unit

(** [run scenario] executes the scenario and returns its report.  Resets
    {!Faults.Stats} — and, when telemetry is enabled, the process-global
    trace/metrics (the harness owns both while it runs) — and leaves no
    plan armed. *)
val run : scenario -> report

(** {2 Check throughput during delta installs}

    The §8-style interference measurement for the incremental linker:
    checker domains hammer {!Idtables.Tx.check_fast} while the main
    domain streams {!Idtables.Tx.update_delta} transactions, each
    dirtying two classes (every slot of both rewritten at the bumped
    version, as the linker's delta does) and occasionally growing an
    untouched class through the carry path. *)

type throughput = {
  tp_checks : int;  (** checks completed across all checker domains *)
  tp_checks_during_install : int;
      (** checks whose window overlapped an install *)
  tp_installs : int;  (** delta installs performed *)
  tp_carries : int;  (** installs that exercised a carry entry *)
  tp_elapsed_s : float;  (** wall time of the whole install stream *)
  tp_install_s : float;  (** cumulative wall time inside installs *)
}

(** [install_throughput ~seed ()] runs the scenario above and returns
    the raw counts; callers derive rates ([tp_checks /. tp_elapsed_s],
    [tp_checks_during_install /. tp_install_s]).  Deterministic workload
    per [seed]; scheduling still varies. *)
val install_throughput :
  ?checkers:int ->
  ?installs:int ->
  ?targets:int ->
  ?slots:int ->
  ?classes:int ->
  seed:int64 ->
  unit ->
  throughput

(** {2 Install scaling across shards}

    Two measurements against an {!Idtables.Shards} instance. Phase A:
    updater domains hammer full installs, homed round-robin over the
    shards — contended install throughput, where a single shard means a
    single update lock.  Phase B: one extra domain wedges shard 0's
    update lock for [wedge_s] while the same updaters keep going;
    installs completed inside the window measure the blast radius of
    one wedged shard (near zero with one shard; untouched homes keep
    installing with several). *)

type shard_scaling = {
  ss_shards : int;
  ss_installs : int;  (** phase-A installs completed *)
  ss_installs_per_s : float;
  ss_wedge_s : float;  (** length of the wedged window *)
  ss_wedged_installs : int;
      (** installs completed while shard 0's lock was held *)
  ss_elapsed_s : float;
}

val shard_scaling :
  ?updaters:int ->
  ?duration_s:float ->
  ?wedge_s:float ->
  ?targets:int ->
  ?slots:int ->
  shards:int ->
  seed:int64 ->
  unit ->
  shard_scaling

(** {2 The shared-table rig}

    The pieces both table harnesses are built from: {!run}'s torture
    (free-running checker and updater domains) and the fleet supervisor
    in [lib/supervisor] (tenants multiplexed over worker domains under a
    supervisor tick loop).

    A rig holds sharded tables with their targets at one code base, a
    seeded pool of small CFGs (three equivalence classes, about 1-in-4
    targets holes), one install log per shard, and a seeding install of
    pool CFG 0 on every shard.  The install log is the epoch-history
    oracle's evidence: an {!Idtables.Tables.observer} records each
    install transaction's begin (before its first slot write) and
    completion (after its final barrier), both under the update lock,
    so a check that reads the completed count before its table reads
    and the begun count after them can only have observed the installs
    in that window. *)

type rig

val begin_run : seed:int64 -> hoisted:bool -> unit
(** Rewind the process-global state a run owns: disarm any fault plan,
    reset {!Faults.Stats}, the telemetry trace (when enabled) and the
    flight recorder (when recording), re-seed the per-domain backoff
    jitter, and set the trace's dispatch hint ([hoisted] checks model
    the threaded engine). *)

val create :
  seed:int64 ->
  pool_prng:Mcfi_util.Prng.t ->
  cfgs:int ->
  slots:int ->
  targets:int ->
  shards:int ->
  log:int ->
  across:bool ->
  rig
(** Draw [cfgs] pool CFGs from [pool_prng], build [shards] shards of
    [slots] branch slots and [targets] 4-aligned targets, attach an
    install log of [log] entries per shard, and install pool CFG 0 on
    every shard.  [across]: some installs commit on two shards, so a
    kill may also land between shard commits.  [seed] is the one
    anomalies report for replay. *)

val shards : rig -> Idtables.Shards.t

val completed : rig -> int -> int
(** Install transactions completed on a shard so far. *)

(** Where a domain records anomalies: it keeps the first few and writes
    one forensic bundle per anomaly while the flight recorder is on. *)
type sink

val sink : unit -> sink
val anomalies : sink -> anomaly list

val check :
  rig ->
  sink ->
  Telemetry.tally ->
  shard:int ->
  watchdog:Idtables.Tx.watchdog ->
  jitter:Mcfi_util.Prng.t ->
  retries:int ref ->
  ?on_retry:(unit -> unit) ->
  ?sites:Idtables.Tx.site array ->
  label:string ->
  Mcfi_util.Prng.t ->
  Idtables.Tx.outcome
(** One judged check on [shard].  Draws a probe from the PRNG (a branch
    slot and a target: in range, misaligned, or past the code), runs
    {!Idtables.Shards.check} (or [check_hoisted] through [sites], one
    site per branch slot) bracketed by the shard's install-log counters,
    and bumps the tally with the outcome and the retries counted in
    [retries] (which [on_retry] must increment).  The oracle then demands
    that a pass be justified by some pool CFG installed in the read
    window that allows the edge, and a violation by one that denies it;
    otherwise it records an [unjustified-pass] or
    [unjustified-violation] anomaly whose detail starts with [label] and
    carries the window and its versions. *)

type installed = Installed | Killed | Exhausted

val install :
  rig ->
  sink ->
  kill:bool ->
  ?cross:bool ->
  shard:int ->
  label:string ->
  Mcfi_util.Prng.t ->
  int ->
  installed
(** [install r k ~kill ~shard ~label prng ci] installs pool CFG [ci] on
    [shard], tagged [ci] in the install log.  [kill] first arms a
    one-shot mid-install kill scoped to [shard] (its point drawn from
    [prng]); it fires inside whichever installer crosses it next, which
    gets [Killed] and writes exactly one injected-kill forensic bundle.
    [cross] also commits on a second shard drawn from [prng], through
    the cross-shard sequence.  Running out of versions is [Exhausted]
    and a [version-space-exhausted] anomaly. *)

val reclaim : rig -> unit
(** One quiescence-reclaimer pass: try to declare quiescence on every
    shard with installs since its last one. *)

val finish : rig -> anomaly list * int array * int
(** Detach the install logs and audit them: a [history-overflow] or
    [unbalanced-install-log] anomaly per shard whose log overflowed or
    has a begin without a completion (recover torn installs first).
    Returns those anomalies, the installs completed per shard and the
    quiescence points declared on all shards. *)

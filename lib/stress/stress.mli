(** Multi-domain torture harness for the transaction protocol (§5.2) and
    the dynamic-linking protocol (§6–7).

    A {e scenario} — derived deterministically from a seed — runs N
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

(** {2 The seeded CFG pool and epoch-history oracle}

    Exposed for harnesses that run their own workloads against shared
    tables but want this module's correctness judge — the fleet
    supervisor ([lib/supervisor]) validates every tenant check with it.

    A pool CFG lives in a tiny ECN space: [c_bary.(slot)] is a branch
    slot's class, [c_tary.(i)] the class of the [i]-th 4-aligned target
    ([-1] = not a target). *)

type cfg = { c_bary : int array; c_tary : int array }

val ecn_space : int
(** Number of distinct equivalence classes a pool CFG draws from. *)

val gen_cfg : Mcfi_util.Prng.t -> slots:int -> targets:int -> cfg
(** Draw one pool CFG (about 1-in-4 targets are holes). *)

val allows : cfg -> slot:int -> tidx:int -> bool
(** Whether the CFG permits branch [slot] to reach target index [tidx]. *)

val tary_of : base:int -> cfg -> (int * int) list
(** [(address, ecn)] Tary entries of a CFG, targets based at [base]. *)

val bary_of : cfg -> (int * int) list
(** [(slot, ecn)] Bary entries of a CFG. *)

(** The install log: an {!Idtables.Tables.observer} records each install
    transaction's begin (before its first slot write) and completion
    (after its final barrier), both under the update lock.  A check that
    brackets its table reads with {!history_completed} before and
    {!history_began} after can only have observed installs in the window
    [[c0-1, b1-1]] — the oracle's justification set. *)
type history

val make_history : int -> history
(** [make_history capacity] — logs overflow (and stop recording) past
    [capacity] begins; see {!history_overflowed}. *)

val observer : history -> Idtables.Tables.observer
(** The observer to pass to {!Idtables.Tables.set_observer}. *)

val history_began : history -> int
val history_completed : history -> int
val history_overflowed : history -> bool

val window_justifies :
  history ->
  cfg array ->
  slot:int ->
  tidx:int ->
  c0:int ->
  b1:int ->
  pass:bool ->
  bool
(** [window_justifies h pool ~slot ~tidx ~c0 ~b1 ~pass]: does some
    install in the check's read window justify the outcome — a [Pass]
    by a pool CFG allowing the edge, a violation by one denying it?
    [false] means the mechanism itself misbehaved (a pass no live
    version explains is a CFI breach; an unexplained violation is a
    spurious halt). *)

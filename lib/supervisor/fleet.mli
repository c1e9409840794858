(** Tenant-fleet supervision: N tenants on one shared table pair, each
    its own fault domain, under a supervisor that restarts, degrades and
    quarantines them while an install storm rages.

    Every tenant is a supervised workload entity: it registers an epoch
    reader on the shared tables, runs oracle-validated check
    transactions (judged by the {!Stress} epoch-history oracle), and
    serves install transactions from a bounded per-tenant queue the
    supervisor feeds.  A few {e loader} tenants own a real
    {!Mcfi_runtime.Process} instead and churn [dlopen]s against it.
    Chaos comes from {!Faults.Tenant} plans — kill-mid-install (the
    victim dies inside an update transaction, journal set, lock
    released), wedge-reader (the tenant stops crossing branch
    boundaries while staying registered — the corpse that would wedge
    quiescence forever), slow-tenant — all replayable from the single
    campaign seed.

    The supervisor ticks on the main domain: it samples each tenant's
    runtime signals, drives its {!Health} machine, tears down crashed
    and quarantined tenants crash-only ({!Mcfi_runtime.Process.teardown}
    semantics: unregister the reader so the corpse cannot gate
    {!Idtables.Tables.try_quiesce}, then {!Idtables.Tx.recover} any torn
    install it died inside of), restarts within a bounded jittered
    backoff and a per-window budget, sheds admissions past the queue
    bound (with a retry-after), and doubles as the quiescence
    reclaimer. *)

type config = {
  fc_seed : int64;
  fc_tenants : int;  (** fleet size (including loaders) *)
  fc_workers : int;  (** worker domains multiplexing the tenants *)
  fc_ticks : int;  (** supervision rounds *)
  fc_checks_per_slice : int;  (** check transactions per tenant slice *)
  fc_cfgs : int;  (** seeded CFG pool size *)
  fc_targets : int;  (** Tary targets of the shared tables *)
  fc_slots : int;  (** Bary slots *)
  fc_base_installs : int;  (** installs admitted per tick (baseline) *)
  fc_storm_every : int;  (** a storm burst every N ticks (0 = never) *)
  fc_storm_size : int;  (** extra installs admitted per storm tick *)
  fc_churn_every : int;
      (** voluntarily retire-and-restart a tenant every N ticks (0 = never) *)
  fc_loaders : int;  (** tenants owning a real process (dlopen churn) *)
  fc_chaos : Faults.Tenant.plan list;
  fc_policy : Health.policy;
  fc_tick_s : float;  (** supervisor pacing between rounds, seconds *)
  fc_shards : int;
      (** shard fault domains ({!Idtables.Shards}); each tenant is homed
          on shard [id mod fc_shards]: its reader, checks, installs,
          kills and recovery all confined there *)
  fc_shard_breaker : int;
      (** per-shard circuit breaker: quarantine a whole shard — tearing
          down {e only its own} tenants — once this many crashes have
          been attributed to it (0 = off) *)
  fc_slo_breaker : bool;
      (** let the SLO engine's shard burn-rate alerts trip the breaker:
          a shard whose "shard-crash-free" objective burns past
          threshold in both windows is quarantined, and the transition
          record carries the alert id ({!Obs.Slo}) *)
  fc_dispatch : Mcfi_runtime.Machine.dispatch;
      (** execution engine for the loader tenants' VM processes *)
}

val default : seed:int64 -> config
(** The acceptance-gate shape: 64 tenants, storms, churn, and seeded
    kill/wedge/slow chaos. *)

val smoke : seed:int64 -> config
(** A small fast fleet (16 tenants) for CI and unit tests. *)

val pp_config : Format.formatter -> config -> unit

type report = {
  fr_config : config;
  fr_checks : int;
  fr_passes : int;
  fr_violations : int;
  fr_exhausted : int;
  fr_retries : int;
  fr_installs : int;  (** installs completed on the shared tables *)
  fr_served : int;  (** queued installs committed by tenants *)
  fr_admitted : int;  (** installs accepted into tenant queues *)
  fr_shed : int;  (** admissions dropped by load shedding *)
  fr_deferred : int;  (** admissions pushed back with a retry-after *)
  fr_kills : int;  (** tenant deaths the supervisor processed *)
  fr_restarts : int;  (** rebirths completed *)
  fr_quarantined : int;  (** tenants quarantined (budget or breaker) *)
  fr_unrecovered : int;
      (** killed tenants neither reborn nor quarantined by the end —
          the acceptance gate demands 0 *)
  fr_survivors : int;  (** tenants still serving at the end *)
  fr_survival_rate : float;
  fr_recoveries_ms : float list;  (** crash-to-rebirth latencies *)
  fr_recovery_p50_ms : float;
  fr_recovery_p99_ms : float;
  fr_loads_ok : int;  (** loader-tenant dlopens that committed *)
  fr_loads_failed : int;  (** loader-tenant dlopens rolled back *)
  fr_quiesces : int;
  fr_final_quiesce : bool;
      (** every shard's post-run tables reached quiescence — teardown
          really did free every corpse's reader registration *)
  fr_shard_installs : int array;  (** installs completed per shard *)
  fr_shard_served : int array;  (** queued installs committed, per shard *)
  fr_shards_quarantined : int;  (** shards whose breaker tripped *)
  fr_slo_alerts : int;  (** burn-rate alerts the SLO engine raised *)
  fr_alert_trips : (int * int) list;
      (** [(shard, alert id)] for every alert-driven breaker trip, in
          trip order — empty unless [fc_slo_breaker] *)
  fr_anomalies : Stress.anomaly list;
  fr_elapsed_s : float;
}

val pp_report : Format.formatter -> report -> unit

val ok : report -> bool
(** The acceptance predicate: no oracle anomalies, every killed tenant
    restarted or quarantined, quiescence not wedged. *)

val run : config -> report
(** Execute the fleet.  Resets {!Faults.Stats} (and the process-global
    telemetry when enabled), plus the flight recorder, SLO registry and
    time-series registry, so a run's observability accounting is exact:
    one forensic bundle per injected kill and per oracle anomaly, alert
    ids counted from this run.  Leaves no global fault plan armed.  The
    workload is deterministic per seed; domain scheduling still varies,
    but the epoch-history oracle judges every interleaving. *)

(** Machine-readable benchmark reports ({!output_file}).

    The report document and its validator (the tier-1 smoke test
    re-parses what the bench emits with {!Mcfi_util.Json.parse}), plus
    the incremental-linking measurement itself: an N-module dlopen chain run
    twice — once against the historical regenerate-everything linker,
    once against the incremental one — with the differential oracle
    checked after every incremental install (outside the timed window).

    The measurement lives here rather than in [bench/] so the tier-1
    suite can run a scaled-down chain and validate the report shape
    without executing the benchmark binary. *)

(** The report is a {!Mcfi_util.Json} document; the constructors are
    re-exported so report builders can stay in this module's terms. *)
type t = Mcfi_util.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** {2 The dlopen-chain scaling measurement} *)

type link_sample = {
  ls_module : int;  (** position in the chain, 1-based *)
  ls_full_ms : float;  (** [Process.load] under full regeneration *)
  ls_incr_ms : float;  (** the same load under incremental linking *)
}

(** [dlopen_chain ()] builds [modules] synthetic MiniC modules whose
    function-pointer types overlap (so equivalence classes span the whole
    chain and every load grows existing classes), loads them in order
    into a full-regeneration process and an incremental one, and returns
    the per-load wall times — the minimum over [rounds] fresh chains.
    After every incremental load the differential oracle
    ({!Mcfi_runtime.Process.oracle_check}) runs outside the timed
    window; a divergence raises [Failure]. *)
val dlopen_chain :
  ?modules:int -> ?fns:int -> ?rounds:int -> unit -> link_sample list

(** {2 Schema identity} *)

(** The schema name stamped into every report ("mcfi-bench"). *)
val schema : string

(** The report schema version; {!validate} requires an exact match. *)
val schema_version : int

(** The file name the emitting bench writes, derived from
    {!schema_version} ("BENCH_<version>.json"). *)
val output_file : string

(** Assemble the report document.  [torture] is the
    check-throughput-during-install section, [telemetry] the
    instrumentation-overhead section, [fuzz] the fuzzing-throughput
    section, [fleet] the tenant-supervision section, [shards] the
    sharded-installs scaling section and [dispatch] the byte-vs-threaded
    execution-engine section (all built by the caller from
    [Stress]/[Fuzz]/[Supervisor] data — those libraries sit above this
    one).  [samples] must be non-empty. *)
val report :
  samples:link_sample list ->
  torture:t ->
  telemetry:t ->
  fuzz:t ->
  fleet:t ->
  shards:t ->
  dispatch:t ->
  obs:t ->
  redteam:t ->
  t

(** Check the report shape the smoke test relies on: the schema
    name/version match this build, the chain is non-empty with finite
    timings, the last-link summary and speedup are finite, the torture
    section carries finite [checks_per_s], [installs_per_s] and
    [checks_during_install_per_s], the telemetry section carries
    finite [disabled_checks_per_s], [enabled_checks_per_s],
    [throughput_ratio] and [overhead_pct], the fuzz section carries
    finite [iterations] and [iters_per_s], the fleet section
    carries finite [survival_rate], [recovery_ms_p50],
    [recovery_ms_p99], [installs_served] and [installs_shed], the
    shards section carries a finite [wedged_confinement] plus a
    non-empty [rows] array of finite
    [shards]/[installs_per_s]/[wedged_installs] rows, and the dispatch
    section carries finite [tight_check_byte_ns],
    [tight_check_threaded_ns] and [tight_check_speedup] plus a
    non-empty [rows] array of finite
    [shards]/[byte_checks_per_s]/[threaded_checks_per_s] rows, and the
    obs section carries finite [flightrec_off_checks_per_s],
    [flightrec_on_checks_per_s], [flightrec_ratio], [snapshot_p99_ns]
    and [alert_lag_ticks], and the redteam section carries finite
    [sites], [corruptible_sites], [forward_edges], [backward_edges],
    [sabotage_chains], [sabotage_confirmed] and [clean_chains] plus a
    non-empty [class_histogram] array of finite [class_size]/[classes]
    rows. *)
val validate : t -> (unit, string) result

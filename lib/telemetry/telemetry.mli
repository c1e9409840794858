(** Domain-safe observability: one pool of per-domain lock-free event
    rings, one per-domain check-tally slab, a counter/histogram metrics
    registry, and text/JSON exporters.

    Two writers share the rings.  {!emit} records the sampled trace,
    each event stamped from a global sequence so {!drain} merges all
    rings into one causally ordered trace.  {!note} records the flight
    recorder's always-on breadcrumbs without a shared read-modify-write;
    [Obs.Flightrec] bundles capture the last events of every ring with
    {!tail}.

    The trace hooks are gated on {!enabled}; when the gate is off a hook
    costs one atomic load and allocates nothing, so instrumentation can
    stay compiled into the hot check/update paths permanently.  {!note}
    and {!bump} are ungated: [Obs.Flightrec] gates them on its own
    switch. *)

(** {1 The gates} *)

val enabled : unit -> bool

val enable : unit -> unit
(** Turn telemetry on (and arm one default-mode check sample). *)

val disable : unit -> unit

val set_detail : bool -> unit
(** Detail mode (off by default): exact per-check outcome tallies
    ({!check_totals}, {!fast_totals}) and uniform 1-in-64 check
    sampling, at the price of a [Domain.self] and a few stores on every
    check (~10-15 ns).  The default mode keeps the per-check cost at
    about one load by sampling only when {!request_sample} arms the
    trigger — which every structural event (install, watchdog fire,
    fault, span) does automatically. *)

val detail : unit -> bool

val request_sample : unit -> unit
(** Arm the default-mode sampler: the next check transaction on any
    domain traces itself (outcome event, latency, retries).  No-op when
    disabled. *)

val reset : unit -> unit
(** Rewind every trace ring, zero the sequence counter, and zero every
    registered metric.  Rings are recycled, not re-allocated, so a reset
    before a measured run adds no GC debt to the run.  Best-effort when
    other domains are emitting concurrently. *)

val now_ns : unit -> int
(** Wall-clock nanoseconds (gettimeofday-based; for span durations). *)

(** {1 Trace events} *)

module Event : sig
  type kind =
    | Check_pass          (** a=slot, b=target, c=retries used *)
    | Check_violation     (** a=slot, b=target, c=retries used *)
    | Check_exhausted     (** a=slot, b=target, c=retries used *)
    | Check_retry         (** a=slot, b=target, c=round *)
    | Watchdog_fire       (** a=table version observed, b=slot, c=rounds *)
    | Update_begin        (** a=version, b=tag *)
    | Update_commit       (** a=version, b=tag *)
    | Update_recover      (** a=version, b=tag *)
    | Update_rollback     (** a=loads rolled back *)
    | Span_begin          (** a=phase code, b=load ordinal *)
    | Span_end            (** a=phase code, b=load ordinal, c=ns *)
    | Fault_injected      (** a=fault point ordinal *)
    | Tenant_state        (** a=tenant, b=new health state, c=old state *)
    | Tenant_restart      (** a=tenant, b=attempt, c=backoff delay *)
    | Install_shed        (** a=tenant, b=queue length, c=retry-after *)

  val kind_code : kind -> int
  val kind_of_code : int -> kind
  val kind_name : kind -> string

  (** Install-span phase codes carried in [a] of span events. *)

  val phase_extract : int
  val phase_merge : int
  val phase_journal : int
  val phase_table_write : int
  val phase_oracle : int
  val phase_load : int
  val phase_name : int -> string

  (** {2 The context word}

      Merged traces from sharded, multi-engine runs need every event to
      say {e which shard} and {e which dispatch engine} it belongs to.
      Rather than widening the five-word ring record, the context packs
      into the unused upper bits of the kind word: shard id (bits 0-8 of
      the context, stored +1 so 0 means unknown), dispatch engine (bits
      9-10) and an SLO alert id (bits 11+, stored +1) for alert-driven
      breaker trips.  A zero word renders nothing, so uncontextualized
      emitters print exactly as before. *)

  val dispatch_byte : int
  val dispatch_threaded : int
  val dispatch_ctx_name : int -> string

  val make_ctx : ?shard:int -> ?dispatch:int -> ?alert:int -> unit -> int
  (** Pack a context word; omitted components decode as absent. *)

  val ctx_shard : int -> int
  (** Shard id carried by a context word, [-1] when absent. *)

  val ctx_dispatch : int -> int
  (** [0] unknown, {!dispatch_byte} or {!dispatch_threaded}. *)

  val ctx_alert : int -> int
  (** Alert id carried by a context word, [-1] when absent. *)

  val pp_ctx : Format.formatter -> int -> unit

  type t = {
    seq : int;
        (** global stamp: unique for {!emit}ted events; a {!note} carries
            the stamp current when it was written *)
    ord : int;  (** the ring's publish ordinal: per-domain order *)
    domain : int;
    kind : kind;
    a : int;
    b : int;
    c : int;
    x : int;  (** context word; 0 = no context *)
  }

  val pp : Format.formatter -> t -> unit
end

val set_ring_capacity : int -> unit
(** Capacity (events) for rings minted after the call; min 8.  Live
    rings keep their old capacity until their pool slot re-mints.
    Default 1024. *)

val emit : ?x:int -> Event.kind -> a:int -> b:int -> c:int -> unit
(** Record one event in the calling domain's ring.  No-op when disabled;
    when enabled: one fetch-and-add on the global sequence, six plain
    array stores, one atomic publish.  Steady-state, no allocation:
    rings live in a fixed pool keyed by domain id, so freshly spawned
    domains adopt a dead predecessor's ring instead of minting one.
    [x] is an {!Event.make_ctx} context word (default none); if it
    carries no dispatch bits the process-wide {!set_dispatch_hint} is
    folded in. *)

val note : x:int -> Event.kind -> a:int -> b:int -> c:int -> unit
(** Record one breadcrumb in the calling domain's ring, whether or not
    telemetry is enabled: one plain read of the global sequence (no
    fetch-and-add), six plain stores, one publish, no allocation.  [x]
    is an {!Event.make_ctx} context word, stored as given (no dispatch
    hint is folded in). *)

val set_dispatch_hint : int -> unit
(** Declare the dispatch engine the current run uses
    ({!Event.dispatch_byte} / {!Event.dispatch_threaded}, [0] to clear).
    Folded into every emitted context word lacking dispatch bits, so a
    harness sets it once instead of threading it through every
    emitter. *)

val fast_check : unit -> unit
(** Scalar tally for the production fast path (no event record).
    Counts only in detail mode; the default mode leaves the fast path
    untaxed. *)

val fast_retry : unit -> unit

(** {2 The check-transaction hot path}

    One {!check_begin}/{!check_end} bracket per check.  In the default
    mode an unsampled check pays two or three loads of a read-mostly
    cache line and a couple of branches — nothing per-domain, nothing
    shared-mutable; a check that claims an armed {!request_sample}
    trigger traces itself fully (outcome event, entry/exit clock,
    histogram points).  Detail mode replaces the trigger with a uniform
    per-domain 1-in-64 wheel and adds exact outcome tallies. *)

val check_begin : unit -> int
(** Returns [0] when telemetry is disabled, otherwise an opaque ctx to
    hand back to {!check_end}, deciding whether this check is sampled
    and, if so, stamping the entry clock. *)

val ctx_sampled : int -> bool
(** Whether a {!check_begin} ctx is a sampled check — the caller should
    gate per-retry trace events on this. *)

val ctx_active : int -> bool
(** Whether {!check_end} has any work to do for this ctx (sampled or
    detail mode) — callers may skip outcome encoding otherwise. *)

val check_end :
  ?x:int -> int -> outcome:int -> slot:int -> target:int -> retries:int -> unit
(** Close the bracket: in detail mode tally the outcome ([0] = pass,
    [1] = violation, else retries-exhausted); when sampled, emit the
    outcome event — carrying the [x] context word, see {!emit} — and
    record check latency and retries-per-check. *)

val drain : unit -> Event.t list
(** Merge all rings into one sequence-ordered trace.  Concurrent writers
    are safe: any slot a writer may currently be overwriting is dropped,
    so each ring contributes at most capacity − 1 most-recent events and
    no torn events. *)

val tail : int -> Event.t list
(** The last [n] events of every ring, ordered by (domain, ordinal),
    torn slots dropped as in {!drain}.  Reads only that tail. *)

val events_emitted : unit -> int
val events_dropped : unit -> int

val fast_totals : unit -> int * int
(** [(fast_checks, fast_retries)] summed over all domains. *)

type check_counts = {
  cc_checks : int;
  cc_passes : int;
  cc_violations : int;
  cc_exhausted : int;
  cc_retries : int;
}

val check_totals : unit -> check_counts
(** Exact check-outcome totals summed over all domains: those
    {!check_end} counted in detail mode plus those harnesses {!bump}ed. *)

type tally
(** A per-domain slab stride: resolve once per slice with {!tally}, then
    {!bump} is plain array stores per check. *)

val tally : unit -> tally

val bump : tally -> outcome:int -> retries:int -> unit
(** Count one check ([outcome]: 0 = pass, 1 = violation, else
    retries-exhausted) and its retries — unless detail mode is on, where
    {!check_end} already counts it. *)

val rewind : unit -> unit
(** Rewind every ring and zero the tally slab; unlike {!reset} the
    sequence counter and the metrics keep their values. *)

(** {1 Metrics} *)

module Metrics : sig
  type counter
  type histogram

  val counter : string -> counter
  (** Find or register a named monotonic counter. *)

  val histogram : string -> histogram
  (** Find or register a named log2-bucketed histogram: bucket 0 holds
      values < 2, bucket [i >= 1] holds values in [2{^i}, 2{^i+1}). *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  val counter_value : counter -> int

  val observe : histogram -> int -> unit
  (** Record one (non-negative) value; gated on {!enabled}. *)

  val bucket_of : int -> int
  val bucket_hi : int -> int
  val bucket_counts : histogram -> int array

  type summary = {
    s_count : int;
    s_sum : int;
    s_mean : float;
    s_p50 : int;  (** bucket upper bounds, i.e. conservative estimates *)
    s_p90 : int;
    s_p99 : int;
  }

  val summary : histogram -> summary
  val reset : unit -> unit
end

(** {1 Exporters} *)

module Export : sig
  val prometheus : unit -> string
  (** Prometheus text exposition (counters + cumulative-bucket
      histograms).  Metrics that never fired are omitted. *)

  val json : unit -> string
  (** Self-contained JSON document: counters, histogram summaries,
      fast-path tallies, event emitted/dropped totals, serialized with
      {!Mcfi_util.Json}. *)

  val pp_stats : Format.formatter -> unit -> unit
  (** Human-readable stats report. *)
end

(** The flight recorder: an always-on black box, gated independently of
    the sampled telemetry trace, plus forensic-bundle snapshots taken
    when something goes wrong.

    It keeps no event storage of its own.  Breadcrumbs ({!note}) go into
    [Telemetry]'s per-domain rings with a plain read of the sequence
    word, and harnesses tally checks into [Telemetry]'s slab
    ([Telemetry.bump]) under {!recording}; both are cheap enough to stay
    on in production.  A {e trigger} is a capture policy over those
    rings: it snapshots the last {!bundle_events} events of every
    domain, the check tallies and caller-supplied context into a
    {!bundle} serialized as self-contained JSON, replayable by
    [mcfi forensics]. *)

(** {1 Trigger taxonomy} *)

type trigger =
  | Failed_check  (** a check transaction returned Violation *)
  | Tx_escalation  (** retries exhausted / escalation ladder taken *)
  | Supervisor_transition  (** a tenant entered Degraded / Quarantined *)
  | Oracle_anomaly  (** the torture / fleet epoch-history oracle flagged *)
  | Watchdog  (** the update watchdog fired *)
  | Injected_kill  (** a fault plan killed an updater mid-install *)
  | Redteam_chain  (** the attack synthesizer found an in-policy chain *)

val trigger_code : trigger -> int
val trigger_name : trigger -> string
val trigger_of_name : string -> trigger option
val all_triggers : trigger list

(** {1 The gate} *)

val recording : unit -> bool
(** The recorder's own gate — independent of [Telemetry.enabled], so the
    black box never changes dispatch behavior.  Defaults to on. *)

val set_recording : bool -> unit

(** {1 Breadcrumbs} *)

val note :
  x:int -> Telemetry.Event.kind -> a:int -> b:int -> c:int -> unit
(** When recording, {!Telemetry.note} one breadcrumb ([x] a
    [Telemetry.Event.make_ctx] context word): no fetch-and-add, no
    allocation. *)

val event :
  x:int -> Telemetry.Event.kind -> a:int -> b:int -> c:int -> unit
(** One ring write for an occurrence both the trace and the recorder
    want: {!Telemetry.emit} when telemetry is enabled, else {!note}. *)

(** {1 Triggers and bundles} *)

type bundle = {
  bu_id : int;
  bu_trigger : trigger;
  bu_reason : string;
  bu_at_ns : int;
  bu_extra : (string * Mcfi_util.Json.t) list;
  bu_events : Telemetry.Event.t list;
      (** (domain, ordinal)-ordered; serialized with the ordinal as
          [seq] *)
  bu_tallies : Telemetry.check_counts;
}

val bundle_events : int
(** Events per domain a bundle captures (127). *)

val set_cap : trigger -> int -> unit
(** Cap bundles per trigger kind ([-1] = unlimited).  Defaults: the
    noisy check-path triggers keep the first few (failed-check 4,
    escalation 8, watchdog 4, transition 32); oracle anomalies,
    injected kills and red-team chains are unlimited — the harness
    accounting demands exactly one bundle each. *)

val cap : trigger -> int

val trigger_armed : trigger -> bool
(** Whether a {!record_trigger} for this kind would currently produce a
    bundle — callers use it to skip building reason/context strings on
    capped paths. *)

val record_trigger :
  trigger ->
  reason:string ->
  ?extra:(string * Mcfi_util.Json.t) list ->
  unit ->
  bundle option
(** Snapshot a forensic bundle.  [None] when recording is off or the
    trigger kind is over its cap (counted in {!dropped}).  When a
    directory is set ({!set_dir}) the bundle is also written to
    [forensics-<id>-<trigger>.json] there. *)

val set_ecn_namer : (int -> string option) -> unit
(** Install the equivalence-class namer.  The runtime installs
    [Cfggen.class_name] over the live merge state of the process whose
    incremental load last succeeded; it computes a name on demand, so it
    always describes the installed classes (a load that rolls back
    leaves nothing behind in it).  The recorder cannot depend on the CFG
    layer itself. *)

val ecn_name : int -> string
(** The installed namer's answer, or the synthetic ["ecn-<n>"]. *)

val bundle_json : bundle -> Mcfi_util.Json.t
val schema : string
val schema_version : int

val bundles : unit -> bundle list
(** Bundles kept in memory (bounded; oldest first). *)

val counts : unit -> (trigger * int) list
(** Trigger requests per kind (capped requests included). *)

val trigger_requests : trigger -> int
val emitted : unit -> int
val dropped : unit -> int

val set_dir : string option -> unit
(** Where bundles are written as they are emitted ([None] keeps them in
    memory only).  The directory is created, parents included, if it
    does not exist. *)

val dir : unit -> string option
val files_written : unit -> string list

val reset : unit -> unit
(** Rewind the rings and zero the tallies ({!Telemetry.rewind}), zero
    the recorder's counters, drop kept bundles and the written-files
    log.  Caps and the output directory persist; see
    {!reset_caps}. *)

val reset_caps : unit -> unit

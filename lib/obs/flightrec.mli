(** The flight recorder: an always-on per-domain black box, separate
    from the sampled telemetry trace and gated independently of it, plus
    forensic-bundle snapshots taken when something goes wrong.

    Breadcrumbs ({!note}) and per-check tallies ({!bump}) are cheap
    enough to stay on in production (no global sequence word, plain
    stores into per-domain strides); a {e trigger} snapshots the event
    tails, tallies and caller-supplied context into a {!bundle}
    serialized as self-contained JSON, replayable by
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
val trigger_of_code : int -> trigger
val trigger_name : trigger -> string
val trigger_of_name : string -> trigger option
val all_triggers : trigger list

(** {1 The gate} *)

val recording : unit -> bool
(** The recorder's own gate — independent of [Telemetry.enabled], so the
    black box never changes dispatch behavior.  Defaults to on. *)

val set_recording : bool -> unit

val set_ring_capacity : int -> unit
(** Events retained per domain ring (min 8, default 128).  Applies to
    rings minted after the call. *)

(** {1 Breadcrumbs and tallies} *)

val note : kind:int -> ctx:int -> a:int -> b:int -> c:int -> unit
(** Record one black-box event in the calling domain's ring: a
    [Telemetry.Event] kind code plus a [Telemetry.Event.make_ctx]
    context word.  One gate load, one cursor read, five plain stores,
    one publish — no global sequence, no allocation. *)

type tally
(** A per-domain tally handle: resolve once per slice with {!tally},
    then {!bump} is plain array stores per check. *)

val tally : unit -> tally
val bump : tally -> outcome:int -> retries:int -> unit
(** [outcome]: 0 = pass, 1 = violation, else retries-exhausted. *)

val tally_totals : unit -> int * int * int * int * int
(** [(checks, passes, violations, exhausted, retries)] over all
    domains. *)

(** {1 Events} *)

type event = {
  ev_domain : int;
  ev_seq : int;  (** per-domain ordinal (the ring's publish index) *)
  ev_kind : int;  (** [Telemetry.Event] kind code *)
  ev_ctx : int;  (** [Telemetry.Event] context word *)
  ev_a : int;
  ev_b : int;
  ev_c : int;
}

val drain : unit -> event list
(** All rings' retained events, (domain, seq)-ordered.  Safe under
    concurrent writers: possibly-torn slots are discarded. *)

val notes_emitted : unit -> int

(** {1 Triggers and bundles} *)

type bundle = {
  bu_id : int;
  bu_trigger : trigger;
  bu_reason : string;
  bu_at_ns : int;
  bu_extra : (string * Json.t) list;
  bu_events : event list;
  bu_tallies : (int * int * int * int * int) list;
}

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
  ?extra:(string * Json.t) list ->
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

val bundle_json : bundle -> Json.t
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
(** Rewind rings, zero tallies and counters, drop kept bundles and the
    written-files log.  Caps and the output directory persist; see
    {!reset_caps}. *)

val reset_caps : unit -> unit

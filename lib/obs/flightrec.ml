(* The flight recorder: an always-on black box for the MCFI runtime.

   The sampled telemetry trace answers "what is the system doing?" when
   an operator has turned it on; the flight recorder answers "what just
   happened?" after something went wrong, and it must already have been
   running.  It owns no event storage: breadcrumbs ([note]) go into
   Telemetry's per-domain rings and per-check tallies into Telemetry's
   slab.  What is specific to it:

   - Its gate is its own atomic, independent of [Telemetry.enabled].
     Telemetry changes behavior elsewhere (the threaded dispatcher
     falls back to the byte engine while telemetry is on, so it can
     profile), and the black box must not.  Recording defaults to ON.

   - A *trigger* (failed check, Tx escalation, supervisor transition,
     oracle anomaly, watchdog fire, injected kill, red-team chain) is a
     capture policy over the shared rings: it snapshots the last
     [bundle_events] events of every ring, the check tallies, the
     caller's structured context (violating site, shard state, tenant
     health) and the recorder's own accounting into a forensic bundle.
     Bundles serialize to self-contained JSON replayable by
     `mcfi forensics`.  Noisy triggers are capped per kind — the first
     few bundles carry the story, the rest are counted as dropped —
     while oracle anomalies and injected kills are never capped: the
     harnesses' accounting demands exactly one bundle per event. *)

module Json = Mcfi_util.Json

(* ---- trigger taxonomy ---- *)

type trigger =
  | Failed_check
  | Tx_escalation
  | Supervisor_transition
  | Oracle_anomaly
  | Watchdog
  | Injected_kill
  | Redteam_chain

let n_triggers = 7

let trigger_code = function
  | Failed_check -> 0
  | Tx_escalation -> 1
  | Supervisor_transition -> 2
  | Oracle_anomaly -> 3
  | Watchdog -> 4
  | Injected_kill -> 5
  | Redteam_chain -> 6

let trigger_name = function
  | Failed_check -> "failed-check"
  | Tx_escalation -> "tx-escalation"
  | Supervisor_transition -> "supervisor-transition"
  | Oracle_anomaly -> "oracle-anomaly"
  | Watchdog -> "watchdog-fire"
  | Injected_kill -> "injected-kill"
  | Redteam_chain -> "redteam-chain"

let all_triggers =
  [
    Failed_check;
    Tx_escalation;
    Supervisor_transition;
    Oracle_anomaly;
    Watchdog;
    Injected_kill;
    Redteam_chain;
  ]

let trigger_of_name s =
  List.find_opt (fun tr -> trigger_name tr = s) all_triggers

(* ---- the gate (padded like the telemetry gates) ---- *)

let armed = Atomic.make true
let _pad_gate = Array.make 15 0

let recording () = Atomic.get armed
let set_recording b = Atomic.set armed b

(* ---- breadcrumbs ---- *)

let note ~x kind ~a ~b ~c =
  if Atomic.get armed then Telemetry.note ~x kind ~a ~b ~c

(* An occurrence both the trace and the recorder want (a watchdog fire,
   a tenant transition) is written once: traced when telemetry is on —
   its stamp orders it in the merged trace, and bundles read the same
   ring — else noted. *)
let event ~x kind ~a ~b ~c =
  if Telemetry.enabled () then Telemetry.emit ~x kind ~a ~b ~c
  else note ~x kind ~a ~b ~c

(* ---- triggers and bundles ---- *)

type bundle = {
  bu_id : int;
  bu_trigger : trigger;
  bu_reason : string;
  bu_at_ns : int;
  bu_extra : (string * Json.t) list;
  bu_events : Telemetry.Event.t list;
  bu_tallies : Telemetry.check_counts;
}

(* Events per domain a bundle captures: enough tail to tell the story,
   and bounded, so a snapshot costs the same whatever the ring
   capacity. *)
let bundle_events = 127

(* Per-trigger caps: -1 = unlimited.  Oracle anomalies and injected
   kills must map 1:1 to bundles (the harness accounting checks it);
   the check-path triggers are noisy by design and keep only the first
   few stories. *)
let default_caps = [| 4; 8; 32; -1; 4; -1; -1 |]
let caps = Array.copy default_caps

let set_cap tr n = caps.(trigger_code tr) <- n
let cap tr = caps.(trigger_code tr)

let requests = Array.init n_triggers (fun _ -> Atomic.make 0)
let bundle_ids = Atomic.make 0
let total_dropped = Atomic.make 0

let lock = Mutex.create ()
let kept : bundle list ref = ref [] (* newest first *)
let kept_limit = 64
let files : string list ref = ref [] (* newest first *)
let out_dir : string option ref = ref None

(* mkdir -p: bundles go missing silently otherwise (write_bundle must
   swallow filesystem errors — the recorder never crashes its host) *)
let rec ensure_dir d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then ensure_dir parent;
    match Sys.mkdir d 0o755 with
    | () -> ()
    | exception Sys_error _ -> ()
  end

let set_dir d =
  (match d with Some d -> ensure_dir d | None -> ());
  Mutex.lock lock;
  out_dir := d;
  Mutex.unlock lock

let dir () = !out_dir

let trigger_armed tr =
  Atomic.get armed
  &&
  let c = caps.(trigger_code tr) in
  c < 0 || Atomic.get requests.(trigger_code tr) < c

let trigger_requests tr = Atomic.get requests.(trigger_code tr)

let emitted () = Atomic.get bundle_ids
let dropped () = Atomic.get total_dropped

let counts () =
  List.map (fun tr -> (tr, Atomic.get requests.(trigger_code tr))) all_triggers

let bundles () = List.rev !kept

(* ---- ECN naming hook ----

   The recorder cannot depend on the CFG layer, so the layer that owns
   the equivalence-class names (the runtime, via Cfggen) installs a
   namer here.  Bundles then carry "which class" in human terms; with no
   namer installed (or for ECNs it does not know) the synthetic
   "ecn-<n>" keeps bundles self-contained. *)
let ecn_namer : (int -> string option) ref = ref (fun _ -> None)
let set_ecn_namer f = ecn_namer := f

let ecn_name e =
  match !ecn_namer e with
  | Some n -> n
  | None | (exception _) -> Printf.sprintf "ecn-%d" e

let event_json (e : Telemetry.Event.t) =
  let base =
    [
      ("domain", Json.num e.domain);
      ("seq", Json.num e.ord);
      ("kind", Json.Str (Telemetry.Event.kind_name e.kind));
      ("a", Json.num e.a);
      ("b", Json.num e.b);
      ("c", Json.num e.c);
    ]
  in
  let ctx =
    let s = Telemetry.Event.ctx_shard e.x in
    let d = Telemetry.Event.ctx_dispatch e.x in
    let al = Telemetry.Event.ctx_alert e.x in
    (if s >= 0 then [ ("shard", Json.num s) ] else [])
    @ (if d <> 0 then
         [ ("dispatch", Json.Str (Telemetry.Event.dispatch_ctx_name d)) ]
       else [])
    @ if al >= 0 then [ ("alert", Json.num al) ] else []
  in
  Json.Obj (base @ ctx)

let schema = "mcfi-forensics"
let schema_version = 1

let bundle_json b =
  let t = b.bu_tallies in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("schema_version", Json.num schema_version);
      ("id", Json.num b.bu_id);
      ("trigger", Json.Str (trigger_name b.bu_trigger));
      ("reason", Json.Str b.bu_reason);
      ("at_ns", Json.num b.bu_at_ns);
      ("extra", Json.Obj b.bu_extra);
      ("events", Json.Arr (List.map event_json b.bu_events));
      ( "tallies",
        Json.Obj
          [
            ("checks", Json.num t.cc_checks);
            ("passes", Json.num t.cc_passes);
            ("violations", Json.num t.cc_violations);
            ("exhausted", Json.num t.cc_exhausted);
            ("retries", Json.num t.cc_retries);
          ] );
      ( "counters",
        Json.Obj
          ([
             ("bundles", Json.num (emitted ()));
             ("dropped", Json.num (dropped ()));
             ("notes", Json.num (Telemetry.events_emitted ()));
           ]
          @ List.map
              (fun tr ->
                ("trigger_" ^ trigger_name tr, Json.num (trigger_requests tr)))
              all_triggers) );
    ]

let write_bundle dir b =
  let path =
    Filename.concat dir
      (Printf.sprintf "forensics-%04d-%s.json" b.bu_id
         (trigger_name b.bu_trigger))
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (bundle_json b) ^ "\n"));
  path

let files_written () = List.rev !files

let record_trigger tr ~reason ?(extra = []) () =
  if not (Atomic.get armed) then None
  else begin
    let code = trigger_code tr in
    let n = Atomic.fetch_and_add requests.(code) 1 in
    let c = caps.(code) in
    if c >= 0 && n >= c then begin
      Atomic.incr total_dropped;
      None
    end
    else begin
      let b =
        {
          bu_id = Atomic.fetch_and_add bundle_ids 1;
          bu_trigger = tr;
          bu_reason = reason;
          bu_at_ns = Telemetry.now_ns ();
          bu_extra = extra;
          bu_events = Telemetry.tail bundle_events;
          bu_tallies = Telemetry.check_totals ();
        }
      in
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          if List.length !kept < kept_limit then kept := b :: !kept;
          match !out_dir with
          | Some d -> (
            match write_bundle d b with
            | path -> files := path :: !files
            | exception Sys_error _ -> ())
          | None -> ());
      Some b
    end
  end

let reset () =
  Telemetry.rewind ();
  Array.iter (fun r -> Atomic.set r 0) requests;
  Atomic.set bundle_ids 0;
  Atomic.set total_dropped 0;
  Mutex.lock lock;
  kept := [];
  files := [];
  Mutex.unlock lock

let reset_caps () = Array.blit default_caps 0 caps 0 n_triggers

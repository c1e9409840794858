(* The observability layer: flight-recorder concurrency (no torn
   events, no lost trigger), the SLO engine's rising-edge alert
   discipline, time-series ring wraparound, forensic-bundle JSON
   round-trips through the real parser/validator (including a bundle
   written by an earlier build), exact bundle accounting and retry
   tallies under torture kills, and an SLO-driven breaker trip in a
   fleet chaos scenario. *)

module FR = Obs.Flightrec
module E = Telemetry.Event
module Json = Mcfi_util.Json

(* Writers hammer per-domain rings with checksummed events while the
   main domain snapshots forensic bundles (each snapshot drains the
   rings mid-write).  Every event that survives — in the final drain or
   inside any bundle — must be internally consistent, per-domain
   sequences must be strictly increasing, and every trigger request
   must have produced exactly one bundle. *)
let test_flightrec_concurrency () =
  FR.reset ();
  Obs.Slo.reset ();
  let writers = 4 and notes = 6_000 and triggers = 40 in
  let doms =
    List.init writers (fun d ->
        Domain.spawn (fun () ->
            let t = Telemetry.tally () in
            for i = 0 to notes - 1 do
              let a = (d * 1_000_000) + i and b = i * 7 in
              FR.note ~x:(d + 1) E.Check_pass ~a ~b ~c:((a * 31) + b);
              Telemetry.bump t ~outcome:(i mod 3) ~retries:(i land 1)
            done))
  in
  let made = ref 0 in
  for k = 0 to triggers - 1 do
    (match
       FR.record_trigger FR.Oracle_anomaly
         ~reason:(Printf.sprintf "synthetic anomaly %d" k)
         ~extra:[ ("k", Json.num k) ]
         ()
     with
    | Some _ -> incr made
    | None -> Alcotest.failf "trigger %d lost (recording on, uncapped)" k);
    (* a tiny pause so snapshots interleave with live writers *)
    if k land 7 = 0 then Domain.cpu_relax ()
  done;
  List.iter Domain.join doms;
  Alcotest.(check int) "no lost trigger" triggers !made;
  Alcotest.(check int) "requests counted" triggers
    (FR.trigger_requests FR.Oracle_anomaly);
  Alcotest.(check int) "all bundles emitted" triggers (FR.emitted ());
  Alcotest.(check int) "nothing dropped" 0 (FR.dropped ());
  let consistent where (evs : E.t list) =
    List.iter
      (fun (e : E.t) ->
        if e.kind <> E.Check_pass then
          Alcotest.failf "%s: torn kind %s" where (E.kind_name e.kind);
        if e.c <> (e.a * 31) + e.b then
          Alcotest.failf "%s: torn event d%d #%d (a=%d b=%d c=%d)" where
            e.domain e.ord e.a e.b e.c)
      evs;
    (* per-domain publish ordinals strictly increase *)
    let last = Hashtbl.create 8 in
    List.iter
      (fun (e : E.t) ->
        (match Hashtbl.find_opt last e.domain with
        | Some s when s >= e.ord ->
          Alcotest.failf "%s: domain %d seq %d after %d" where e.domain e.ord
            s
        | _ -> ());
        Hashtbl.replace last e.domain e.ord)
      evs
  in
  consistent "final drain" (Telemetry.drain ());
  List.iter
    (fun (b : FR.bundle) -> consistent "bundle snapshot" b.FR.bu_events)
    (FR.bundles ());
  (* the per-domain tallies survive concurrent bumping exactly *)
  let ct = Telemetry.check_totals () in
  let per_outcome = writers * notes / 3 in
  Alcotest.(check int) "checks" (writers * notes) ct.cc_checks;
  Alcotest.(check int) "passes" per_outcome ct.cc_passes;
  Alcotest.(check int) "violations" per_outcome ct.cc_violations;
  Alcotest.(check int) "exhausted" per_outcome ct.cc_exhausted;
  Alcotest.(check int) "retries" (writers * notes / 2) ct.cc_retries;
  FR.reset ()

let test_slo_rising_edge () =
  Obs.Slo.reset ();
  let obj =
    Obs.Slo.objective ~target:0.9 ~fast_window:3 ~slow_window:6 ~burn:2.0
      "unit-objective"
  in
  let tk = Obs.Slo.tracker obj ~entity:"unit" in
  let tick = ref 0 in
  let step ~good ~total =
    incr tick;
    Obs.Slo.observe tk ~good ~total;
    Obs.Slo.evaluate tk ~tick:!tick
  in
  for _ = 1 to 10 do
    match step ~good:10 ~total:10 with
    | None -> ()
    | Some _ -> Alcotest.fail "alert while healthy"
  done;
  (* 50% errors against a 10% budget: the fast window crosses on the
     2nd bad tick, the slow window on the 3rd — one rising edge *)
  let first = ref None in
  for i = 1 to 6 do
    match step ~good:5 ~total:10 with
    | Some al ->
      if !first <> None then Alcotest.fail "re-alerted inside one episode";
      Alcotest.(check int) "alert on the 3rd bad tick" 3 i;
      if al.Obs.Slo.al_fast_burn < 2.0 || al.Obs.Slo.al_slow_burn < 2.0 then
        Alcotest.fail "alert below threshold in a window";
      first := Some al
    | None -> ()
  done;
  let first =
    match !first with
    | Some al -> al
    | None -> Alcotest.fail "degradation raised no alert"
  in
  Alcotest.(check bool) "alerting latched" true (Obs.Slo.alerting tk);
  (* recover, then a second episode raises a second, distinct alert *)
  for _ = 1 to 8 do
    match step ~good:10 ~total:10 with
    | None -> ()
    | Some _ -> Alcotest.fail "alert during recovery"
  done;
  let second = ref None in
  for _ = 1 to 6 do
    match step ~good:5 ~total:10 with
    | Some al ->
      if !second <> None then Alcotest.fail "re-alerted inside episode 2";
      second := Some al
    | None -> ()
  done;
  (match !second with
  | Some al ->
    if al.Obs.Slo.al_id <= first.Obs.Slo.al_id then
      Alcotest.fail "second episode reused an alert id"
  | None -> Alcotest.fail "second degradation raised no alert");
  Alcotest.(check int) "global log counted both" 2 (Obs.Slo.alert_count ());
  Obs.Slo.reset ()

let test_timeseries_wrap () =
  Obs.Timeseries.reset ();
  let s = Obs.Timeseries.series ~cap:8 "unit.series" in
  for i = 0 to 19 do
    Obs.Timeseries.push s (float_of_int i)
  done;
  Alcotest.(check int) "capped length" 8 (Obs.Timeseries.length s);
  let vals = List.map snd (Obs.Timeseries.recent s 8) in
  Alcotest.(check (list (float 0.0)))
    "oldest-first tail"
    [ 12.; 13.; 14.; 15.; 16.; 17.; 18.; 19. ]
    vals;
  (match Obs.Timeseries.last s with
  | Some (_, v) -> Alcotest.(check (float 0.0)) "last" 19.0 v
  | None -> Alcotest.fail "last missing");
  Alcotest.(check (float 0.0))
    "sum of recent 4" 70.0
    (Obs.Timeseries.sum_recent s 4);
  (* find-or-create returns the same ring *)
  let s' = Obs.Timeseries.series "unit.series" in
  Alcotest.(check int) "same ring" 8 (Obs.Timeseries.length s');
  Obs.Timeseries.reset ()

let test_bundle_roundtrip () =
  FR.reset ();
  for i = 0 to 9 do
    FR.note ~x:0 E.Check_pass ~a:i ~b:(i * 2) ~c:((i * 31) + (i * 2))
  done;
  let bundle =
    match
      FR.record_trigger FR.Oracle_anomaly ~reason:"round-trip probe"
        ~extra:
          [ ("shard", Json.num 3); ("detail", Json.Str "probe") ]
        ()
    with
    | Some b -> b
    | None -> Alcotest.fail "trigger produced no bundle"
  in
  let text = Json.to_string (FR.bundle_json bundle) in
  let parsed =
    match Json.parse text with
    | Ok j -> j
    | Error m -> Alcotest.failf "bundle JSON does not re-parse: %s" m
  in
  (match Mcfi.Forensics.validate parsed with
  | Ok () -> ()
  | Error m -> Alcotest.failf "bundle failed validation: %s" m);
  (* tampering with the schema identity must be caught *)
  let rekey k v = function
    | Json.Obj kvs ->
      Json.Obj
        (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) kvs)
    | j -> j
  in
  (match
     Mcfi.Forensics.validate (rekey "schema" (Json.Str "other") parsed)
   with
  | Ok () -> Alcotest.fail "validated a foreign schema"
  | Error _ -> ());
  (match
     Mcfi.Forensics.validate
       (rekey "schema_version"
          (Json.Num (float_of_int (FR.schema_version + 1)))
          parsed)
   with
  | Ok () -> Alcotest.fail "validated a bumped schema version"
  | Error _ -> ());
  FR.reset ()

(* A schema-1 bundle written by an earlier build (its own ring, its own
   JSON emitter), committed unedited: it must still validate and
   replay. *)
let test_old_bundle_parses () =
  (* next to the test binary under [dune runtest], in [test/] from the
     repo root under [dune exec] *)
  let name = "bundle_v1_failed_check.json" in
  let path =
    List.find_opt Sys.file_exists
      [
        Filename.concat (Filename.dirname Sys.executable_name) name;
        Filename.concat "test" name;
      ]
    |> Option.value ~default:name
  in
  let j =
    match Mcfi.Forensics.of_file path with
    | Ok j -> j
    | Error m -> Alcotest.failf "old bundle does not parse: %s" m
  in
  (match Mcfi.Forensics.validate j with
  | Ok () -> ()
  | Error m -> Alcotest.failf "old bundle failed validation: %s" m);
  let text = Fmt.str "%a" Mcfi.Forensics.pp j in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun want ->
      if not (contains want) then
        Alcotest.failf "replay lacks %S:@.%s" want text)
    [
      "forensic bundle #0: failed-check";
      "violation at slot 3 target 0x1060";
      "check-violation";
    ]

(* The harness tallies each check's real retry count: after a torture
   run, plus checks that retry by construction, a bundle's tallies must
   account for every retry.  The probe bundle is taken after the run
   because a check's retries land in the tally when it completes — a
   watchdog bundle taken mid-check cannot see them. *)
let test_bundle_tallies_retries () =
  FR.reset ();
  let sc =
    {
      (Stress.default ~seed:5L) with
      Stress.updates = 2_000;
      kill_every = 100;
      shards = 4;
    }
  in
  let r = Stress.run sc in
  (match r.Stress.rp_anomalies with
  | [] -> ()
  | an ->
    Alcotest.failf "oracle anomalies:@.%a" (Fmt.list Stress.pp_anomaly) an);
  (* The torture's checkers retry only when scheduling lands a check on
     an install in flight, which a loaded host may never arrange.  Make
     the retries certain on a rig of our own: kill an install between
     its Tary and Bary phases, which leaves every Tary slot at the new
     version and every Bary slot at the old one until a lock holder
     redoes the journal, then run judged checks on this domain until
     one has read across the skew.  Its watchdog redoes the install. *)
  let module Prng = Mcfi_util.Prng in
  let prng = Prng.create 5L in
  let rig =
    Stress.create ~seed:5L ~pool_prng:(Prng.split prng) ~cfgs:2 ~slots:4
      ~targets:16 ~shards:1 ~log:8 ~across:false
  in
  let sink = Stress.sink () in
  (match
     Faults.with_plan
       (Faults.Plan.At { point = Faults.Plan.Between_tary_and_bary; hit = 1 })
       (fun () ->
         Stress.install rig sink ~kill:false ~shard:0 ~label:"parked" prng 1)
   with
  | Stress.Killed -> ()
  | _ -> Alcotest.fail "the install was not killed between its phases");
  let fr = Telemetry.tally () in
  let watchdog =
    {
      Idtables.Tx.wd_deadline = 64;
      wd_on_expire = Idtables.Tx.Wait_for_updater;
    }
  in
  let jitter = Idtables.Tx.domain_jitter () in
  (* [Stress.check] zeroes the counter, so it ends holding the last
     check's retries *)
  let retried = ref 0 and checks = ref 0 in
  while !retried = 0 && !checks < 256 do
    incr checks;
    ignore
      (Stress.check rig sink fr ~shard:0 ~watchdog ~jitter ~retries:retried
         ~on_retry:(fun () -> incr retried)
         ~label:"across the skew" prng)
  done;
  let audit, _, _ = Stress.finish rig in
  (match audit @ Stress.anomalies sink with
  | [] -> ()
  | an ->
    Alcotest.failf "rig anomalies:@.%a" (Fmt.list Stress.pp_anomaly) an);
  let retries = (Faults.Stats.snapshot ()).Faults.Stats.retries in
  if !retried = 0 then
    Alcotest.failf "%d checks across a torn install never retried" !checks;
  if retries = 0 then Alcotest.fail "scenario never retried";
  match FR.record_trigger FR.Oracle_anomaly ~reason:"retry tally probe" () with
  | None -> Alcotest.fail "probe trigger produced no bundle"
  | Some b ->
    Alcotest.(check int) "bundle tallies every retry" retries
      b.bu_tallies.cc_retries;
    FR.reset ()

(* Every kill the torture harness injects must yield exactly one
   forensic bundle — the uncapped Injected_kill accounting the
   acceptance gate demands. *)
let test_torture_kill_accounting () =
  let sc =
    {
      (Stress.default ~seed:0x0B5E11L) with
      Stress.updates = 3_000;
      kill_every = 40;
      loader_loads = 0;
      shards = 2;
    }
  in
  let r = Stress.run sc in
  (match r.Stress.rp_anomalies with
  | [] -> ()
  | an ->
    Alcotest.failf "oracle anomalies:@.%a" (Fmt.list Stress.pp_anomaly) an);
  if r.Stress.rp_kills = 0 then Alcotest.fail "scenario injected no kills";
  Alcotest.(check int)
    "one bundle per injected kill" r.Stress.rp_kills
    (FR.trigger_requests FR.Injected_kill);
  Alcotest.(check int)
    "no anomaly bundles without anomalies" 0
    (FR.trigger_requests FR.Oracle_anomaly);
  FR.reset ()

(* A shard with two tenants under relentless mid-install kills burns
   its crash-free SLO in both windows; with [fc_slo_breaker] the alert
   must trip the shard breaker and stamp its id into the trip log. *)
let test_fleet_slo_breaker_trip () =
  let seed = 0x510B0BL in
  let fc =
    {
      (Supervisor.Fleet.smoke ~seed) with
      Supervisor.Fleet.fc_tenants = 8;
      fc_workers = 2;
      fc_ticks = 80;
      fc_shards = 4;
      fc_loaders = 0;
      fc_base_installs = 6;
      fc_chaos =
        [ Faults.Tenant.Random { seed; one_in = 12; action = Kill_install } ];
      fc_slo_breaker = true;
      fc_tick_s = 0.001;
    }
  in
  let r = Supervisor.Fleet.run fc in
  (match r.Supervisor.Fleet.fr_anomalies with
  | [] -> ()
  | an ->
    Alcotest.failf "oracle anomalies:@.%a" (Fmt.list Stress.pp_anomaly) an);
  if r.Supervisor.Fleet.fr_kills = 0 then Alcotest.fail "chaos injected no kills";
  if r.Supervisor.Fleet.fr_slo_alerts = 0 then
    Alcotest.fail "the SLO engine raised no burn-rate alert";
  (match r.Supervisor.Fleet.fr_alert_trips with
  | [] -> Alcotest.fail "no alert-driven breaker trip"
  | trips ->
    List.iter
      (fun (sh, al) ->
        if sh < 0 || sh >= fc.Supervisor.Fleet.fc_shards then
          Alcotest.failf "trip names shard %d outside the fleet" sh;
        if al < 0 then Alcotest.failf "trip carries invalid alert id %d" al)
      trips);
  Alcotest.(check bool)
    "trips counted as quarantined shards" true
    (r.Supervisor.Fleet.fr_shards_quarantined
    >= List.length r.Supervisor.Fleet.fr_alert_trips);
  (* every alert-driven quarantine snapshotted a transition bundle *)
  if FR.trigger_requests FR.Supervisor_transition = 0 then
    Alcotest.fail "no supervisor-transition bundle recorded";
  FR.reset ()

let () =
  Alcotest.run "obs"
    [
      ( "flightrec",
        [
          Alcotest.test_case "concurrent writers vs snapshots" `Quick
            test_flightrec_concurrency;
          Alcotest.test_case "bundle JSON round-trip" `Quick
            test_bundle_roundtrip;
          Alcotest.test_case "schema-1 bundle still parses" `Quick
            test_old_bundle_parses;
          Alcotest.test_case "bundle tallies carry retries" `Quick
            test_bundle_tallies_retries;
          Alcotest.test_case "torture kill accounting" `Quick
            test_torture_kill_accounting;
        ] );
      ( "slo",
        [
          Alcotest.test_case "rising-edge alerts" `Quick test_slo_rising_edge;
          Alcotest.test_case "fleet breaker trips on alert" `Quick
            test_fleet_slo_breaker_trip;
        ] );
      ( "timeseries",
        [ Alcotest.test_case "ring wraparound" `Quick test_timeseries_wrap ] );
    ]

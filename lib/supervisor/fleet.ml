module Prng = Mcfi_util.Prng
module Json = Mcfi_util.Json
module Tables = Idtables.Tables
module Tx = Idtables.Tx
module Shards = Idtables.Shards

type config = {
  fc_seed : int64;
  fc_tenants : int;
  fc_workers : int;
  fc_ticks : int;
  fc_checks_per_slice : int;
  fc_cfgs : int;
  fc_targets : int;
  fc_slots : int;
  fc_base_installs : int;
  fc_storm_every : int;
  fc_storm_size : int;
  fc_churn_every : int;
  fc_loaders : int;
  fc_chaos : Faults.Tenant.plan list;
  fc_policy : Health.policy;
  fc_tick_s : float;
  fc_shards : int;
  fc_shard_breaker : int;
  fc_slo_breaker : bool;
}

let default ~seed =
  {
    fc_seed = seed;
    fc_tenants = 64;
    fc_workers = 4;
    fc_ticks = 240;
    fc_checks_per_slice = 8;
    fc_cfgs = 6;
    fc_targets = 24;
    fc_slots = 4;
    fc_base_installs = 2;
    fc_storm_every = 20;
    fc_storm_size = 24;
    fc_churn_every = 60;
    fc_loaders = 2;
    fc_chaos =
      [
        Faults.Tenant.Random { seed; one_in = 900; action = Kill_install };
        Faults.Tenant.Random { seed; one_in = 4000; action = Wedge_reader };
        Faults.Tenant.Random { seed; one_in = 600; action = Slow_tenant };
      ];
    fc_policy = Health.default_policy;
    fc_tick_s = 0.001;
    fc_shards = 1;
    fc_shard_breaker = 0;
    fc_slo_breaker = false;
  }

let smoke ~seed =
  {
    (default ~seed) with
    fc_tenants = 16;
    fc_workers = 2;
    fc_ticks = 80;
    fc_storm_every = 10;
    fc_storm_size = 12;
    fc_churn_every = 25;
    fc_loaders = 1;
    fc_chaos =
      [
        Faults.Tenant.At { tenant = 3; action = Kill_install; hit = 4 };
        Faults.Tenant.At { tenant = 7; action = Wedge_reader; hit = 6 };
        Faults.Tenant.Random { seed; one_in = 500; action = Slow_tenant };
      ];
  }

let effective fc =
  let tenants = max 2 fc.fc_tenants in
  {
    fc with
    fc_tenants = tenants;
    fc_workers = max 1 fc.fc_workers;
    fc_loaders = min fc.fc_loaders (tenants / 2);
    fc_shards = max 1 fc.fc_shards;
  }

let pp_config ppf fc =
  Fmt.pf ppf
    "seed=%Ld tenants=%d (%d loaders) workers=%d ticks=%d base=%d \
     storm=%d/%d churn=%d shards=%d breaker=%d slo-breaker=%b \
     chaos=[%a] policy=(%a)"
    fc.fc_seed fc.fc_tenants fc.fc_loaders fc.fc_workers fc.fc_ticks
    fc.fc_base_installs fc.fc_storm_size fc.fc_storm_every fc.fc_churn_every
    fc.fc_shards fc.fc_shard_breaker fc.fc_slo_breaker
    (Fmt.list ~sep:Fmt.comma Faults.Tenant.pp_plan)
    fc.fc_chaos Health.pp_policy fc.fc_policy

type report = {
  fr_config : config;
  fr_checks : int;
  fr_passes : int;
  fr_violations : int;
  fr_exhausted : int;
  fr_retries : int;
  fr_installs : int;
  fr_served : int;
  fr_admitted : int;
  fr_shed : int;
  fr_deferred : int;
  fr_kills : int;
  fr_restarts : int;
  fr_quarantined : int;
  fr_unrecovered : int;
  fr_survivors : int;
  fr_survival_rate : float;
  fr_recoveries_ms : float list;
  fr_recovery_p50_ms : float;
  fr_recovery_p99_ms : float;
  fr_loads_ok : int;
  fr_loads_failed : int;
  fr_quiesces : int;
  fr_final_quiesce : bool;
  fr_shard_installs : int array;
  fr_shard_served : int array;
  fr_shards_quarantined : int;
  fr_slo_alerts : int;
  fr_alert_trips : (int * int) list;  (* (shard, alert id), trip order *)
  fr_anomalies : Stress.anomaly list;
  fr_elapsed_s : float;
}

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>tenants %d: %d serving at end (survival %.2f), %d quarantined@,\
     kills %d, restarts %d, unrecovered %d@,\
     recovery p50 %.1fms p99 %.1fms (%d samples)@,\
     checks %d (%d pass / %d violation / %d exhausted), retries %d@,\
     installs %d completed; admissions %d admitted / %d shed / %d deferred, \
     %d served@,\
     loads %d ok / %d failed@,\
     quiesces %d, final quiescence %b%a@,\
     anomalies %d%a@,\
     elapsed %.2fs@]"
    r.fr_config.fc_tenants r.fr_survivors r.fr_survival_rate r.fr_quarantined
    r.fr_kills r.fr_restarts r.fr_unrecovered r.fr_recovery_p50_ms
    r.fr_recovery_p99_ms
    (List.length r.fr_recoveries_ms)
    r.fr_checks r.fr_passes r.fr_violations r.fr_exhausted r.fr_retries
    r.fr_installs r.fr_admitted r.fr_shed r.fr_deferred r.fr_served
    r.fr_loads_ok r.fr_loads_failed r.fr_quiesces r.fr_final_quiesce
    (fun ppf r ->
      if Array.length r.fr_shard_installs > 1 then
        Fmt.pf ppf
          "@,shards: installs %a, served %a, %d shard(s) quarantined"
          Fmt.(array ~sep:(any "/") int)
          r.fr_shard_installs
          Fmt.(array ~sep:(any "/") int)
          r.fr_shard_served r.fr_shards_quarantined;
      if r.fr_slo_alerts > 0 || r.fr_alert_trips <> [] then
        Fmt.pf ppf "@,slo: %d burn-rate alert(s)%a" r.fr_slo_alerts
          (fun ppf -> function
            | [] -> ()
            | trips ->
              Fmt.pf ppf ", breaker trips [%a]"
                Fmt.(
                  list ~sep:comma (fun ppf (sh, al) ->
                      pf ppf "shard %d by alert #%d" sh al))
                trips)
          r.fr_alert_trips)
    r
    (List.length r.fr_anomalies)
    (fun ppf -> function
      | [] -> ()
      | l ->
        Fmt.pf ppf ":@,  @[<v>%a@]" (Fmt.list ~sep:Fmt.cut Stress.pp_anomaly) l)
    r.fr_anomalies r.fr_elapsed_s

let ok r =
  r.fr_anomalies = [] && r.fr_unrecovered = 0 && r.fr_final_quiesce

(* ------------------------------------------------------------------ *)
(* Tenants                                                             *)

(* Mutable per-tenant state.  Ownership: the [Atomic.t] fields are the
   shared surface; everything [mutable] is single-owner — either
   supervisor-only, or worker-side and touched only inside a [tn_busy]
   claim window (the claim CAS provides the happens-before edge between
   consecutive owners). *)
type tenant = {
  tn_id : int;
  tn_shard : int;  (* home fault domain: id mod shards *)
  tn_loader : bool;
  tn_prng : Prng.t;  (* worker-side: probes, kill points, jitter *)
  tn_busy : bool Atomic.t;  (* claim: one worker (or the supervisor) at a time *)
  tn_alive : bool Atomic.t;
  tn_wedged : bool Atomic.t;
  tn_slow : bool Atomic.t;
  tn_crashed : bool Atomic.t;  (* set by a worker, consumed by the supervisor *)
  tn_kill_next : bool Atomic.t;  (* chaos: die inside the next install *)
  tn_escalation : int Atomic.t;  (* Health.state_code, supervisor -> workers *)
  tn_reader : Tables.reader option Atomic.t;
  tn_proc : Mcfi_runtime.Process.t option Atomic.t;  (* loaders *)
  tn_queue : int Queue.t;  (* pending installs: CFG pool indexes *)
  tn_qlock : Mutex.t;
  tn_qlen : int Atomic.t;
  tn_progress : int Atomic.t;  (* slices completed: the loader "epoch" *)
  tn_load_n : int Atomic.t;
  tn_checks : int Atomic.t;
  tn_passes : int Atomic.t;
  tn_violations : int Atomic.t;
  tn_exhausted : int Atomic.t;
  tn_retries : int Atomic.t;
  tn_served : int Atomic.t;
  tn_loads_ok : int Atomic.t;
  tn_loads_failed : int Atomic.t;
  tn_health : Health.t;  (* supervisor-only *)
  mutable tn_last_exhausted : int;
  mutable tn_last_retries : int;
  mutable tn_crash_wall : float;
  mutable tn_was_killed : bool;  (* ever crashed (for the recovery gate) *)
  mutable tn_kills : int;
  mutable tn_restarts : int;
}

(* Per-shard fault-domain state, supervisor-owned.  The breaker trips
   when [sh_crashes] crashes have been attributed to the shard
   ([fc_shard_breaker] > 0): the shard is quarantined and sheds {e only
   its own} tenants — every other shard's tenants keep serving. *)
type shard_state = {
  sh_id : int;
  mutable sh_crashes : int;
  mutable sh_quarantined : bool;
}

type ctx = {
  cx : config;
  rig : Stress.rig;
  shs : Shards.t;
  shard_states : shard_state array;
  chaos : Faults.Tenant.armed;
  tenants : tenant array;
  stop : bool Atomic.t;
}

let enqueue tn ci =
  Mutex.lock tn.tn_qlock;
  Queue.push ci tn.tn_queue;
  Mutex.unlock tn.tn_qlock;
  Atomic.incr tn.tn_qlen

let dequeue tn =
  Mutex.lock tn.tn_qlock;
  let v = Queue.take_opt tn.tn_queue in
  Mutex.unlock tn.tn_qlock;
  if v <> None then Atomic.decr tn.tn_qlen;
  v

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)

(* One queued install, committed under this tenant's identity.  A kill
   marker arms a mid-install kill right before the transaction; whoever
   the kill fires inside marks {e itself} crashed — the journal is left
   set and the update lock released, exactly the corpse the supervisor
   must contain. *)
let serve_install ctx y tn ci =
  match
    Stress.install ctx.rig y tn.tn_prng ci ~shard:tn.tn_shard
      ~label:(Printf.sprintf "tenant %d" tn.tn_id)
      ~kill:(Atomic.exchange tn.tn_kill_next false)
  with
  | Stress.Installed -> Atomic.incr tn.tn_served
  | Stress.Killed ->
    Atomic.set tn.tn_crashed true;
    Atomic.set tn.tn_alive false
  | Stress.Exhausted -> ()

let check_slice ctx y tn =
  match Atomic.get tn.tn_reader with
  | None -> ()
  | Some rd ->
    Tables.reader_quiescent rd;
    let esc =
      Health.escalation_of (Health.state_of_code (Atomic.get tn.tn_escalation))
    in
    let watchdog = { Tx.wd_deadline = 256; wd_on_expire = esc } in
    (* [retries] counts the current check's retries for its tally *)
    let retries = ref 0 in
    let on_retry () =
      Atomic.incr tn.tn_retries;
      incr retries
    in
    (* black-box tally handle: resolved once per slice, bumped per check
       with plain stores — the flight recorder's always-on accounting *)
    let fr = Telemetry.tally () in
    let label = Printf.sprintf "tenant %d" tn.tn_id in
    for _ = 1 to ctx.cx.fc_checks_per_slice do
      let out =
        Stress.check ctx.rig y fr ~shard:tn.tn_shard ~watchdog
          ~jitter:tn.tn_prng ~retries ~on_retry ~label tn.tn_prng
      in
      Atomic.incr tn.tn_checks;
      match out with
      | Tx.Pass -> Atomic.incr tn.tn_passes
      | Tx.Violation -> Atomic.incr tn.tn_violations
      | Tx.Retries_exhausted -> Atomic.incr tn.tn_exhausted
    done

let loader_slice _ctx _y tn =
  match Atomic.get tn.tn_proc with
  | None -> ()
  | Some proc ->
    let i = Atomic.fetch_and_add tn.tn_load_n 1 in
    let name = Printf.sprintf "t%d_plug%d" tn.tn_id i in
    let src =
      Printf.sprintf "int t%d_fn_%d(int x) { return x + %d; }" tn.tn_id i i
    in
    (match
       let obj =
         Mcfi.Pipeline.instrument (Mcfi.Pipeline.compile_module ~name src)
       in
       Mcfi_runtime.Process.load proc obj
     with
    | () -> Atomic.incr tn.tn_loads_ok
    | exception
        ( Mcfi_runtime.Process.Error _ | Mcfi.Pipeline.Error _
        | Faults.Injected _ | Invalid_argument _ ) ->
      Atomic.incr tn.tn_loads_failed)

let slice ctx y tn =
  (match Faults.Tenant.crossing ctx.chaos ~tenant:tn.tn_id with
  | None -> ()
  | Some Faults.Tenant.Kill_install -> Atomic.set tn.tn_kill_next true
  | Some Faults.Tenant.Wedge_reader -> Atomic.set tn.tn_wedged true
  | Some Faults.Tenant.Slow_tenant -> Atomic.set tn.tn_slow true);
  (* a wedged tenant stays registered but stops crossing branch
     boundaries: its epoch stalls and only supervised teardown can
     unwedge quiescence *)
  if not (Atomic.get tn.tn_wedged) then begin
    if Atomic.get tn.tn_slow then Tx.backoff 6;
    if tn.tn_loader then begin
      (* a loader with a pending kill dies between dlopens: a voluntary
         crash the supervisor contains with [Process.teardown] *)
      if Atomic.get tn.tn_kill_next then begin
        Atomic.set tn.tn_kill_next false;
        Atomic.set tn.tn_crashed true;
        Atomic.set tn.tn_alive false;
        if Obs.Flightrec.recording () then
          ignore
            (Obs.Flightrec.record_trigger Obs.Flightrec.Injected_kill
               ~reason:
                 (Printf.sprintf "loader tenant %d died between dlopens"
                    tn.tn_id)
               ~extra:
                 [
                   ("tenant", Json.num tn.tn_id);
                   ("shard", Json.num tn.tn_shard);
                 ]
               ())
      end
      else loader_slice ctx y tn
    end
    else begin
      check_slice ctx y tn;
      if Atomic.get tn.tn_alive then
        match dequeue tn with
        | Some ci -> serve_install ctx y tn ci
        | None -> ()
    end;
    Atomic.incr tn.tn_progress
  end

let worker_loop ctx () =
  let y = Stress.sink () in
  while not (Atomic.get ctx.stop) do
    Array.iter
      (fun tn ->
        if
          Atomic.get tn.tn_alive
          && Atomic.compare_and_set tn.tn_busy false true
        then
          Fun.protect
            ~finally:(fun () -> Atomic.set tn.tn_busy false)
            (fun () -> if Atomic.get tn.tn_alive then slice ctx y tn))
      ctx.tenants;
    Domain.cpu_relax ()
  done;
  y

(* ------------------------------------------------------------------ *)
(* Supervisor side                                                     *)

let loader_program =
  {|
int seed_fn(int x) { return x + 1; }
int main() { return seed_fn(0); }
|}

let build_loader_proc () =
  Mcfi.Pipeline.build_process ~instrumented:true
    ~sources:[ ("main", loader_program) ]
    ()

(* Claim the tenant the way a worker would, so teardown/rebirth never
   races a slice in flight.  Callers set [tn_alive] to false first when
   they need workers to stop picking the tenant up. *)
let with_claim tn f =
  let rec grab () =
    if not (Atomic.compare_and_set tn.tn_busy false true) then begin
      Domain.cpu_relax ();
      grab ()
    end
  in
  grab ();
  Fun.protect ~finally:(fun () -> Atomic.set tn.tn_busy false) f

(* Crash-only containment: free the corpse's reader registration (a
   dead reader must never gate [try_quiesce]), tear down a loader's
   process, and redo any install transaction it died inside of. *)
let teardown_tenant ctx tn =
  Atomic.set tn.tn_alive false;
  with_claim tn (fun () ->
      (match Atomic.exchange tn.tn_reader None with
      | Some rd -> Shards.unregister_reader ctx.shs ~shard:tn.tn_shard rd
      | None -> ());
      (match Atomic.exchange tn.tn_proc None with
      | Some proc -> Mcfi_runtime.Process.teardown proc
      | None -> ());
      Atomic.set tn.tn_wedged false;
      Atomic.set tn.tn_slow false;
      Atomic.set tn.tn_kill_next false);
  (* the corpse can only have torn its own home shard: recovery is
     confined there, other shards' journals are not even looked at *)
  ignore (Shards.recover ctx.shs ~shard:tn.tn_shard)

let rebirth_tenant ctx tn =
  with_claim tn (fun () ->
      if tn.tn_loader then
        Atomic.set tn.tn_proc (Some (build_loader_proc ()))
      else
        Atomic.set tn.tn_reader
          (Some (Shards.register_reader ctx.shs ~shard:tn.tn_shard));
      Atomic.set tn.tn_alive true)

let sample_epoch tn =
  if tn.tn_loader then Atomic.get tn.tn_progress
  else
    match Atomic.get tn.tn_reader with
    | Some rd -> Tables.reader_epoch rd
    | None -> Atomic.get tn.tn_progress

let sample_signals tn =
  let exhausted = Atomic.get tn.tn_exhausted in
  let retries = Atomic.get tn.tn_retries in
  let s =
    {
      Health.s_epoch = sample_epoch tn;
      s_crashed = Atomic.exchange tn.tn_crashed false;
      s_exhausted = exhausted - tn.tn_last_exhausted;
      s_retries = retries - tn.tn_last_retries;
      s_queue = Atomic.get tn.tn_qlen;
    }
  in
  tn.tn_last_exhausted <- exhausted;
  tn.tn_last_retries <- retries;
  s

(* Drive one tenant's health machine and apply the side effects of the
   transition: teardown on death and quarantine, rebirth when the
   backoff elapses, telemetry on every edge. *)
let supervise_tenant ctx recoveries tn ~now ~signals =
  if signals.Health.s_crashed then begin
    let sh = ctx.shard_states.(tn.tn_shard) in
    sh.sh_crashes <- sh.sh_crashes + 1
  end;
  let old_st, new_st = Health.tick tn.tn_health ~now signals in
  if new_st <> old_st then begin
    Atomic.set tn.tn_escalation (Health.state_code new_st);
    let xw = Telemetry.Event.make_ctx ~shard:tn.tn_shard () in
    Obs.Flightrec.event Telemetry.Event.Tenant_state ~a:tn.tn_id
      ~b:(Health.state_code new_st) ~c:(Health.state_code old_st) ~x:xw;
    (* a tenant sliding into Degraded or Quarantined is forensic
       material: snapshot before the teardown below redoes the journal *)
    (match new_st with
    | (Health.Degraded | Health.Quarantined)
      when Obs.Flightrec.trigger_armed Obs.Flightrec.Supervisor_transition ->
      ignore
        (Obs.Flightrec.record_trigger Obs.Flightrec.Supervisor_transition
           ~reason:
             (Printf.sprintf "tenant %d (shard %d): %s -> %s" tn.tn_id
                tn.tn_shard
                (Health.state_name old_st)
                (Health.state_name new_st))
           ~extra:
             [
               ("tenant", Json.num tn.tn_id);
               ("shard", Json.num tn.tn_shard);
               ("from", Json.Str (Health.state_name old_st));
               ("to", Json.Str (Health.state_name new_st));
               ( "shard_state",
                 Tables.state_json (Shards.tables ctx.shs tn.tn_shard) );
             ]
           ())
    | _ -> ());
    (match new_st with
    | Health.Restarting ->
      tn.tn_kills <- tn.tn_kills + 1;
      tn.tn_was_killed <- true;
      tn.tn_crash_wall <- Unix.gettimeofday ();
      Telemetry.emit Telemetry.Event.Tenant_restart ~a:tn.tn_id
        ~b:(Health.restart_attempt tn.tn_health)
        ~c:(Health.last_restart_delay tn.tn_health)
        ~x:xw;
      teardown_tenant ctx tn
    | Health.Quarantined ->
      if signals.Health.s_crashed then begin
        tn.tn_kills <- tn.tn_kills + 1;
        tn.tn_was_killed <- true
      end;
      teardown_tenant ctx tn
    | Health.Starting when old_st = Health.Restarting ->
      rebirth_tenant ctx tn;
      tn.tn_restarts <- tn.tn_restarts + 1;
      recoveries :=
        ((Unix.gettimeofday () -. tn.tn_crash_wall) *. 1000.) :: !recoveries
    | _ -> ())
  end

(* Quarantine one tenant by decree and tear it down; [alert] rides in
   the transition event's context word. *)
let decree_quarantine ctx ?alert tn =
  let old_st, new_st = Health.quarantine tn.tn_health in
  if new_st <> old_st then begin
    Atomic.set tn.tn_escalation (Health.state_code new_st);
    Telemetry.emit Telemetry.Event.Tenant_state ~a:tn.tn_id
      ~b:(Health.state_code new_st) ~c:(Health.state_code old_st)
      ~x:(Telemetry.Event.make_ctx ~shard:tn.tn_shard ?alert ())
  end;
  teardown_tenant ctx tn

(* Quarantine a whole shard by decree: it is declared a lost fault
   domain — every tenant homed there is quarantined and torn down, the
   shard's journal is redone one last time, and admission stops routing
   installs to it.  Tenants on other shards are untouched — the blast
   radius of a rotten shard is exactly its own tenant population.
   [alert] is the SLO burn-rate alert id when the trip is alert-driven;
   it rides in every transition event's context word and in the
   forensic bundle, so the trip is explainable after the fact. *)
let quarantine_shard ctx sh ?alert ~reason () =
  sh.sh_quarantined <- true;
  (* snapshot the forensic bundle before teardown redoes the journal:
     the shard state it carries is the one the breaker saw *)
  if
    Obs.Flightrec.recording ()
    && Obs.Flightrec.trigger_armed Obs.Flightrec.Supervisor_transition
  then
    ignore
      (Obs.Flightrec.record_trigger Obs.Flightrec.Supervisor_transition
         ~reason
         ~extra:
           ([
              ("shard", Json.num sh.sh_id);
              ("crashes", Json.num sh.sh_crashes);
              ( "shard_state",
                Tables.state_json (Shards.tables ctx.shs sh.sh_id) );
            ]
           @
           match alert with
           | Some id -> [ ("alert", Json.num id) ]
           | None -> [])
         ());
  Array.iter
    (fun tn -> if tn.tn_shard = sh.sh_id then decree_quarantine ctx ?alert tn)
    ctx.tenants;
  ignore (Shards.recover ctx.shs ~shard:sh.sh_id)

(* The crash-count circuit breaker.  When [fc_shard_breaker] > 0 and a
   shard has accumulated that many tenant crashes, the shard is
   quarantined wholesale.  (The SLO engine's burn-rate alerts drive
   {!quarantine_shard} separately, from the supervisor tick.) *)
let trip_shard_breakers ctx =
  if ctx.cx.fc_shard_breaker > 0 then
    Array.iter
      (fun sh ->
        if (not sh.sh_quarantined) && sh.sh_crashes >= ctx.cx.fc_shard_breaker
        then
          quarantine_shard ctx sh
            ~reason:
              (Printf.sprintf
                 "shard %d breaker: %d crash(es) reached the threshold %d"
                 sh.sh_id sh.sh_crashes ctx.cx.fc_shard_breaker)
            ())
      ctx.shard_states

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)

type admissions = {
  mutable ad_cursor : int;
  mutable ad_admitted : int;
  mutable ad_shed : int;
  mutable ad_deferred : int;
  (* sheds pushed back with a retry-after: (due tick, pool index) *)
  mutable ad_retry : (int * int) list;
}

let retry_after = 3

let admissible ctx tn =
  (not tn.tn_loader)
  && (not ctx.shard_states.(tn.tn_shard).sh_quarantined)
  && Atomic.get tn.tn_alive
  && not (Atomic.get tn.tn_wedged)
  &&
  match Health.state_of_code (Atomic.get tn.tn_escalation) with
  | Health.Starting | Health.Healthy | Health.Degraded -> true
  | Health.Quarantined | Health.Restarting | Health.Dead -> false

(* Round-robin one install over the admissible tenants; bounded queues
   shed under storm.  A shed install is deferred once (with the
   retry-after the [Install_shed] event carries) and dropped for good
   the second time. *)
let admit_one ctx ad ~now ~deferred ci =
  let n = Array.length ctx.tenants in
  let rec place k =
    if k >= n then None
    else begin
      ad.ad_cursor <- (ad.ad_cursor + 1) mod n;
      let tn = ctx.tenants.(ad.ad_cursor) in
      if admissible ctx tn && Atomic.get tn.tn_qlen < ctx.cx.fc_policy.Health.p_queue_capacity
      then Some tn
      else place (k + 1)
    end
  in
  match place 0 with
  | Some tn ->
    enqueue tn ci;
    ad.ad_admitted <- ad.ad_admitted + 1
  | None ->
    (* every queue full (or nobody admissible): shed *)
    Telemetry.emit Telemetry.Event.Install_shed ~a:ad.ad_cursor
      ~b:(Atomic.get ctx.tenants.(ad.ad_cursor).tn_qlen)
      ~c:retry_after;
    if deferred then ad.ad_shed <- ad.ad_shed + 1
    else begin
      ad.ad_deferred <- ad.ad_deferred + 1;
      ad.ad_retry <- (now + retry_after, ci) :: ad.ad_retry
    end

let admit_tick ctx ad prng ~now =
  let due, later = List.partition (fun (d, _) -> d <= now) ad.ad_retry in
  ad.ad_retry <- later;
  List.iter (fun (_, ci) -> admit_one ctx ad ~now ~deferred:true ci) due;
  let storm =
    ctx.cx.fc_storm_every > 0 && now mod ctx.cx.fc_storm_every = 0
  in
  let n =
    ctx.cx.fc_base_installs + if storm then ctx.cx.fc_storm_size else 0
  in
  for _ = 1 to n do
    admit_one ctx ad ~now ~deferred:false
      (Prng.int prng ctx.cx.fc_cfgs)
  done

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let run fc =
  let fc = effective fc in
  Stress.begin_run ~seed:fc.fc_seed ~hoisted:false;
  (* alert ids count from this run's alerts *)
  Obs.Slo.reset ();
  Obs.Timeseries.reset ();
  let t0 = Unix.gettimeofday () in
  let nsh = fc.fc_shards in
  let master = Prng.create fc.fc_seed in
  (* every admission can begin at most one install, plus the seed
     install and slack for journal redos; size each shard's log for the
     worst case of every install landing on it *)
  let storms =
    if fc.fc_storm_every > 0 then fc.fc_ticks / fc.fc_storm_every else 0
  in
  let rig =
    Stress.create ~seed:fc.fc_seed ~pool_prng:master ~cfgs:fc.fc_cfgs
      ~slots:fc.fc_slots ~targets:fc.fc_targets ~shards:nsh
      ~log:
        ((fc.fc_ticks * fc.fc_base_installs) + (storms * fc.fc_storm_size) + 64)
      ~across:false
  in
  let shs = Stress.shards rig in
  let admit_prng = Prng.split master in
  let churn_prng = Prng.split master in
  let tenants =
    Array.init fc.fc_tenants (fun i ->
        let worker_prng = Prng.split master in
        let jitter_prng = Prng.split master in
        let loader = i < fc.fc_loaders in
        {
          tn_id = i;
          tn_shard = i mod nsh;
          tn_loader = loader;
          tn_prng = worker_prng;
          tn_busy = Atomic.make false;
          tn_alive = Atomic.make false;
          tn_wedged = Atomic.make false;
          tn_slow = Atomic.make false;
          tn_crashed = Atomic.make false;
          tn_kill_next = Atomic.make false;
          tn_escalation = Atomic.make (Health.state_code Health.Starting);
          tn_reader = Atomic.make None;
          tn_proc = Atomic.make None;
          tn_queue = Queue.create ();
          tn_qlock = Mutex.create ();
          tn_qlen = Atomic.make 0;
          tn_progress = Atomic.make 0;
          tn_load_n = Atomic.make 0;
          tn_checks = Atomic.make 0;
          tn_passes = Atomic.make 0;
          tn_violations = Atomic.make 0;
          tn_exhausted = Atomic.make 0;
          tn_retries = Atomic.make 0;
          tn_served = Atomic.make 0;
          tn_loads_ok = Atomic.make 0;
          tn_loads_failed = Atomic.make 0;
          tn_health = Health.create ~prng:jitter_prng fc.fc_policy;
          tn_last_exhausted = 0;
          tn_last_retries = 0;
          tn_crash_wall = 0.;
          tn_was_killed = false;
          tn_kills = 0;
          tn_restarts = 0;
        })
  in
  let ctx =
    {
      cx = fc;
      rig;
      shs;
      shard_states =
        Array.init nsh (fun i ->
            { sh_id = i; sh_crashes = 0; sh_quarantined = false });
      chaos = Faults.Tenant.arm fc.fc_chaos;
      tenants;
      stop = Atomic.make false;
    }
  in
  (* birth: register every tenant before the workers start *)
  Array.iter
    (fun tn ->
      if tn.tn_loader then Atomic.set tn.tn_proc (Some (build_loader_proc ()))
      else
        Atomic.set tn.tn_reader
          (Some (Shards.register_reader shs ~shard:tn.tn_shard));
      Atomic.set tn.tn_alive true)
    tenants;
  let workers =
    Array.init fc.fc_workers (fun _ -> Domain.spawn (worker_loop ctx))
  in
  let ad =
    { ad_cursor = 0; ad_admitted = 0; ad_shed = 0; ad_deferred = 0; ad_retry = [] }
  in
  let recoveries = ref [] in
  (* SLO trackers: shard health (crash-free tenant-ticks per shard) plus
     two fleet-wide objectives.  The shard objective is tuned so one
     isolated crash on an 8-tenant shard burns 0.5x budget (no alert)
     but a sustained crash-per-tick episode burns 2.5x in both windows
     and raises exactly one alert on the rising edge. *)
  let shard_pop = Array.make nsh 0 in
  Array.iter
    (fun tn -> shard_pop.(tn.tn_shard) <- shard_pop.(tn.tn_shard) + 1)
    tenants;
  let slo_shard =
    Array.init nsh (fun i ->
        Obs.Slo.tracker
          (Obs.Slo.objective ~target:0.95 ~fast_window:5 ~slow_window:30
             ~burn:2.0 "shard-crash-free")
          ~entity:(Printf.sprintf "shard-%d" i))
  in
  let slo_serve =
    Obs.Slo.tracker
      (Obs.Slo.objective ~target:0.9 "serve-vs-shed")
      ~entity:"fleet"
  in
  let slo_install =
    Obs.Slo.tracker
      (Obs.Slo.objective ~target:0.9 "install-success")
      ~entity:"fleet"
  in
  let ts_checks = Obs.Timeseries.series "fleet.checks"
  and ts_served = Obs.Timeseries.series "fleet.served"
  and ts_shed = Obs.Timeseries.series "fleet.shed"
  and ts_violations = Obs.Timeseries.series "fleet.violations"
  and ts_healthy = Obs.Timeseries.series "fleet.healthy"
  and ts_shard =
    Array.init nsh (fun i ->
        Obs.Timeseries.series (Printf.sprintf "shard%d.installs" i))
  in
  let last_crashes = Array.make nsh 0 in
  let last_admitted = ref 0
  and last_shed = ref 0
  and last_served = ref 0 in
  let alert_trips = ref [] in
  let sum f = Array.fold_left (fun acc tn -> acc + f tn) 0 tenants in
  (* one supervisor-tick pass over the SLO engine: observe this tick's
     deltas, evaluate the burn windows, and (when [fc_slo_breaker]) let
     a shard alert trip the breaker — the trip carries the alert id *)
  let slo_tick ~now =
    let crashes_now = ref 0 in
    for i = 0 to nsh - 1 do
      let sh = ctx.shard_states.(i) in
      let crashed = sh.sh_crashes - last_crashes.(i) in
      last_crashes.(i) <- sh.sh_crashes;
      crashes_now := !crashes_now + crashed;
      let total = max 1 shard_pop.(i) in
      Obs.Slo.observe slo_shard.(i) ~good:(max 0 (total - crashed)) ~total;
      match Obs.Slo.evaluate slo_shard.(i) ~tick:now with
      | Some al when fc.fc_slo_breaker && not sh.sh_quarantined ->
        alert_trips := (sh.sh_id, al.Obs.Slo.al_id) :: !alert_trips;
        quarantine_shard ctx sh ~alert:al.Obs.Slo.al_id
          ~reason:
            (Fmt.str "slo breaker: %a" Obs.Slo.pp_alert al)
          ()
      | Some _ | None -> ()
    done;
    let admitted = ad.ad_admitted and shed = ad.ad_shed in
    let served = sum (fun tn -> Atomic.get tn.tn_served) in
    let g_adm = admitted - !last_admitted and b_shed = shed - !last_shed in
    let g_srv = served - !last_served in
    last_admitted := admitted;
    last_shed := shed;
    last_served := served;
    Obs.Slo.observe slo_serve ~good:g_adm ~total:(g_adm + b_shed);
    ignore (Obs.Slo.evaluate slo_serve ~tick:now);
    Obs.Slo.observe slo_install ~good:g_srv ~total:(g_srv + !crashes_now);
    ignore (Obs.Slo.evaluate slo_install ~tick:now);
    (* time-series snapshots under [mcfi top] and the bench harness *)
    Obs.Timeseries.push ts_checks
      (float_of_int (sum (fun tn -> Atomic.get tn.tn_checks)));
    Obs.Timeseries.push ts_served (float_of_int served);
    Obs.Timeseries.push ts_shed (float_of_int shed);
    Obs.Timeseries.push ts_violations
      (float_of_int (sum (fun tn -> Atomic.get tn.tn_violations)));
    Obs.Timeseries.push ts_healthy
      (float_of_int
         (sum (fun tn ->
              if Health.state tn.tn_health = Health.Healthy then 1 else 0)));
    Array.iteri
      (fun i ts ->
        Obs.Timeseries.push ts (float_of_int (Stress.completed rig i)))
      ts_shard
  in
  for now = 1 to fc.fc_ticks do
    admit_tick ctx ad admit_prng ~now;
    Array.iter
      (fun tn ->
        supervise_tenant ctx recoveries tn ~now ~signals:(sample_signals tn))
      tenants;
    trip_shard_breakers ctx;
    slo_tick ~now;
    (* fleet churn: voluntarily retire a serving tenant; it restarts
       through the same crash path as a real kill *)
    if fc.fc_churn_every > 0 && now mod fc.fc_churn_every = 0 then begin
      let candidates =
        Array.to_list tenants
        |> List.filter (fun tn ->
               (not tn.tn_loader) && Atomic.get tn.tn_alive
               && Health.state tn.tn_health = Health.Healthy)
      in
      match candidates with
      | [] -> ()
      | l -> Atomic.set (Prng.choose churn_prng l).tn_crashed true
    end;
    (* the supervisor doubles as the quiescence reclaimer, shard by
       shard: one shard's stalled epoch never gates another's *)
    Stress.reclaim rig;
    if fc.fc_tick_s > 0. then Unix.sleepf fc.fc_tick_s
  done;
  Atomic.set ctx.stop true;
  let tallies = Array.map Domain.join workers in
  Faults.disarm ();
  (* a wedge set too late for the stall detector to catch in-run must
     not slip through as a survivor (or let its registration pollute
     the quiescence gate): quarantine stragglers by decree *)
  Array.iter
    (fun tn -> if Atomic.get tn.tn_wedged then decree_quarantine ctx tn)
    tenants;
  (* drain: process crashes still pending and let every Restarting
     tenant finish its backoff and rebirth.  The fake epoch keeps
     advancing so nobody looks wedged while the workers are gone. *)
  let max_delay =
    Health.restart_delay_preview fc.fc_policy
      (fc.fc_policy.Health.p_backoff_cap + 1)
  in
  let drain_rounds = (2 * max_delay * fc.fc_policy.Health.p_restart_budget) + 8 in
  for round = 1 to drain_rounds do
    let now = fc.fc_ticks + round in
    Array.iter
      (fun tn ->
        match Health.state tn.tn_health with
        | Health.Dead | Health.Quarantined -> ()
        | _ ->
          let signals =
            {
              (Health.quiet ~epoch:now) with
              Health.s_crashed = Atomic.exchange tn.tn_crashed false;
            }
          in
          supervise_tenant ctx recoveries tn ~now ~signals)
      tenants
  done;
  (* the last kill may have left a torn install on some shard: complete
     it so every shard's install log balances *)
  ignore (Shards.recover_all shs);
  (* wedged-quiescence gate, per shard: with every corpse torn down,
     the survivors' epochs advancing must let each shard's tables
     quiesce independently *)
  let quiesce_shard i =
    let ti = Shards.tables shs i in
    if Tables.updates_since_quiesce ti = 0 then true
    else if Tables.registered_readers ti = 0 then begin
      (* every reader this shard had has been unregistered — e.g. the
         whole shard was quarantined and its tenants torn down — so no
         check transaction can be in flight against it; the epoch
         registry can never produce evidence again, and declaring
         directly is sound *)
      Tables.quiesce ti;
      true
    end
    else begin
      let rec attempt round =
        if round > 200 then false
        else begin
          Array.iter
            (fun tn ->
              if tn.tn_shard = i then
                match Atomic.get tn.tn_reader with
                | Some rd -> Tables.reader_quiescent rd
                | None -> ())
            tenants;
          Tables.quiesce_attempt ti || attempt (round + 1)
        end
      in
      attempt 0
    end
  in
  let final_quiesce = ref true in
  for i = 0 to nsh - 1 do
    if not (quiesce_shard i) then final_quiesce := false
  done;
  let final_quiesce = !final_quiesce in
  (* final teardown: every remaining registration and loader process *)
  Array.iter (fun tn -> teardown_tenant ctx tn) tenants;
  let audit, shard_installs, quiesces = Stress.finish rig in
  let anomalies =
    Array.fold_left
      (fun acc y -> List.rev_append (Stress.anomalies y) acc)
      audit tallies
  in
  let anomalies =
    if final_quiesce then anomalies
    else
      {
        Stress.an_seed = fc.fc_seed;
        an_kind = "wedged-quiescence";
        an_detail =
          "tables could not quiesce after every corpse was torn down";
      }
      :: anomalies
  in
  let unrecovered =
    (* a killed tenant still in [Restarting] was neither reborn nor
       quarantined — the acceptance gate demands there are none *)
    sum (fun tn ->
        if tn.tn_was_killed && Health.state tn.tn_health = Health.Restarting
        then 1
        else 0)
  in
  let quarantined =
    sum (fun tn ->
        if Health.state tn.tn_health = Health.Quarantined then 1 else 0)
  in
  let survivors =
    sum (fun tn ->
        match Health.state tn.tn_health with
        | Health.Starting | Health.Healthy | Health.Degraded -> 1
        | Health.Quarantined | Health.Restarting | Health.Dead -> 0)
  in
  let recoveries_ms = !recoveries in
  let sorted = Array.of_list recoveries_ms in
  Array.sort compare sorted;
  {
    fr_config = fc;
    fr_checks = sum (fun tn -> Atomic.get tn.tn_checks);
    fr_passes = sum (fun tn -> Atomic.get tn.tn_passes);
    fr_violations = sum (fun tn -> Atomic.get tn.tn_violations);
    fr_exhausted = sum (fun tn -> Atomic.get tn.tn_exhausted);
    fr_retries = sum (fun tn -> Atomic.get tn.tn_retries);
    fr_installs = Array.fold_left ( + ) 0 shard_installs;
    fr_served = sum (fun tn -> Atomic.get tn.tn_served);
    fr_admitted = ad.ad_admitted;
    fr_shed = ad.ad_shed + List.length ad.ad_retry;
    fr_deferred = ad.ad_deferred;
    fr_kills = sum (fun tn -> tn.tn_kills);
    fr_restarts = sum (fun tn -> tn.tn_restarts);
    fr_quarantined = quarantined;
    fr_unrecovered = unrecovered;
    fr_survivors = survivors;
    fr_survival_rate = float_of_int survivors /. float_of_int fc.fc_tenants;
    fr_recoveries_ms = recoveries_ms;
    fr_recovery_p50_ms = percentile sorted 0.50;
    fr_recovery_p99_ms = percentile sorted 0.99;
    fr_loads_ok = sum (fun tn -> Atomic.get tn.tn_loads_ok);
    fr_loads_failed = sum (fun tn -> Atomic.get tn.tn_loads_failed);
    fr_quiesces = quiesces;
    fr_final_quiesce = final_quiesce;
    fr_shard_installs = shard_installs;
    fr_shard_served =
      Array.init nsh (fun i ->
          sum (fun tn ->
              if tn.tn_shard = i then Atomic.get tn.tn_served else 0));
    fr_shards_quarantined =
      Array.fold_left
        (fun acc sh -> if sh.sh_quarantined then acc + 1 else acc)
        0 ctx.shard_states;
    fr_slo_alerts = Obs.Slo.alert_count ();
    fr_alert_trips = List.rev !alert_trips;
    fr_anomalies = anomalies;
    fr_elapsed_s = Unix.gettimeofday () -. t0;
  }

module Prng = Mcfi_util.Prng
module Json = Mcfi_util.Json
open Idtables

type scenario = {
  seed : int64;
  checkers : int;
  updaters : int;
  updates : int;
  cfgs : int;
  targets : int;
  slots : int;
  kill_every : int;
  reclaimer : bool;
  watchdog_deadline : int;
  loader_loads : int;
  loader_fault_one_in : int;
  shards : int;
  hoisted : bool;
}

let default ~seed =
  {
    seed;
    checkers = 4;
    updaters = 2;
    (* past the 2^14 ABA wall: only epoch quiescence gets us through *)
    updates = Id.max_version + 128;
    cfgs = 6;
    targets = 24;
    slots = 4;
    kill_every = 389;
    reclaimer = true;
    watchdog_deadline = 256;
    loader_loads = 0;
    loader_fault_one_in = 0;
    shards = 1;
    hoisted = false;
  }

let generate ~seed =
  let p = Prng.create seed in
  let base =
    {
      seed;
      checkers = 2 + Prng.int p 4;
      updaters = 1 + Prng.int p 3;
      updates = 4096 + Prng.int p 24_000;
      cfgs = 4 + Prng.int p 12;
      targets = 8 + (4 * Prng.int p 14);
      slots = 2 + Prng.int p 6;
      kill_every = Prng.choose p [ 0; 61; 97; 193 ];
      reclaimer = Prng.bool p;
      watchdog_deadline = 64 + Prng.int p 448;
      loader_loads = Prng.choose p [ 0; 4; 8 ];
      loader_fault_one_in = Prng.choose p [ 0; 2; 3 ];
      shards = 1;
      hoisted = false;
    }
  in
  (* drawn after the record so the base dimensions keep their stream
     positions (record-field evaluation order is unspecified) *)
  let shards = Prng.choose p [ 1; 2; 4 ] in
  let hoisted = Prng.bool p in
  { base with shards; hoisted }

let pp_scenario ppf sc =
  Fmt.pf ppf
    "seed=%Ld checkers=%d updaters=%d updates=%d cfgs=%d targets=%d slots=%d \
     kill-every=%d reclaimer=%b deadline=%d loads=%d load-fault-1/%d \
     shards=%d dispatch=%s"
    sc.seed sc.checkers sc.updaters sc.updates sc.cfgs sc.targets sc.slots
    sc.kill_every sc.reclaimer sc.watchdog_deadline sc.loader_loads
    sc.loader_fault_one_in sc.shards
    (if sc.hoisted then "threaded" else "byte")

type anomaly = { an_seed : int64; an_kind : string; an_detail : string }

let pp_anomaly ppf a =
  Fmt.pf ppf "[%s] %s (replay with seed %Ld)" a.an_kind a.an_detail a.an_seed

type report = {
  rp_scenario : scenario;
  rp_checks : int;
  rp_passes : int;
  rp_violations : int;
  rp_exhausted : int;
  rp_installs : int;
  rp_shard_installs : int array;
  rp_kills : int;
  rp_recoveries : int;
  rp_retries : int;
  rp_watchdog_fires : int;
  rp_rollbacks : int;
  rp_loads_ok : int;
  rp_loads_failed : int;
  rp_quiesces : int;
  rp_anomalies : anomaly list;
  rp_trace : Telemetry.Event.t list;
  rp_elapsed_s : float;
}

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>checks %d (%d pass / %d violation / %d exhausted)@,\
     installs %d%a, kills %d, recoveries %d, quiesces %d@,\
     retries %d, watchdog fires %d@,\
     loads %d ok / %d failed, rollbacks %d@,\
     anomalies %d%a%a@,\
     elapsed %.2fs@]"
    r.rp_checks r.rp_passes r.rp_violations r.rp_exhausted r.rp_installs
    (fun ppf a ->
      if Array.length a > 1 then
        Fmt.pf ppf " (per shard: %a)"
          Fmt.(array ~sep:(any "/") int)
          a)
    r.rp_shard_installs r.rp_kills r.rp_recoveries r.rp_quiesces r.rp_retries
    r.rp_watchdog_fires r.rp_loads_ok r.rp_loads_failed r.rp_rollbacks
    (List.length r.rp_anomalies)
    (fun ppf -> function
      | [] -> ()
      | l -> Fmt.pf ppf ":@,  @[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_anomaly) l)
    r.rp_anomalies
    (fun ppf -> function
      | [] -> ()
      | tr ->
        Fmt.pf ppf "@,trace evidence (%d most recent events):@,  @[<v>%a@]"
          (List.length tr)
          (Fmt.list ~sep:Fmt.cut Telemetry.Event.pp)
          tr)
    r.rp_trace r.rp_elapsed_s

(* ------------------------------------------------------------------ *)
(* Seeded CFG pool                                                     *)

(* A pool CFG over a small ECN space: [c_bary.(slot)] is the branch
   slot's class, [c_tary.(i)] the class of the i-th 4-aligned target
   (-1 = not a target).  Three classes and a 1-in-4 hole rate give a
   healthy mix of passes and violations. *)
type cfg = { c_bary : int array; c_tary : int array }

let ecn_space = 3

let gen_cfg p ~slots ~targets =
  {
    c_bary = Array.init slots (fun _ -> Prng.int p ecn_space);
    c_tary =
      Array.init targets (fun _ ->
          if Prng.int p 4 = 0 then -1 else Prng.int p ecn_space);
  }

let allows cfg ~slot ~tidx =
  tidx >= 0 && cfg.c_tary.(tidx) >= 0 && cfg.c_tary.(tidx) = cfg.c_bary.(slot)

let tary_of ~base cfg =
  let acc = ref [] in
  Array.iteri
    (fun i e -> if e >= 0 then acc := (base + (4 * i), e) :: !acc)
    cfg.c_tary;
  !acc

let bary_of cfg =
  Array.to_list (Array.mapi (fun s e -> (s, e)) cfg.c_bary)

(* ------------------------------------------------------------------ *)
(* Epoch-history oracle                                                *)

(* The install log.  [obs_begin] (under the update lock, before the first
   slot write) records version and tag at index [h_began], then publishes
   by bumping the counter — so any entry below an observed [h_began] is
   fully written.  Completions happen in begin order: installs serialize
   on the update lock and a torn install is redone by the next lock
   holder before its own begins, hence "[h_completed] = c" means exactly
   entries 0..c-1 are fully installed. *)
type history = {
  h_version : int array;
  h_tag : int array;
  h_began : int Atomic.t;
  h_completed : int Atomic.t;
  h_overflow : bool Atomic.t;
}

let make_history size =
  {
    h_version = Array.make size (-1);
    h_tag = Array.make size (-1);
    h_began = Atomic.make 0;
    h_completed = Atomic.make 0;
    h_overflow = Atomic.make false;
  }

let history_began h = Atomic.get h.h_began
let history_completed h = Atomic.get h.h_completed
let history_overflowed h = Atomic.get h.h_overflow

let observer h =
  {
    Tables.obs_begin =
      (fun ~version ~tag ->
        let i = Atomic.get h.h_began in
        if i < Array.length h.h_tag then begin
          h.h_version.(i) <- version;
          h.h_tag.(i) <- tag;
          Atomic.incr h.h_began
        end
        else Atomic.set h.h_overflow true);
    obs_complete = (fun ~version:_ ~tag:_ -> Atomic.incr h.h_completed);
  }

(* A check that read [h_completed] = c0 before its first table read and
   [h_began] = b1 after its last can only have observed table words
   written by installs [c0-1 .. b1-1]: anything older was fully
   overwritten before the check started (entry c0-1 was the last
   complete install, and each install rewrites every slot), anything
   newer had not begun when the check finished. *)
let window_justifies h pool ~slot ~tidx ~c0 ~b1 ~pass =
  let lo = max 0 (c0 - 1) in
  let hi = min (b1 - 1) (Array.length h.h_tag - 1) in
  let rec go i =
    i <= hi
    &&
    let tag = h.h_tag.(i) in
    let ok = tag >= 0 && tag < Array.length pool && allows pool.(tag) ~slot ~tidx in
    (if pass then ok else not ok) || go (i + 1)
  in
  go lo

(* ------------------------------------------------------------------ *)
(* Per-domain tallies                                                  *)

type tally = {
  mutable y_checks : int;
  mutable y_passes : int;
  mutable y_violations : int;
  mutable y_exhausted : int;
  mutable y_anomaly_count : int;
  mutable y_anomalies : anomaly list; (* capped; newest first *)
}

let new_tally () =
  {
    y_checks = 0;
    y_passes = 0;
    y_violations = 0;
    y_exhausted = 0;
    y_anomaly_count = 0;
    y_anomalies = [];
  }

let max_anomalies_kept = 4

let record_anomaly y ~seed kind detail =
  y.y_anomaly_count <- y.y_anomaly_count + 1;
  if y.y_anomaly_count <= max_anomalies_kept then
    y.y_anomalies <-
      { an_seed = seed; an_kind = kind; an_detail = detail } :: y.y_anomalies;
  (* the choke point every oracle verdict passes through: exactly one
     forensic bundle per recorded anomaly (the trigger is uncapped) *)
  if Obs.Flightrec.recording () then
    ignore
      (Obs.Flightrec.record_trigger Obs.Flightrec.Oracle_anomaly
         ~reason:(Printf.sprintf "%s (replay with seed %Ld)" kind seed)
         ~extra:
           [
             ("kind", Json.Str kind);
             ("detail", Json.Str detail);
             ("seed", Json.Str (Int64.to_string seed));
           ]
         ())

(* ------------------------------------------------------------------ *)
(* Component A: the table torture                                      *)

let torture_base = 0x1000

let m_hoist_site_hits = Telemetry.Metrics.counter "mcfi_hoist_site_hits_total"

let m_hoist_site_misses =
  Telemetry.Metrics.counter "mcfi_hoist_site_misses_total"

let torture_checker ~stop ~shs ~shard ~h ~pool ~prng ~sc () =
  let rd = Shards.register_reader shs ~shard in
  let wd =
    { Tx.wd_deadline = sc.watchdog_deadline; wd_on_expire = Tx.Wait_for_updater }
  in
  (* the backoff jitter stream is derived in the spawned domain itself:
     per-domain, never shared with a sibling checker *)
  let jitter = Tx.domain_jitter () in
  (* threaded-dispatch analogue: one version-hoisted site per branch
     slot, exactly as the fused check superinstructions keep one per
     enforcement site.  The epoch-history oracle judges hoisted checks
     unchanged: a hit requires the shard's install sequence word even
     and unmoved since the fill, so the cached pair is bit-identical to
     a fresh read in the same window. *)
  let sites =
    if sc.hoisted then Some (Array.init sc.slots (fun _ -> Tx.site ()))
    else None
  in
  let y = new_tally () in
  (* black-box tally handle: resolved once, bumped per check with plain
     stores — the flight recorder's always-on accounting; [retries]
     counts the current check's retries for it (the hook is built once,
     not per check) *)
  let fr = Telemetry.tally () in
  let retries = ref 0 in
  let on_retry = Some (fun () -> incr retries) in
  while not (Atomic.get stop) do
    (* branch boundary: provably outside any check transaction *)
    Tables.reader_quiescent rd;
    let slot = Prng.int prng sc.slots in
    let kind = Prng.int prng 10 in
    let tidx, target =
      if kind = 0 then (* misaligned probe: can never be a valid target *)
        (-1, torture_base + (4 * Prng.int prng sc.targets) + 2)
      else if kind = 1 then (* past the covered code: likewise *)
        (-1, torture_base + (4 * sc.targets))
      else
        let i = Prng.int prng sc.targets in
        (i, torture_base + (4 * i))
    in
    let c0 = Atomic.get h.h_completed in
    retries := 0;
    let out =
      match sites with
      | Some st ->
        Shards.check_hoisted ~watchdog:wd ~jitter ?on_retry shs ~shard
          st.(slot) ~bary_index:slot ~target
      | None ->
        Shards.check ~watchdog:wd ~jitter ?on_retry shs ~shard
          ~bary_index:slot ~target
    in
    let b1 = Atomic.get h.h_began in
    y.y_checks <- y.y_checks + 1;
    if Obs.Flightrec.recording () then
      Telemetry.bump fr
        ~outcome:
          (match out with
          | Tx.Pass -> 0
          | Tx.Violation -> 1
          | Tx.Retries_exhausted -> 2)
        ~retries:!retries;
    let detail kind_s =
      Printf.sprintf
        "%s: shard=%d slot=%d tidx=%d window=[%d,%d] versions=[%d,%d]" kind_s
        shard slot tidx
        (max 0 (c0 - 1))
        (b1 - 1)
        (h.h_version.(max 0 (c0 - 1)))
        (h.h_version.(max 0 (min (b1 - 1) (Array.length h.h_version - 1))))
    in
    match out with
    | Tx.Pass ->
      y.y_passes <- y.y_passes + 1;
      if not (window_justifies h pool ~slot ~tidx ~c0 ~b1 ~pass:true) then
        record_anomaly y ~seed:sc.seed "unjustified-pass"
          (detail "no live CFG version allows this edge")
    | Tx.Violation ->
      y.y_violations <- y.y_violations + 1;
      if not (window_justifies h pool ~slot ~tidx ~c0 ~b1 ~pass:false) then
        record_anomaly y ~seed:sc.seed "unjustified-violation"
          (detail "every live CFG version allows this edge")
    | Tx.Retries_exhausted -> y.y_exhausted <- y.y_exhausted + 1
  done;
  Shards.unregister_reader shs ~shard rd;
  (* hoisted-site cache traffic, aggregated into the metrics registry
     (the torture analogue of the fused superinstructions' hoist cache;
     [Metrics.add] is gated on telemetry being enabled) *)
  (match sites with
  | Some st ->
    let hits = ref 0 and misses = ref 0 in
    Array.iter
      (fun s ->
        let h, m = Tx.site_stats s in
        hits := !hits + h;
        misses := !misses + m)
      st;
    Telemetry.Metrics.add m_hoist_site_hits !hits;
    Telemetry.Metrics.add m_hoist_site_misses !misses
  | None -> ());
  y

(* every 11th update by an updater on a multi-shard harness commits the
   same CFG on its home shard and one other, through the cross-shard
   sequence — so [Between_shard_commits] kills get exercised and each
   shard's oracle still sees a full install of a pool CFG *)
let cross_shard_every = 11

let torture_updater ~shs ~pool ~prng ~sc ~n ~uid () =
  let nsh = Shards.count shs in
  let home = uid mod nsh in
  let kills = ref 0 in
  let fatal = ref [] in
  for j = 1 to n do
    let ci = Prng.int prng (Array.length pool) in
    if sc.kill_every > 0 && uid = 0 && j mod sc.kill_every = 0 then begin
      (* arm a one-shot mid-install kill; it fires inside whichever
         updater crosses the point next (usually this one, within this
         very update) and leaves at most one shard's journal for that
         shard's next lock holder to redo *)
      let plan =
        if nsh = 1 then
          let point, hit =
            if Prng.bool prng then
              (Faults.Plan.Nth_tary_write, 1 + Prng.int prng sc.targets)
            else (Faults.Plan.Between_tary_and_bary, 1)
          in
          Faults.Plan.At { point; hit }
        else
          match Prng.int prng 3 with
          | 0 ->
            Faults.Plan.At_shard
              {
                shard = home;
                point = Faults.Plan.Nth_tary_write;
                hit = 1 + Prng.int prng sc.targets;
              }
          | 1 ->
            Faults.Plan.At_shard
              { shard = home; point = Faults.Plan.Between_tary_and_bary; hit = 1 }
          | _ ->
            (* dies between shard commits: the earlier shard stays
               committed, this one is never touched *)
            Faults.Plan.At_shard
              {
                shard = (home + 1) mod nsh;
                point = Faults.Plan.Between_shard_commits;
                hit = 1;
              }
      in
      Faults.arm plan
    end;
    let tary = tary_of ~base:torture_base pool.(ci) in
    let bary = bary_of pool.(ci) in
    match
      if nsh > 1 && j mod cross_shard_every = 0 then
        let other = (home + 1 + Prng.int prng (nsh - 1)) mod nsh in
        ignore
          (Shards.update_multi_full ~tag:ci shs
             [ (home, (tary, bary)); (other, (tary, bary)) ])
      else ignore (Shards.update ~tag:ci shs ~shard:home ~tary ~bary)
    with
    | () -> ()
    | exception Faults.Injected _ ->
      incr kills;
      (* one bundle per injected kill (uncapped): the shard-state
         snapshot shows which journal the next lock holder must redo *)
      if Obs.Flightrec.recording () then
        ignore
          (Obs.Flightrec.record_trigger Obs.Flightrec.Injected_kill
             ~reason:
               (Printf.sprintf "updater %d killed mid-install at update %d"
                  uid j)
             ~extra:
               [
                 ("updater", Json.num uid);
                 ("update", Json.num j);
                 ("shards", Shards.states_json shs);
               ]
             ())
    | exception Tx.Version_space_exhausted ->
      fatal :=
        {
          an_seed = sc.seed;
          an_kind = "version-space-exhausted";
          an_detail =
            Printf.sprintf
              "updater %d (shard %d) exhausted versions at its update %d" uid
              home j;
        }
        :: !fatal
  done;
  (!kills, !fatal)

let reclaimer_loop ~stop ~shs () =
  let nsh = Shards.count shs in
  while not (Atomic.get stop) do
    for i = 0 to nsh - 1 do
      let t = Shards.tables shs i in
      if Tables.updates_since_quiesce t > 0 then
        ignore (Tables.quiesce_attempt t)
    done;
    Tx.backoff 4
  done

let run_torture sc master pool =
  let nsh = max 1 sc.shards in
  let shs =
    Shards.create ~shards:nsh ~code_base:torture_base
      ~capacity:(4 * sc.targets) ~bary_slots:sc.slots ()
  in
  (* the cross-shard path commits one update on two shards, and each
     shard takes one seeding install: size every shard's log for the
     worst case *)
  let hists =
    Array.init nsh (fun _ -> make_history ((2 * sc.updates) + 64 + nsh))
  in
  Array.iteri
    (fun i h -> Shards.set_observer shs ~shard:i (Some (observer h)))
    hists;
  (* an initial complete install per shard so every check window is
     non-empty on every shard *)
  for i = 0 to nsh - 1 do
    let _v0 : int =
      Shards.update ~tag:0 shs ~shard:i
        ~tary:(tary_of ~base:torture_base pool.(0))
        ~bary:(bary_of pool.(0))
    in
    ()
  done;
  let chk_prngs = Array.init sc.checkers (fun _ -> Prng.split master) in
  let upd_prngs = Array.init sc.updaters (fun _ -> Prng.split master) in
  let stop = Atomic.make false in
  let checkers =
    Array.mapi
      (fun i prng ->
        let shard = i mod nsh in
        Domain.spawn
          (torture_checker ~stop ~shs ~shard ~h:hists.(shard) ~pool ~prng ~sc))
      chk_prngs
  in
  let reclaimer =
    if sc.reclaimer then Some (Domain.spawn (reclaimer_loop ~stop ~shs))
    else None
  in
  let per = sc.updates / sc.updaters in
  let updaters =
    Array.init sc.updaters (fun uid ->
        let n =
          if uid = 0 then sc.updates - (per * (sc.updaters - 1)) else per
        in
        Domain.spawn
          (torture_updater ~shs ~pool ~prng:upd_prngs.(uid) ~sc ~n ~uid))
  in
  let upd_results = Array.map Domain.join updaters in
  Faults.disarm ();
  (* the last kill may have left a torn install on some shard: complete
     it so that shard's log balances and its tables end consistent *)
  ignore (Shards.recover_all shs);
  Atomic.set stop true;
  let chk_results = Array.map Domain.join checkers in
  Option.iter Domain.join reclaimer;
  for i = 0 to nsh - 1 do
    Shards.set_observer shs ~shard:i None
  done;
  let kills = Array.fold_left (fun acc (k, _) -> acc + k) 0 upd_results in
  let fatal =
    ref
      (Array.fold_left (fun acc (_, f) -> List.rev_append f acc) [] upd_results)
  in
  Array.iteri
    (fun i h ->
      if Atomic.get h.h_overflow then
        fatal :=
          {
            an_seed = sc.seed;
            an_kind = "history-overflow";
            an_detail =
              Printf.sprintf
                "shard %d: more installs began than the scenario allows" i;
          }
          :: !fatal;
      let completed = Atomic.get h.h_completed in
      let began = Atomic.get h.h_began in
      if completed <> began then
        fatal :=
          {
            an_seed = sc.seed;
            an_kind = "unbalanced-install-log";
            an_detail =
              Printf.sprintf "shard %d: %d installs began but %d completed" i
                began completed;
          }
          :: !fatal)
    hists;
  let shard_installs = Array.map (fun h -> Atomic.get h.h_completed) hists in
  let installs = Array.fold_left ( + ) 0 shard_installs in
  let quiesces = ref 0 in
  for i = 0 to nsh - 1 do
    quiesces := !quiesces + Tables.quiesce_events (Shards.tables shs i)
  done;
  (chk_results, installs, kills, !fatal, !quiesces, shard_installs)

(* ------------------------------------------------------------------ *)
(* Component B: the loader storm                                       *)

(* The victim program needs live indirect edges, so its tables hold
   matching branch/target classes the storm checkers can probe. *)
let storm_program =
  {|
typedef int (*op_fn)(int);
int inc(int x) { return x + 1; }
int dec(int x) { return x - 1; }
int apply(op_fn f, int x) { return f(x); }
int main() {
  op_fn f = inc;
  op_fn g = dec;
  return apply(f, apply(g, 41));
}
|}

(* A (branch slot, target) pair allowed by the current tables.  The
   type-matching CFG generator only merges equivalence classes as more
   modules load, so an allowed edge stays allowed across the storm —
   a stable oracle for the checkers. *)
let stable_probe t =
  let tary = Tables.tary_entries t in
  List.find_map
    (fun (slot, bid) ->
      List.find_map
        (fun (addr, tid) ->
          if Id.ecn tid = Id.ecn bid then Some (slot, addr) else None)
        tary)
    (Tables.bary_entries t)

let storm_checker ~stop ~t ~load_seq ~slot ~allowed ~denied ~sc ~prng () =
  let rd = Tables.register_reader t in
  let wd =
    { Tx.wd_deadline = sc.watchdog_deadline; wd_on_expire = Tx.Wait_for_updater }
  in
  let y = new_tally () in
  (* a short storm can finish before this domain starts: probe a minimum
     number of times regardless, so the stable edges are always exercised *)
  while y.y_checks < 32 || not (Atomic.get stop) do
    Tables.reader_quiescent rd;
    let probe_denied = Prng.int prng 4 = 0 in
    let target = if probe_denied then denied else allowed in
    let s0 = Atomic.get load_seq in
    let out = Tx.check ~watchdog:wd t ~bary_index:slot ~target in
    let s1 = Atomic.get load_seq in
    y.y_checks <- y.y_checks + 1;
    match out with
    | Tx.Pass ->
      y.y_passes <- y.y_passes + 1;
      if probe_denied then
        record_anomaly y ~seed:sc.seed "storm-denied-pass"
          (Printf.sprintf "never-valid target 0x%x passed its check" target)
    | Tx.Violation ->
      y.y_violations <- y.y_violations + 1;
      (* a failed load's rollback scrubs the tables mid-restore, so a
         stable-edge violation is only anomalous outside any load
         window: the seqlock parity must show no load began or ended
         around the check *)
      if (not probe_denied) && s0 = s1 && s0 land 1 = 0 then
        record_anomaly y ~seed:sc.seed "storm-stable-edge-violation"
          (Printf.sprintf
             "allowed edge slot=%d target=0x%x violated with no load in \
              flight"
             slot target)
    | Tx.Retries_exhausted -> y.y_exhausted <- y.y_exhausted + 1
  done;
  Tables.unregister_reader t rd;
  y

let storm_fault_points =
  Faults.Plan.
    [ During_verification; Nth_tary_write; Between_tary_and_bary;
      After_code_append ]

let run_storm sc prng =
  let proc =
    Mcfi.Pipeline.build_process ~instrumented:true
      ~sources:[ ("main", storm_program) ]
      ()
  in
  let t = Option.get (Mcfi_runtime.Process.tables proc) in
  match stable_probe t with
  | None ->
    Mcfi_runtime.Process.teardown proc;
    ( [||],
      0,
      0,
      [
        {
          an_seed = sc.seed;
          an_kind = "storm-no-stable-edge";
          an_detail = "victim program produced no allowed indirect edge";
        };
      ] )
  | Some (slot, allowed) ->
    (* far beyond any code the storm loads: a forever-invalid target *)
    let denied = Tables.code_base t + Tables.capacity t - 4 in
    let load_seq = Atomic.make 0 in
    let stop = Atomic.make false in
    let nchk = max 1 (min 2 sc.checkers) in
    let chk_prngs = Array.init nchk (fun _ -> Prng.split prng) in
    let checkers =
      Array.map
        (fun p ->
          Domain.spawn
            (storm_checker ~stop ~t ~load_seq ~slot ~allowed ~denied ~sc
               ~prng:p))
        chk_prngs
    in
    let ok = ref 0 and failed = ref 0 in
    let prev = ref None in
    for i = 1 to sc.loader_loads do
      Atomic.incr load_seq;
      (* odd: a load window is open *)
      let name, src =
        match !prev with
        | Some prev_mod when i mod 4 = 0 ->
          (* re-load the previous module verbatim: the symbol clash must
             fail the load and exercise the journal rollback *)
          prev_mod
        | _ ->
          ( Printf.sprintf "plug%d" i,
            Printf.sprintf "int fn_%d(int x) { return x + %d; }" i i )
      in
      prev := Some (name, src);
      (match
         let obj =
           Mcfi.Pipeline.instrument (Mcfi.Pipeline.compile_module ~name src)
         in
         if
           sc.loader_fault_one_in > 0
           && Prng.int prng sc.loader_fault_one_in = 0
         then
           Faults.arm
             (Faults.Plan.At
                { point = Prng.choose prng storm_fault_points; hit = 1 });
         Mcfi_runtime.Process.load proc obj
       with
      | () -> incr ok
      | exception Faults.Injected _ ->
        incr failed;
        if Obs.Flightrec.recording () then
          ignore
            (Obs.Flightrec.record_trigger Obs.Flightrec.Injected_kill
               ~reason:
                 (Printf.sprintf "loader killed mid-load of %s (load %d)" name
                    i)
               ~extra:
                 [
                   ("module", Json.Str name);
                   ("load", Json.num i);
                   ("tables", Tables.state_json t);
                 ]
               ())
      | exception
          ( Mcfi_runtime.Process.Error _ | Mcfi.Pipeline.Error _
          | Invalid_argument _ ) ->
        incr failed);
      Faults.disarm ();
      Atomic.incr load_seq (* even: window closed *)
    done;
    Atomic.set stop true;
    let chk_results = Array.map Domain.join checkers in
    (* the kill path: the victim process is done — its reader must not
       outlive it in the epoch registry, or the tables could never
       quiesce again *)
    Mcfi_runtime.Process.teardown proc;
    (chk_results, !ok, !failed, [])

(* ------------------------------------------------------------------ *)

let empty_tallies : tally array = [||]

(* trace evidence attached to an anomalous report: enough tail to see
   the installs and watchdog fires around the bad check, small enough to
   print *)
let max_trace_evidence = 256

let run sc =
  let sc =
    {
      sc with
      checkers = max 1 sc.checkers;
      updaters = max 1 sc.updaters;
      shards = max 1 sc.shards;
    }
  in
  Faults.disarm ();
  Faults.Stats.reset ();
  (* every spawned domain derives its own backoff jitter stream from
     this seed; re-seeding also invalidates streams cached by domains a
     previous run left behind *)
  Tx.seed_domain_jitter sc.seed;
  (* the harness owns the process-global trace while it runs, exactly as
     it owns [Faults.Stats] *)
  if Telemetry.enabled () then Telemetry.reset ();
  (* ... and the flight recorder: rewinding here makes the run's bundle
     accounting exact (one per anomaly, one per kill).  The output
     directory and caps survive the reset. *)
  if Obs.Flightrec.recording () then Obs.Flightrec.reset ();
  (* trace events from this run carry the engine the scenario drives
     (the hoisted torture path is the threaded-dispatch analogue) *)
  Telemetry.set_dispatch_hint
    (if sc.hoisted then Telemetry.Event.dispatch_threaded
     else Telemetry.Event.dispatch_byte);
  let t0 = Unix.gettimeofday () in
  let master = Prng.create sc.seed in
  let pool_prng = Prng.split master in
  let pool =
    Array.init (max 1 sc.cfgs) (fun _ ->
        gen_cfg pool_prng ~slots:sc.slots ~targets:sc.targets)
  in
  let tort_tallies, installs, kills, tort_anoms, quiesces, shard_installs =
    if sc.updates > 0 then run_torture sc master pool
    else (empty_tallies, 0, 0, [], 0, Array.make sc.shards 0)
  in
  let storm_tallies, loads_ok, loads_failed, storm_anoms =
    if sc.loader_loads > 0 then run_storm sc (Prng.split master)
    else (empty_tallies, 0, 0, [])
  in
  let stats = Faults.Stats.snapshot () in
  let tallies = Array.append tort_tallies storm_tallies in
  let sum f = Array.fold_left (fun acc y -> acc + f y) 0 tallies in
  let anomalies =
    tort_anoms @ storm_anoms
    @ Array.fold_left
        (fun acc y -> List.rev_append y.y_anomalies acc)
        [] tallies
  in
  (* an anomaly stops being a bare counter: ship the merged trace tail
     as evidence alongside it *)
  let trace =
    if anomalies <> [] && Telemetry.enabled () then begin
      let all = Telemetry.drain () in
      let n = List.length all in
      if n <= max_trace_evidence then all
      else List.filteri (fun i _ -> i >= n - max_trace_evidence) all
    end
    else []
  in
  {
    rp_scenario = sc;
    rp_checks = sum (fun y -> y.y_checks);
    rp_passes = sum (fun y -> y.y_passes);
    rp_violations = sum (fun y -> y.y_violations);
    rp_exhausted = sum (fun y -> y.y_exhausted);
    rp_installs = installs;
    rp_shard_installs = shard_installs;
    rp_kills = kills;
    rp_recoveries = stats.Faults.Stats.recoveries;
    rp_retries = stats.Faults.Stats.retries;
    rp_watchdog_fires = stats.Faults.Stats.watchdog_fires;
    rp_rollbacks = stats.Faults.Stats.rollbacks;
    rp_loads_ok = loads_ok;
    rp_loads_failed = loads_failed;
    rp_quiesces = quiesces;
    rp_anomalies = anomalies;
    rp_trace = trace;
    rp_elapsed_s = Unix.gettimeofday () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Component C: check throughput during delta installs                 *)

type throughput = {
  tp_checks : int;
  tp_checks_during_install : int;
  tp_installs : int;
  tp_carries : int;
  tp_elapsed_s : float;
  tp_install_s : float;
}

(* Unlike a full update, a delta leaves clean classes at their old
   version, so a cross-class probe (a genuine violation attempt) sees
   version skew that never resolves — the watchdog path decides it, as
   in [torture_checker]; [check_fast]'s unbounded spin would livelock. *)
let throughput_checker ~stop ~installing ~t ~prng ~targets ~slots () =
  let rd = Tables.register_reader t in
  let wd = { Tx.wd_deadline = 8; wd_on_expire = Tx.Wait_for_updater } in
  let jitter = Tx.domain_jitter () in
  let checks = ref 0 and during = ref 0 in
  while not (Atomic.get stop) do
    Tables.reader_quiescent rd;
    let slot = Prng.int prng slots in
    let target = torture_base + (4 * Prng.int prng targets) in
    let overlapped = Atomic.get installing in
    ignore (Tx.check ~watchdog:wd ~jitter t ~bary_index:slot ~target);
    incr checks;
    if overlapped || Atomic.get installing then incr during
  done;
  Tables.unregister_reader t rd;
  (!checks, !during)

let install_throughput ?(checkers = 4) ?(installs = 256) ?(targets = 4096)
    ?(slots = 4096) ?(classes = 64) ~seed () =
  if classes < 3 then invalid_arg "Stress.install_throughput: classes < 3";
  let prng = Prng.create seed in
  let t =
    Tables.create ~code_base:torture_base ~capacity:(4 * targets)
      ~bary_slots:slots ()
  in
  (* Mirror of the installed assignment, kept class/version-consistent:
     every delta rewrites *all* slots of the (few) classes it dirties,
     exactly as the linker's [Cfggen] delta does, so concurrent checks
     on untouched classes never see version skew. *)
  let cur_bary = Array.init slots (fun _ -> Prng.int prng classes) in
  let cur_tary =
    Array.init targets (fun i ->
        if Prng.int prng 4 = 0 then -1 else cur_bary.(i mod slots))
  in
  let addr i = torture_base + (4 * i) in
  let full_tary () =
    let acc = ref [] in
    Array.iteri (fun i e -> if e >= 0 then acc := (addr i, e) :: !acc) cur_tary;
    !acc
  in
  ignore
    (Tx.update t ~tary:(full_tary ())
       ~bary:(Array.to_list (Array.mapi (fun s e -> (s, e)) cur_bary)));
  let stop = Atomic.make false in
  let installing = Atomic.make false in
  let chk_prngs = Array.init (max 1 checkers) (fun _ -> Prng.split prng) in
  let doms =
    Array.map
      (fun prng ->
        Domain.spawn
          (throughput_checker ~stop ~installing ~t ~prng ~targets ~slots))
      chk_prngs
  in
  let carries = ref 0 in
  let t0 = Unix.gettimeofday () in
  let install_s = ref 0.0 in
  for _ = 1 to installs do
    (* dirty two classes: shuffle membership between them, rewrite every
       slot of both at the bumped version *)
    let a = Prng.int prng classes in
    let b = (a + 1 + Prng.int prng (classes - 1)) mod classes in
    let tary_rw = ref [] and bary_rw = ref [] in
    for s = 0 to slots - 1 do
      let e = cur_bary.(s) in
      if e = a || e = b then begin
        let e' = if Prng.bool prng then a else b in
        cur_bary.(s) <- e';
        bary_rw := (s, e') :: !bary_rw
      end
    done;
    for i = 0 to targets - 1 do
      let e = cur_tary.(i) in
      if e = a || e = b then begin
        let e' = if Prng.bool prng then a else b in
        cur_tary.(i) <- e';
        tary_rw := (addr i, e') :: !tary_rw
      end
    done;
    (* occasionally grow an untouched class through the carry path: a
       hole joins it at the donor's current version *)
    let tary_carry =
      if Prng.int prng 4 <> 0 then []
      else
        let hole = ref (-1) and donor = ref (-1) in
        (try
           for i = 0 to targets - 1 do
             let j = (i + Prng.int prng targets) mod targets in
             if !hole < 0 && cur_tary.(j) < 0 then hole := j;
             if
               !donor < 0 && cur_tary.(j) >= 0 && cur_tary.(j) <> a
               && cur_tary.(j) <> b
             then donor := j;
             if !hole >= 0 && !donor >= 0 then raise Exit
           done
         with Exit -> ());
        if !hole < 0 || !donor < 0 then []
        else begin
          let e = cur_tary.(!donor) in
          cur_tary.(!hole) <- e;
          incr carries;
          [ (addr !hole, e, Tx.From_tary (addr !donor)) ]
        end
    in
    let i0 = Unix.gettimeofday () in
    Atomic.set installing true;
    ignore
      (Tx.update_delta t ~tary:!tary_rw ~bary:!bary_rw ~tary_carry
         ~bary_carry:[]);
    Atomic.set installing false;
    install_s := !install_s +. (Unix.gettimeofday () -. i0)
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Atomic.set stop true;
  let results = Array.map Domain.join doms in
  let checks = Array.fold_left (fun acc (c, _) -> acc + c) 0 results in
  let during = Array.fold_left (fun acc (_, d) -> acc + d) 0 results in
  {
    tp_checks = checks;
    tp_checks_during_install = during;
    tp_installs = installs;
    tp_carries = !carries;
    tp_elapsed_s = elapsed;
    tp_install_s = !install_s;
  }

(* ------------------------------------------------------------------ *)
(* Component D: install scaling across shards                          *)

type shard_scaling = {
  ss_shards : int;
  ss_installs : int;
  ss_installs_per_s : float;
  ss_wedge_s : float;
  ss_wedged_installs : int;
  ss_elapsed_s : float;
}

let scaling_updater ~stop ~shs ~prng ~cfgs ~shard ~tally () =
  let ti = Shards.tables shs shard in
  while not (Atomic.get stop) do
    let ci = Prng.int prng (Array.length cfgs) in
    let tary, bary = cfgs.(ci) in
    (match Shards.update ~tag:ci shs ~shard ~tary ~bary with
    | (_ : int) -> Atomic.incr tally
    | exception Tx.Version_space_exhausted ->
      (* the wall arrived between quiescent points; declare and rebase *)
      Tables.quiesce ti;
      ignore (Shards.refresh shs ~shard));
    (* no checker ever reads these tables — the measurement counts
       installs only — so every iteration is a provably quiescent
       point, declared directly (the epoch registry is empty and could
       never produce evidence); this keeps the version space
       reclaimable past 2^14 installs per shard *)
    Tables.quiesce ti
  done

(* Phase A: [updaters] domains hammer installs, homed round-robin over
   the shards, for [duration_s] — contended install throughput.  Phase
   B: one extra domain grabs shard 0's update lock and wedges it for
   [wedge_s] while the same updaters keep going; installs completed in
   the window measure how much of the fleet a single wedged shard takes
   down.  With one shard the window count collapses toward zero (the
   single lock is the wedged lock); with N shards the updaters homed
   off shard 0 are untouched. *)
let shard_scaling ?(updaters = 4) ?(duration_s = 0.2) ?(wedge_s = 0.2)
    ?(targets = 64) ?(slots = 16) ~shards ~seed () =
  let nsh = max 1 shards in
  let prng = Prng.create seed in
  Tx.seed_domain_jitter seed;
  let shs =
    Shards.create ~shards:nsh ~code_base:torture_base
      ~capacity:(4 * targets) ~bary_slots:slots ()
  in
  let pool =
    Array.init 4 (fun _ -> gen_cfg prng ~slots ~targets)
  in
  let cfgs =
    Array.map (fun c -> (tary_of ~base:torture_base c, bary_of c)) pool
  in
  let spawn_updaters ~stop ~tally =
    Array.init (max 1 updaters) (fun uid ->
        let prng = Prng.split prng in
        let shard = uid mod nsh in
        Domain.spawn (scaling_updater ~stop ~shs ~prng ~cfgs ~shard ~tally))
  in
  let t0 = Unix.gettimeofday () in
  (* phase A: contended installs/s *)
  let stop_a = Atomic.make false in
  let tally_a = Atomic.make 0 in
  let doms_a = spawn_updaters ~stop:stop_a ~tally:tally_a in
  Unix.sleepf duration_s;
  Atomic.set stop_a true;
  Array.iter Domain.join doms_a;
  let installs = Atomic.get tally_a in
  (* phase B: wedge shard 0's update lock, count what still lands.  The
     wedger holds the lock until [wedge_done] — set only after the
     window's tally is sampled — so the sample is taken with the lock
     provably still held and a single-shard run reads (near) zero
     rather than racing the release. *)
  let stop_b = Atomic.make false in
  let tally_b = Atomic.make 0 in
  let wedge_open = Atomic.make false in
  let wedge_done = Atomic.make false in
  let wedger =
    Domain.spawn (fun () ->
        Tables.with_update_lock (Shards.tables shs 0) (fun () ->
            Atomic.set wedge_open true;
            while not (Atomic.get wedge_done) do
              Domain.cpu_relax ()
            done))
  in
  while not (Atomic.get wedge_open) do
    Domain.cpu_relax ()
  done;
  let doms_b = spawn_updaters ~stop:stop_b ~tally:tally_b in
  Unix.sleepf wedge_s;
  let wedged_installs = Atomic.get tally_b in
  Atomic.set wedge_done true;
  Domain.join wedger;
  Atomic.set stop_b true;
  Array.iter Domain.join doms_b;
  {
    ss_shards = nsh;
    ss_installs = installs;
    ss_installs_per_s = float_of_int installs /. duration_s;
    ss_wedge_s = wedge_s;
    ss_wedged_installs = wedged_installs;
    ss_elapsed_s = Unix.gettimeofday () -. t0;
  }

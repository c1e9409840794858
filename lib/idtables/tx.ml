type outcome = Pass | Violation | Retries_exhausted

let pp_outcome ppf = function
  | Pass -> Fmt.string ppf "pass"
  | Violation -> Fmt.string ppf "violation"
  | Retries_exhausted -> Fmt.string ppf "retries-exhausted"

type escalation = Halt_process | Wait_for_updater | Fail_check

let pp_escalation ppf = function
  | Halt_process -> Fmt.string ppf "halt-process"
  | Wait_for_updater -> Fmt.string ppf "wait-for-updater"
  | Fail_check -> Fmt.string ppf "fail-check"

type watchdog = { wd_deadline : int; wd_on_expire : escalation }

let pp_watchdog ppf w =
  Fmt.pf ppf "watchdog(deadline=%d, %a)" w.wd_deadline pp_escalation
    w.wd_on_expire

(* Telemetry metrics for the transaction layer.  Registration is
   module-init-time; the observe calls are no-ops while telemetry is
   disabled.  (Check latency and retries-per-check are recorded by
   [Telemetry.check_end] itself.) *)
let m_watchdog_wait = Telemetry.Metrics.histogram "mcfi_watchdog_wait_rounds"
let m_install_ns = Telemetry.Metrics.histogram "mcfi_install_ns"
let m_delta_writes = Telemetry.Metrics.histogram "mcfi_delta_writes"

(* Bounded exponential backoff: 2^round pause hints, capped at 64, so a
   checker spinning against a long update yields the core without ever
   sleeping (checks must stay syscall-free).  With [jitter], the spin
   count is drawn uniformly from [base, 2*base): N tenants backing off
   from the same contended install fan out instead of retrying in
   lockstep (thundering herd), and the draw is deterministic per PRNG
   seed so test failures replay exactly. *)
let backoff_spins ?jitter round =
  let base = 1 lsl min round 6 in
  match jitter with
  | None -> base
  | Some prng -> base + Mcfi_util.Prng.int prng base

let backoff ?jitter round =
  let spins = backoff_spins ?jitter round in
  for _ = 1 to spins do
    Domain.cpu_relax ()
  done

(* ---- per-domain jitter streams ----

   A [Prng.t] is a mutable, unsynchronized stream: handing one PRNG to
   checkers on several domains races its state word and — worse —
   correlates their backoff draws, which is exactly the lockstep the
   jitter exists to break.  Each domain therefore derives its own stream
   lazily, from a process-wide base seed folded with the domain id
   (splitmix64's odd constant, as [Faults.Tenant.tenant_stream]).  The
   schedule is still deterministic per (base seed, domain id), so seeded
   harness runs replay; re-seeding bumps a generation counter and each
   domain re-derives on its next draw. *)
let jitter_base : int64 Atomic.t = Atomic.make 0x6A177E12D00DL
let jitter_gen : int Atomic.t = Atomic.make 0

let jitter_key : (int * Mcfi_util.Prng.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let seed_domain_jitter seed =
  Atomic.set jitter_base seed;
  Atomic.incr jitter_gen

let domain_jitter () =
  let cell = Domain.DLS.get jitter_key in
  let gen = Atomic.get jitter_gen in
  match !cell with
  | Some (g, prng) when g = gen -> prng
  | _ ->
    let did = (Domain.self () :> int) in
    let prng =
      Mcfi_util.Prng.create
        (Int64.logxor (Atomic.get jitter_base)
           (Int64.mul (Int64.of_int (did + 1)) 0x9E3779B97F4A7C15L))
    in
    cell := Some (gen, prng);
    prng

let check_fast ?on_retry t ~bary_index ~target =
  (* The production path stays event-free: a scalar per-domain tally is
     all the observability it gets, so the enabled cost is two plain
     increments and the disabled cost one atomic load. *)
  Telemetry.fast_check ();
  let rec go round =
    let bid = Tables.bary_read t bary_index in
    let tid = Tables.tary_read t target in
    if bid = tid then true
    else if not (Id.valid tid) then false
    else if not (Id.same_version bid tid) then begin
      (* version skew: an update transaction is in flight *)
      Telemetry.fast_retry ();
      Domain.cpu_relax ();
      (match on_retry with None -> () | Some f -> f round);
      go (round + 1)
    end
    else false
  in
  go 0

exception Version_space_exhausted

(* Build the full Tary/Bary images up front so every parameter error is
   raised before the first slot write: an [invalid_arg] never leaves the
   tables half-rewritten. *)
let build_images t ~version ~tary ~bary =
  let base = Tables.code_base t and size = Tables.code_size t in
  let slots = size / 4 in
  let new_tary = Array.make slots Id.invalid in
  List.iter
    (fun (addr, ecn) ->
      let off = addr - base in
      if off < 0 || off >= size || off mod 4 <> 0 then
        invalid_arg
          (Printf.sprintf "Tx.update: bad Tary target address 0x%x" addr);
      new_tary.(off / 4) <- Id.pack ~ecn ~version)
    tary;
  let new_bary = Array.make (Tables.bary_slots t) Id.invalid in
  List.iter
    (fun (idx, ecn) ->
      if idx < 0 || idx >= Array.length new_bary then
        invalid_arg (Printf.sprintf "Tx.update: bad Bary slot %d" idx);
      new_bary.(idx) <- Id.pack ~ecn ~version)
    bary;
  (new_tary, new_bary)

(* Publish a pre-validated image pair; caller holds the update lock.
   [faults] gates the injection hooks — a journal redo runs with them off
   so recovery cannot re-fail at the point that killed the original. *)
let install_locked ~faults ~got_update t ~version ~new_tary ~new_bary =
  let shard = Tables.shard t in
  Tables.seq_enter t;
  Tables.set_version t version;
  let base = Tables.code_base t in
  (* Phase 1: publish the new Tary image slot by slot (each publish is an
     atomic, sequentially consistent write — the movnti-with-barrier
     analog). *)
  Array.iteri
    (fun k id ->
      if faults then Faults.hit ~shard Faults.Plan.Nth_tary_write;
      Tables.tary_set t (base + (4 * k)) id)
    new_tary;
  (* the write barrier between the two phases (paper Fig. 3 line 5) *)
  Tables.publish t;
  if faults then Faults.hit ~shard Faults.Plan.Between_tary_and_bary;
  got_update ();
  (* Phase 2: publish the new Bary table. *)
  Array.iteri (fun idx id -> Tables.bary_set t idx id) new_bary;
  Tables.publish t;
  Tables.seq_exit t;
  (* the install is complete: snapshot reader epochs, so quiescence can
     later be declared once every checker has moved past this point *)
  Tables.observe_readers t

(* Validate and pack a delta's writes up front (failure atomicity, as
   [build_images]): rewrites at [version], carries at their recorded
   class version. *)
let build_delta_writes t ~version ~tary ~bary ~tary_carry ~bary_carry =
  let base = Tables.code_base t and size = Tables.code_size t in
  let check_addr addr =
    let off = addr - base in
    if off < 0 || off >= size || off mod 4 <> 0 then
      invalid_arg
        (Printf.sprintf "Tx.update_delta: bad Tary target address 0x%x" addr)
  in
  let check_slot idx =
    if idx < 0 || idx >= Tables.bary_slots t then
      invalid_arg (Printf.sprintf "Tx.update_delta: bad Bary slot %d" idx)
  in
  let check_version v =
    if v < 0 || v >= Id.max_version then
      invalid_arg (Printf.sprintf "Tx.update_delta: bad carried version %d" v)
  in
  let tary_writes =
    List.map
      (fun (addr, ecn) ->
        check_addr addr;
        (addr, Id.pack ~ecn ~version))
      tary
    @ List.map
        (fun (addr, ecn, v) ->
          check_addr addr;
          check_version v;
          (addr, Id.pack ~ecn ~version:v))
        tary_carry
  in
  let bary_writes =
    List.map
      (fun (idx, ecn) ->
        check_slot idx;
        (idx, Id.pack ~ecn ~version))
      bary
    @ List.map
        (fun (idx, ecn, v) ->
          check_slot idx;
          check_version v;
          (idx, Id.pack ~ecn ~version:v))
        bary_carry
  in
  (tary_writes, bary_writes)

(* Publish a pre-validated write list — the delta analog of
   [install_locked], same Tary-first / barrier / Bary order, same fault
   points; caller holds the update lock.  Slots not listed keep their
   current IDs (clean classes stay readable at their old version
   throughout). *)
let install_delta_locked ~faults ~got_update t ~version ~tary_writes
    ~bary_writes =
  let shard = Tables.shard t in
  Tables.seq_enter t;
  Tables.set_version t version;
  List.iter
    (fun (addr, id) ->
      if faults then Faults.hit ~shard Faults.Plan.Nth_tary_write;
      Tables.tary_set t addr id)
    tary_writes;
  Tables.publish t;
  if faults then Faults.hit ~shard Faults.Plan.Between_tary_and_bary;
  got_update ();
  List.iter (fun (idx, id) -> Tables.bary_set t idx id) bary_writes;
  Tables.publish t;
  Tables.seq_exit t;
  Tables.observe_readers t

(* Redo a predecessor's torn install from its journal; caller holds the
   update lock.  The journaled GOT hook is gone with its updater — GOT
   redo belongs to the loader's own journal (see Process.load). *)
let recover_locked t =
  match Tables.journal t with
  | None -> false
  | Some { Tables.j_version; j_body; j_tag } ->
    (match j_body with
    | Tables.Jfull { jf_tary; jf_bary } ->
      let new_tary, new_bary =
        build_images t ~version:j_version ~tary:jf_tary ~bary:jf_bary
      in
      install_locked ~faults:false
        ~got_update:(fun () -> ())
        t ~version:j_version ~new_tary ~new_bary
    | Tables.Jdelta { jd_tary; jd_bary; jd_tary_carry; jd_bary_carry } ->
      let tary_writes, bary_writes =
        build_delta_writes t ~version:j_version ~tary:jd_tary ~bary:jd_bary
          ~tary_carry:jd_tary_carry ~bary_carry:jd_bary_carry
      in
      install_delta_locked ~faults:false
        ~got_update:(fun () -> ())
        t ~version:j_version ~tary_writes ~bary_writes);
    Tables.set_journal t None;
    Faults.Stats.count_recovery ();
    Telemetry.emit Telemetry.Event.Update_recover ~a:j_version ~b:j_tag ~c:0
      ~x:(Telemetry.Event.make_ctx ~shard:(Tables.shard t) ());
    Tables.notify_complete t ~version:j_version ~tag:j_tag;
    true

let recover t = Tables.with_update_lock t (fun () -> recover_locked t)

(* ---- failure-context capture (flight recorder) ----

   Gated on the recorder alone, never on [Telemetry.enabled]: the black
   box is the thing that must still have answers when sampling was off.
   Only failing outcomes reach here, so the pass path pays nothing; an
   over-cap trigger costs two atomic loads ([trigger_armed]) before any
   string or JSON is built.  Each occurrence is one ring event: a check
   whose sampled outcome event [check_end] already wrote ([traced]) is
   not noted again. *)

module Json = Mcfi_util.Json

let id_json id =
  if Id.valid id then
    Json.Obj
      [
        ("word", Json.num id);
        ("ecn", Json.num (Id.ecn id));
        ("ecn_class", Json.Str (Obs.Flightrec.ecn_name (Id.ecn id)));
        ("version", Json.num (Id.version id));
      ]
  else Json.Obj [ ("word", Json.num id); ("valid", Json.Bool false) ]

let site_json t ~bary_index ~target ~retries =
  let bid = Tables.bary_read t bary_index in
  let tid = Tables.tary_read t target in
  Json.Obj
    [
      ("slot", Json.num bary_index);
      ("target", Json.num target);
      ("bary_id", id_json bid);
      ("tary_id", id_json tid);
      ("retries", Json.num retries);
    ]

let capture_failure ?(traced = false) t ~bary_index ~target ~outcome
    ~retries =
  let shard = Tables.shard t in
  let kind, tr =
    match outcome with
    | Retries_exhausted ->
      (Telemetry.Event.Check_exhausted, Obs.Flightrec.Tx_escalation)
    | _ -> (Telemetry.Event.Check_violation, Obs.Flightrec.Failed_check)
  in
  if not traced then
    Obs.Flightrec.note
      ~x:(Telemetry.Event.make_ctx ~shard ())
      kind ~a:bary_index ~b:target ~c:retries;
  if Obs.Flightrec.trigger_armed tr then begin
    let reason =
      Fmt.str "%a at slot %d target 0x%x (shard %d, %d retries)" pp_outcome
        outcome bary_index target shard retries
    in
    ignore
      (Obs.Flightrec.record_trigger tr ~reason
         ~extra:
           [
             ("site", site_json t ~bary_index ~target ~retries);
             ("shard", Tables.state_json t);
           ]
         ())
  end

let capture_watchdog t ~bary_index ~target ~rounds =
  let shard = Tables.shard t in
  (* [a] is the table version the skew was observed against: the
     install responsible published its Update_begin for this (or a
     later) version at a smaller sequence number, which is what makes
     the fire attributable from the merged trace. *)
  Obs.Flightrec.event Telemetry.Event.Watchdog_fire
    ~x:(Telemetry.Event.make_ctx ~shard ())
    ~a:(Tables.version t) ~b:bary_index ~c:rounds;
  if Obs.Flightrec.trigger_armed Obs.Flightrec.Watchdog then begin
    let reason =
      Fmt.str "watchdog fired after %d rounds at slot %d (shard %d)" rounds
        bary_index shard
    in
    ignore
      (Obs.Flightrec.record_trigger Obs.Flightrec.Watchdog ~reason
         ~extra:
           [
             ("site", site_json t ~bary_index ~target ~retries:rounds);
             ("shard", Tables.state_json t);
           ]
         ())
  end

(* ---- the check transaction ----

   One attempt decides [A_pass] on bit-identical IDs and [A_violation]
   on an invalid target or an ECN mismatch at equal versions; version
   skew ([A_skew]) means an install is (or was) in flight and the
   attempt is retried.  No snapshot validation: the ID encoding
   arbitrates.  [check] is the retry engine around it — budget,
   watchdog, escalation ladder and every probe. *)

type attempt = A_pass | A_violation | A_skew

let attempt t ~bary_index ~target =
  let bid = Tables.bary_read t bary_index in
  let tid = Tables.tary_read t target in
  if bid = tid then A_pass
  else if not (Id.valid tid) then A_violation
  else if not (Id.same_version bid tid) then A_skew
  else A_violation

let check ?max_retries ?(escalation = Fail_check) ?watchdog ?jitter
    ?(on_retry = fun () -> ()) t ~bary_index ~target =
  let ctx = Telemetry.check_begin () in
  match attempt t ~bary_index ~target with
  | A_pass when not (Telemetry.ctx_active ctx) ->
    (* the common case, a pass with no exit work, allocates nothing *)
    Pass
  | first ->
    let telemetry_on = ctx <> 0 in
    let xw () = Telemetry.Event.make_ctx ~shard:(Tables.shard t) () in
    let nretries = ref 0 in
    let rec go ~recovered budget round = function
      | A_pass -> Pass
      | A_violation -> Violation
      | A_skew -> begin
        match budget with
        | Some 0 -> escalate escalation ~recovered
        | _ -> begin
          match watchdog with
          | Some w when round >= w.wd_deadline ->
            (* the skew outlived the deadline: the update-lock holder is
               stalled, or a dead updater left the tables torn *)
            Faults.Stats.count_watchdog ();
            if telemetry_on then
            Telemetry.Metrics.observe m_watchdog_wait round;
            capture_watchdog t ~bary_index ~target ~rounds:round;
            escalate w.wd_on_expire ~recovered
          | _ ->
            retry round;
            go ~recovered
              (Option.map (fun n -> n - 1) budget)
              (round + 1)
              (attempt t ~bary_index ~target)
        end
      end
    and retry round =
      Faults.Stats.count_retry ();
      (* counted unconditionally: a forensic bundle reports the retry
         ladder even when telemetry sampling was off *)
      incr nretries;
      if telemetry_on then begin
        (* A sampled check traces its whole retry loop; unsampled checks
           only tally.  During an install every checker retries at once, so
           an unconditional per-retry event would contend the global trace
           sequence across domains. *)
        if Telemetry.ctx_sampled ctx then
          Telemetry.emit Telemetry.Event.Check_retry ~a:bary_index ~b:target
            ~c:round ~x:(xw ())
      end;
      on_retry ();
      backoff ?jitter round
    and escalate esc ~recovered =
      match esc with
      | Fail_check ->
        Faults.Stats.count_failed_check ();
        Retries_exhausted
      | Halt_process ->
        Faults.Stats.count_halt ();
        Violation
      | Wait_for_updater ->
        if recovered then begin
          (* waited once already and the skew persists: give up *)
          Faults.Stats.count_failed_check ();
          Retries_exhausted
        end
        else begin
          (* Taking the update lock waits out a live updater; a dead one
             left its journal, which the redo completes.  Either way the
             skew is resolved — re-attempt once with a fresh budget. *)
          Faults.Stats.count_wait ();
          ignore (recover t);
          go ~recovered:true max_retries 0 (attempt t ~bary_index ~target)
        end
    in
    let outcome = go ~recovered:false max_retries 0 first in
    (* Only a sampled or detail-mode check has exit work; the common
       enabled check ends on this single inlined bit test.  Per-check
       events or shared counters here would make every checker domain
       fight over the same cache lines, which measures as tens of percent
       of check throughput — rare structural events (watchdog fires,
       update lifecycle, faults) are the only always-on emissions. *)
    if Telemetry.ctx_active ctx then begin
      let code =
        match outcome with Pass -> 0 | Violation -> 1 | Retries_exhausted -> 2
      in
      Telemetry.check_end ctx ~outcome:code ~slot:bary_index ~target
        ~retries:!nretries ~x:(xw ())
    end;
    (match outcome with
    | Pass -> ()
    | (Violation | Retries_exhausted) as o ->
      if Obs.Flightrec.recording () then
        capture_failure ~traced:(Telemetry.ctx_sampled ctx) t ~bary_index
          ~target ~outcome:o ~retries:!nretries);
    outcome

(* ---- version-hoisted check sites (TML-style read hoisting) ----

   A branch site that keeps transferring to the same target re-reads two
   table slots per check only to recompute an answer the tables have not
   changed since.  The hoisted site caches the (branch ID, target ID)
   pair together with the install sequence word it was read under and
   re-validates on that word alone: every install-like mutation
   (updates, journal redo, loader rollback) makes the word odd before
   its first slot write and advances it to a fresh even value after the
   final barrier, so an unchanged even word proves the slot arrays are
   bit-identical to the fill instant and replaying the cached pair is
   linearizable to both loads happening now.  A moved (or odd) word
   falls back to the full transaction and refills.  Only settled states
   are cached — a version-skewed pair observed mid-install is never
   replayed, so the retry/escalation ladder stays entirely on the full
   path. *)

type site = {
  mutable s_seq : int;  (** even sequence word the cache was filled under *)
  mutable s_target : int;
  mutable s_bid : Id.t;
  mutable s_tid : Id.t;
  mutable s_hits : int;
  mutable s_misses : int;
}

let site () =
  {
    s_seq = -1;
    s_target = min_int;
    s_bid = Id.invalid;
    s_tid = Id.invalid;
    s_hits = 0;
    s_misses = 0;
  }

let site_stats s = (s.s_hits, s.s_misses)

(* A settled pair decides the check without retrying: equal IDs (pass),
   an invalid target, or an ECN mismatch at equal versions (violation).
   The remaining state — valid IDs at different versions — means an
   install was in flight and must never be cached. *)
let settled ~bid ~tid =
  bid = tid || (not (Id.valid tid)) || Id.same_version bid tid

let refill t site ~bary_index ~target =
  let s0 = Tables.seq_read t in
  if s0 land 1 = 0 then begin
    let bid = Tables.bary_read t bary_index in
    let tid = Tables.tary_read t target in
    if Tables.seq_read t = s0 && settled ~bid ~tid then begin
      site.s_seq <- s0;
      site.s_target <- target;
      site.s_bid <- bid;
      site.s_tid <- tid
    end
  end

let check_hoisted ?max_retries ?escalation ?watchdog ?jitter ?on_retry t site
    ~bary_index ~target =
  let s = Tables.seq_read t in
  if s land 1 = 0 && s = site.s_seq && target = site.s_target then begin
    site.s_hits <- site.s_hits + 1;
    Telemetry.fast_check ();
    if site.s_bid = site.s_tid then Pass
    else begin
      (* a cached violation is still a violation: the black box must
         account for it even though the full transaction never ran *)
      if Obs.Flightrec.recording () then
        capture_failure t ~bary_index ~target ~outcome:Violation ~retries:0;
      Violation
    end
  end
  else begin
    site.s_misses <- site.s_misses + 1;
    let outcome =
      check ?max_retries ?escalation ?watchdog ?jitter ?on_retry t ~bary_index
        ~target
    in
    refill t site ~bary_index ~target;
    outcome
  end

(* The hard ABA wall: at [Id.max_version - 1] updates with no declared
   quiescence the next update could wrap the version space under a
   still-running check.  With registered readers, wait (bounded) for each
   of them to cross a branch boundary — busy checkers advance within a
   few backoff rounds; with no readers there can be no evidence, so
   refuse immediately, exactly as before the epoch machinery existed. *)
let quiesce_wall_rounds = 10_000

let ensure_version_budget t =
  if Tables.updates_since_quiesce t > 0 then ignore (Tables.try_quiesce t);
  if Tables.updates_since_quiesce t >= Id.max_version - 1 then begin
    if Tables.registered_readers t > 0 then begin
      let rec wait round =
        if round >= quiesce_wall_rounds then raise Version_space_exhausted
        else if not (Tables.try_quiesce t) then begin
          backoff round;
          wait (round + 1)
        end
      in
      wait 0
    end
    else raise Version_space_exhausted
  end

(* The body of an update transaction; caller holds the update lock. *)
let update_locked ?(tag = -1) ~got_update t ~tary ~bary =
  (* a torn predecessor must be redone before its tables are built on *)
  ignore (recover_locked t);
  (* The ABA guard (paper §5.2): 2^14 updates with no intervening
     quiescence point could wrap the version space during a still-running
     check transaction; refuse rather than risk it. *)
  ensure_version_budget t;
  Tables.count_update t;
  let version = (Tables.version t + 1) mod Id.max_version in
  let new_tary, new_bary = build_images t ~version ~tary ~bary in
  (* Journal the intent: from here until the final barrier, a death leaves
     enough state for the next lock holder to redo the install. *)
  Tables.set_journal t
    (Some
       {
         Tables.j_version = version;
         j_body = Tables.Jfull { jf_tary = tary; jf_bary = bary };
         j_tag = tag;
       });
  Tables.notify_begin t ~version ~tag;
  let t_install = if Telemetry.enabled () then Telemetry.now_ns () else 0 in
  install_locked ~faults:true ~got_update t ~version ~new_tary ~new_bary;
  if t_install > 0 then
    Telemetry.Metrics.observe m_install_ns (Telemetry.now_ns () - t_install);
  Tables.set_journal t None;
  Tables.notify_complete t ~version ~tag;
  version

let update ?tag ?(got_update = fun () -> ()) t ~tary ~bary =
  Tables.with_update_lock t (fun () -> update_locked ?tag ~got_update t ~tary ~bary)

type carry_source = From_tary of int | From_bary of int

(* Read the donor's live ID and keep its version for the new slot.
   Resolved under the update lock, after a torn predecessor has been
   redone — anything earlier could capture a version a concurrent
   refresh or a journal redo is about to replace.  The donor must still
   carry the class's ECN: a mismatch means the caller's delta was
   computed against tables that have since changed shape. *)
let resolve_carry t (key, ecn, src) =
  let donor_id =
    match src with
    | From_tary addr -> Tables.tary_read t addr
    | From_bary idx -> Tables.bary_read t idx
  in
  if (not (Id.valid donor_id)) || Id.ecn donor_id <> ecn then
    invalid_arg
      (Printf.sprintf "Tx.update_delta: carry donor does not hold ECN %d" ecn);
  (key, ecn, Id.version donor_id)

(* The delta update transaction: same skeleton as [update_locked] —
   recover a torn predecessor, respect the ABA budget, bump the version,
   journal the intent, install with the same phase order — but only the
   listed slots are written.  Rewrites get the new version; carry
   entries join an existing class at its current version, so the rest
   of that class (and every untouched class) is never version-skewed
   and concurrent checks on it do not retry during the install. *)
let update_delta_locked ?(tag = -1) ~got_update ~pre_install t ~tary ~bary
    ~tary_carry ~bary_carry =
  ignore (recover_locked t);
  ensure_version_budget t;
  Tables.count_update t;
  let version = (Tables.version t + 1) mod Id.max_version in
  let tary_carry = List.map (resolve_carry t) tary_carry in
  let bary_carry = List.map (resolve_carry t) bary_carry in
  let tary_writes, bary_writes =
    build_delta_writes t ~version ~tary ~bary ~tary_carry ~bary_carry
  in
  pre_install ();
  Tables.set_journal t
    (Some
       {
         Tables.j_version = version;
         j_body =
           Tables.Jdelta
             {
               jd_tary = tary;
               jd_bary = bary;
               jd_tary_carry = tary_carry;
               jd_bary_carry = bary_carry;
             };
         j_tag = tag;
       });
  Tables.notify_begin t ~version ~tag;
  let t_install = if Telemetry.enabled () then Telemetry.now_ns () else 0 in
  install_delta_locked ~faults:true ~got_update t ~version ~tary_writes
    ~bary_writes;
  if t_install > 0 then begin
    Telemetry.Metrics.observe m_install_ns (Telemetry.now_ns () - t_install);
    Telemetry.Metrics.observe m_delta_writes
      (List.length tary_writes + List.length bary_writes)
  end;
  Tables.set_journal t None;
  Tables.notify_complete t ~version ~tag;
  version

let update_delta ?tag ?(got_update = fun () -> ())
    ?(pre_install = fun () -> ()) t ~tary ~bary ~tary_carry ~bary_carry =
  Tables.with_update_lock t (fun () ->
      update_delta_locked ?tag ~got_update ~pre_install t ~tary ~bary
        ~tary_carry ~bary_carry)

let refresh t =
  Tables.with_update_lock t (fun () ->
      (* Snapshot under the lock so concurrent refreshes serialize. *)
      let tary =
        List.map (fun (addr, id) -> (addr, Id.ecn id)) (Tables.tary_entries t)
      in
      let bary =
        List.map (fun (idx, id) -> (idx, Id.ecn id)) (Tables.bary_entries t)
      in
      update_locked ~got_update:(fun () -> ()) t ~tary ~bary)

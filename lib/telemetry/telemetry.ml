(* Domain-safe observability for the MCFI runtime.

   Four pieces, all process-global:

   - per-domain event rings: fixed-size event records written by the
     owning domain with plain array stores and published with one atomic
     store of the ring's write cursor.  Two writers share them.  [emit]
     (the sampled trace) stamps each event with a fetch-and-add on a
     global sequence counter, so draining all rings and sorting by stamp
     yields one merged, causally ordered trace (OCaml atomics are
     sequentially consistent: if event A's effects were visible to the
     domain that emitted B, then seq(A) < seq(B)).  [note] (the flight
     recorder's breadcrumbs) only reads the counter: no shared
     read-modify-write on the always-on path.  A forensic bundle is a
     capture over the same rings ([tail]), ordered by each ring's
     publish ordinal.

   - a per-domain tally slab: exact check-outcome counts (from
     [check_end] in detail mode, or from a harness's [bump]) plus the
     fast-path tallies, plain stores into per-domain strides.

   - a metrics registry: named monotonic counters and log2-bucketed
     histograms, all [Atomic] cells, safe to bump from any domain.

   - exporters: a Prometheus text exposition, a JSON document, and a
     human-readable stats report.

   The trace hooks are gated on [enabled]: a disabled hook is one atomic
   load and no allocation, so the hooks can live permanently inside the
   check/update transactions without a measurable tax.  [note] and
   [bump] are ungated here; their caller gates them on the flight
   recorder's own switch. *)

(* ---- the gates ---- *)

(* The three gate words are read on every check by every checker domain,
   and [sample_request] is also written by updater-side emits.  Module
   initialization allocates them back to back, which lands all three on
   one cache line: a single [sample_request] store then invalidates the
   line holding [enabled_flag] for every checker — measured at ~10% of
   multi-domain check throughput (BENCH_7).  The retained pad arrays
   keep each gate on its own line; they are module fields, so they stay
   live and the spacing survives promotion out of the minor heap. *)

let enabled_flag = Atomic.make false
let _pad_gate0 = Array.make 15 0

(* Detail mode: exact per-check outcome tallies and wheel-based 1-in-64
   sampling.  Costs a [Domain.self] plus slab stores on every check
   (~10-15 ns), which is real money against a ~20 ns check — tests and
   deep debugging turn it on; the production default samples via
   [sample_request] below at ~1 ns per check. *)
let detail_flag = Atomic.make false
let _pad_gate1 = Array.make 15 0

(* The default-mode sampling trigger: rare structural events (installs,
   watchdog fires, faults, spans) arm this flag and the next check to
   see it claims it, tracing itself fully.  Checks only ever read it
   (one load of a read-mostly line) unless it is armed, so the hot path
   pays nothing measurable.  A time-gated re-arm at the claim keeps a
   chain alive when checks are infrequent (< ~10 kHz) without letting
   it storm a busy checker. *)
let sample_request = Atomic.make false
let _pad_gate2 = Array.make 15 0

let enabled () = Atomic.get enabled_flag

let enable () =
  Atomic.set enabled_flag true;
  Atomic.set sample_request true

let disable () = Atomic.set enabled_flag false
let set_detail b = Atomic.set detail_flag b
let detail () = Atomic.get detail_flag

(* Arming is read-before-write: while the trigger is already armed —
   the steady state under an install storm, where every update emits
   two lifecycle events — re-arming would dirty the line every checker
   polls.  The read hits a shared (read-only) copy instead. *)
let arm_sample () =
  if not (Atomic.get sample_request) then Atomic.set sample_request true

let request_sample () = if Atomic.get enabled_flag then arm_sample ()

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* ---- event taxonomy ---- *)

module Event = struct
  type kind =
    | Check_pass
    | Check_violation
    | Check_exhausted
    | Check_retry
    | Watchdog_fire
    | Update_begin
    | Update_commit
    | Update_recover
    | Update_rollback
    | Span_begin
    | Span_end
    | Fault_injected
    | Tenant_state
    | Tenant_restart
    | Install_shed

  let kind_code = function
    | Check_pass -> 0
    | Check_violation -> 1
    | Check_exhausted -> 2
    | Check_retry -> 3
    | Watchdog_fire -> 4
    | Update_begin -> 5
    | Update_commit -> 6
    | Update_recover -> 7
    | Update_rollback -> 8
    | Span_begin -> 9
    | Span_end -> 10
    | Fault_injected -> 11
    | Tenant_state -> 12
    | Tenant_restart -> 13
    | Install_shed -> 14

  (* indexed by [kind_code] *)
  let kinds =
    [| Check_pass; Check_violation; Check_exhausted; Check_retry;
       Watchdog_fire; Update_begin; Update_commit; Update_recover;
       Update_rollback; Span_begin; Span_end; Fault_injected; Tenant_state;
       Tenant_restart; Install_shed |]

  let kind_of_code n =
    if n < 0 || n >= Array.length kinds then
      invalid_arg (Printf.sprintf "Telemetry.Event.kind_of_code %d" n);
    kinds.(n)

  let kind_name = function
    | Check_pass -> "check-pass"
    | Check_violation -> "check-violation"
    | Check_exhausted -> "check-exhausted"
    | Check_retry -> "check-retry"
    | Watchdog_fire -> "watchdog-fire"
    | Update_begin -> "update-begin"
    | Update_commit -> "update-commit"
    | Update_recover -> "update-recover"
    | Update_rollback -> "update-rollback"
    | Span_begin -> "span-begin"
    | Span_end -> "span-end"
    | Fault_injected -> "fault-injected"
    | Tenant_state -> "tenant-state"
    | Tenant_restart -> "tenant-restart"
    | Install_shed -> "install-shed"

  (* install-span phases of the dynamic-linking protocol, in the order
     they run; [a] of a span event is one of these codes *)
  let phase_extract = 0
  let phase_merge = 1
  let phase_journal = 2
  let phase_table_write = 3
  let phase_oracle = 4
  let phase_load = 5

  let phase_name = function
    | 0 -> "extract"
    | 1 -> "merge"
    | 2 -> "journal"
    | 3 -> "table-write"
    | 4 -> "oracle"
    | 5 -> "load"
    | n -> Printf.sprintf "phase-%d" n

  (* ---- the context word ----

     [emit] stores the kind code in the low 4 bits of the ring's kind
     word; the bits above were dead weight until sharded torture runs
     made merged traces ambiguous (which shard did this check hit? which
     engine ran it?).  The context word [x] packs into those upper bits:

       bits 0-8   shard id + 1        (0 = unknown)
       bits 9-10  dispatch engine     (0 unknown, 1 byte, 2 threaded)
       bits 11-27 alert id + 1        (0 = none; SLO-driven breaker trips)

     All three are optional; an all-zero word renders nothing, so
     un-contextualized emitters read exactly as before. *)

  let dispatch_byte = 1
  let dispatch_threaded = 2

  let dispatch_ctx_name = function
    | 1 -> "byte"
    | 2 -> "threaded"
    | _ -> "?"

  let make_ctx ?shard ?dispatch ?alert () =
    (match shard with Some s -> (s land 0xff) + 1 | None -> 0)
    lor (match dispatch with Some d -> (d land 3) lsl 9 | None -> 0)
    lor (match alert with Some a -> ((a land 0xffff) + 1) lsl 11 | None -> 0)

  let ctx_shard x = (x land 0x1ff) - 1
  let ctx_dispatch x = (x lsr 9) land 3
  let ctx_alert x = ((x lsr 11) land 0x1ffff) - 1

  let pp_ctx ppf x =
    if x <> 0 then begin
      let s = ctx_shard x and d = ctx_dispatch x and al = ctx_alert x in
      let parts =
        (if s >= 0 then [ Printf.sprintf "shard=%d" s ] else [])
        @ (if d <> 0 then [ "dispatch=" ^ dispatch_ctx_name d ] else [])
        @ if al >= 0 then [ Printf.sprintf "alert=%d" al ] else []
      in
      if parts <> [] then Fmt.pf ppf " [%s]" (String.concat " " parts)
    end

  type t = {
    seq : int;
    ord : int; (* the ring's publish ordinal *)
    domain : int;
    kind : kind;
    a : int;
    b : int;
    c : int;
    x : int;  (* context word; 0 = no context *)
  }

  let pp ppf e =
    let head () = Fmt.pf ppf "#%-8d d%-2d " e.seq e.domain in
    head ();
    (match e.kind with
    | Check_pass | Check_violation | Check_exhausted ->
      Fmt.pf ppf "%-16s slot=%d target=0x%x retries=%d" (kind_name e.kind)
        e.a e.b e.c
    | Check_retry ->
      Fmt.pf ppf "%-16s slot=%d target=0x%x round=%d" (kind_name e.kind) e.a
        e.b e.c
    | Watchdog_fire ->
      Fmt.pf ppf "%-16s version=%d slot=%d rounds=%d" (kind_name e.kind) e.a
        e.b e.c
    | Update_begin | Update_commit | Update_recover ->
      Fmt.pf ppf "%-16s version=%d tag=%d" (kind_name e.kind) e.a e.b
    | Update_rollback ->
      Fmt.pf ppf "%-16s loads=%d" (kind_name e.kind) e.a
    | Span_begin -> Fmt.pf ppf "%-16s %s load=%d" (kind_name e.kind)
        (phase_name e.a) e.b
    | Span_end ->
      Fmt.pf ppf "%-16s %s load=%d ns=%d" (kind_name e.kind) (phase_name e.a)
        e.b e.c
    | Fault_injected ->
      Fmt.pf ppf "%-16s point=%d" (kind_name e.kind) e.a
    | Tenant_state ->
      Fmt.pf ppf "%-16s tenant=%d to=%d from=%d" (kind_name e.kind) e.a e.b
        e.c
    | Tenant_restart ->
      Fmt.pf ppf "%-16s tenant=%d attempt=%d delay=%d" (kind_name e.kind) e.a
        e.b e.c
    | Install_shed ->
      Fmt.pf ppf "%-16s tenant=%d queue=%d retry-after=%d" (kind_name e.kind)
        e.a e.b e.c);
    pp_ctx ppf e.x
end

(* ---- per-domain event rings ---- *)

(* Single-writer ring.  The writer stores the six event words with plain
   writes and then publishes with an atomic store of [published] (a
   release point: a drainer that reads [published] >= n sees event n-1's
   words).  The only racy slot is the one a writer may currently be
   overwriting; the drain protocol discards it (see [drain_ring]).
   Events are laid out record-major, [event_words] apart, so a write
   dirties one or two cache lines rather than one per word: the
   always-on breadcrumb path cycles through the whole ring. *)
type ring = {
  r_cap : int;
  r_words : int array;
      (* event i at [i * event_words]: domain, seq, kind code in bits 0-3
         with the context word above, a, b, c *)
  r_published : int Atomic.t; (* events ever written to this ring *)
}

let event_words = 8

(* The always-on breadcrumb path cycles through the whole ring of every
   checker domain that sees violations, and each freshly spawned domain
   mints one: a larger default measurably slowed recorder-on check
   throughput (the [obs] bench section), a smaller one would let an
   install storm overwrite the begin of a span before its commit. *)
let default_capacity = 1024
let capacity = Atomic.make default_capacity

let set_ring_capacity n =
  if n < 8 then invalid_arg "Telemetry.set_ring_capacity: capacity < 8";
  Atomic.set capacity n

let global_seq = Atomic.make 0

(* Rings live in a fixed pool indexed by domain id modulo the pool size,
   not in domain-local storage.  Short-lived domains (the stress harness
   spawns fresh checker/updater domains per scenario) would otherwise
   mint and abandon megabytes of arrays per run, and that GC debt lands
   inside the measured window — it cost 20% of check throughput before
   the pool.  A freshly spawned domain adopts the slot of a dead
   predecessor and keeps appending, so the predecessor's tail events stay
   drainable and nothing is re-allocated; the per-event [r_dom] word
   keeps attribution exact across adoptions.  Two *live* domains whose
   ids collide modulo the pool size would garble each other's slots —
   like the tally slab we accept that for a diagnostics path, since ids
   are handed out contiguously and it takes [ring_slots] concurrent
   domains to collide. *)
let ring_slots = 64

let pool : ring option Atomic.t array =
  Array.init ring_slots (fun _ -> Atomic.make None)

let make_ring () =
  let cap = Atomic.get capacity in
  {
    r_cap = cap;
    r_words = Array.make (cap * event_words) 0;
    r_published = Atomic.make 0;
  }

let ring_for slot =
  match Atomic.get pool.(slot) with
  | Some r when r.r_cap = Atomic.get capacity -> r
  | _ ->
    let r = make_ring () in
    Atomic.set pool.(slot) (Some r);
    r

(* Append one event to the calling domain's ring. *)
let write ~seq ~x kind ~a ~b ~c =
  let d = (Domain.self () :> int) in
  let r = ring_for (d land (ring_slots - 1)) in
  let p = Atomic.get r.r_published in
  let w = r.r_words and j = p mod r.r_cap * event_words in
  w.(j) <- d;
  w.(j + 1) <- seq;
  w.(j + 2) <- Event.kind_code kind lor (x lsl 4);
  w.(j + 3) <- a;
  w.(j + 4) <- b;
  w.(j + 5) <- c;
  Atomic.set r.r_published (p + 1)

(* The breadcrumb path: a plain read of the sequence counter, so
   concurrent noters share no written cache line; the ring's publish
   ordinal is what orders a domain's breadcrumbs. *)
let note ~x kind ~a ~b ~c =
  write ~seq:(Atomic.get global_seq) ~x kind ~a ~b ~c

(* ---- hot-path per-domain scalar tallies ----

   The check transaction fires a telemetry hook on every single check,
   so this layer cannot afford a DLS lookup (~6 ns) per hook, let alone
   a shared atomic counter (cross-domain cache-line traffic).  The
   tallies live in one flat int array where each domain owns a padded
   [slab_stride]-slot stride indexed by its id; [check_begin] resolves
   the stride once per check and encodes it into the ctx it returns, so
   [check_end] pays no second lookup.  Domain ids past [slab_domains]
   wrap and share a stride: colliding increments are plain stores and
   may undercount, which a statistics path tolerates (trace events are
   unaffected).  Dead domains' tallies persist until [reset], exactly
   like their rings.  The exact check-outcome counts have two writers:
   [check_end] in detail mode, and otherwise a harness that resolves its
   stride once per slice ([tally]) and [bump]s it per check. *)

let slab_domains = 128
let slab_stride = 64 (* 512 B per domain: strides never share a line *)
let slab = Array.make (slab_domains * slab_stride) 0
let off_tick = 0
let off_t0 = 1 (* entry stamp (ns) of this domain's in-flight sampled check *)
let off_fast_checks = 2
let off_fast_retries = 3
let off_checks = 4
let off_passes = 5
let off_violations = 6
let off_exhausted = 7
let off_retries = 8

let slab_base () =
  ((Domain.self () :> int) land (slab_domains - 1)) * slab_stride

let slab_total off =
  let t = ref 0 in
  for d = 0 to slab_domains - 1 do
    t := !t + slab.((d * slab_stride) + off)
  done;
  !t

let tally_outcome b ~outcome ~retries =
  slab.(b + off_checks) <- slab.(b + off_checks) + 1;
  let o =
    if outcome = 0 then off_passes
    else if outcome = 1 then off_violations
    else off_exhausted
  in
  slab.(b + o) <- slab.(b + o) + 1;
  if retries > 0 then slab.(b + off_retries) <- slab.(b + off_retries) + retries

type tally = int

let tally = slab_base

(* In detail mode [check_end] already counts every check it closes. *)
let bump b ~outcome ~retries =
  if not (Atomic.get enabled_flag && Atomic.get detail_flag) then
    tally_outcome b ~outcome ~retries

let rewind () =
  Array.iter
    (fun slot ->
      match Atomic.get slot with
      | Some r -> Atomic.set r.r_published 0
      | None -> ())
    pool;
  Array.fill slab 0 (Array.length slab) 0

let reset () =
  rewind ();
  Atomic.set global_seq 0;
  if Atomic.get enabled_flag then Atomic.set sample_request true

(* ---- emit (the hot path) ---- *)

(* A process-wide default dispatch hint, folded into every emitted
   context word that does not already carry dispatch bits.  The harness
   that knows which engine a run uses (Machine.run, Stress.run,
   Fleet.run) sets it once; individual emitters never need to thread it
   through. *)
let dispatch_hint = Atomic.make 0

let set_dispatch_hint d = Atomic.set dispatch_hint ((d land 3) lsl 9)

let emit ?(x = 0) kind ~a ~b ~c =
  if Atomic.get enabled_flag then begin
    let x = if x land (3 lsl 9) = 0 then x lor Atomic.get dispatch_hint else x in
    write ~seq:(Atomic.fetch_and_add global_seq 1) ~x kind ~a ~b ~c;
    (* every structural event arms the default-mode check sampler: the
       moments around installs, fires and faults are exactly the checks
       worth tracing.  Check events themselves must not re-arm or a
       sampled check would chain into a storm of sampled checks. *)
    match kind with
    | Event.Check_pass | Event.Check_violation | Event.Check_exhausted
    | Event.Check_retry ->
      ()
    | _ -> arm_sample ()
  end

let fast_check () =
  if Atomic.get enabled_flag && Atomic.get detail_flag then begin
    let b = slab_base () in
    slab.(b + off_fast_checks) <- slab.(b + off_fast_checks) + 1
  end

let fast_retry () =
  if Atomic.get enabled_flag && Atomic.get detail_flag then begin
    let b = slab_base () in
    slab.(b + off_fast_retries) <- slab.(b + off_fast_retries) + 1
  end

(* Detail-mode sampling wheel: 1 check in [sample_interval] per domain
   gets a trace event, the latency clock reads and the histogram points;
   the rest only tally.  Per-check events would contend the global trace
   sequence across checker domains and the clock reads alone cost
   ~40 ns each. *)
let sample_interval = 64

(* Default-mode chain re-arm: a claimed sample re-arms the request when
   at least this much time passed since the previous arm, so sparse
   checkers (< ~10 kHz) keep a steady latency feed while busy checkers
   fall back to event-driven samples. *)
let rearm_interval_ns = 100_000

let last_arm = ref 0 (* plain: a lost race just skips one re-arm *)

(* ctx layout: 0 = disabled; else bit 0 set, bit 1 = this check is
   sampled, bit 2 = tally exact outcome counts (detail mode), and the
   caller's slab stride base in the bits above. *)
let check_begin () =
  if not (Atomic.get enabled_flag) then 0
  else if Atomic.get detail_flag then begin
    let b = slab_base () in
    let tick = slab.(b + off_tick) + 1 in
    slab.(b + off_tick) <- tick;
    if tick land (sample_interval - 1) = 0 then begin
      slab.(b + off_t0) <- now_ns ();
      (b lsl 3) lor 7
    end
    else (b lsl 3) lor 5
  end
  else if
    Atomic.get sample_request
    && Atomic.compare_and_set sample_request true false
  then begin
    let b = slab_base () in
    let t = now_ns () in
    slab.(b + off_t0) <- t;
    if t - !last_arm >= rearm_interval_ns then begin
      last_arm := t;
      Atomic.set sample_request true
    end;
    (b lsl 3) lor 3
  end
  else 1

let ctx_sampled ctx = ctx land 2 <> 0
let ctx_active ctx = ctx land 6 <> 0

(* ---- drain ---- *)

(* The last [n] events of one ring (at most its capacity); only that
   tail is read. *)
let drain_ring n r =
  let p1 = Atomic.get r.r_published in
  let lo = max 0 (p1 - min n r.r_cap) in
  let acc = ref [] in
  let w = r.r_words in
  for idx = p1 - 1 downto lo do
    let j = idx mod r.r_cap * event_words in
    let kw = w.(j + 2) in
    acc :=
      {
        Event.seq = w.(j + 1);
        ord = idx;
        domain = w.(j);
        kind = Event.kind_of_code (kw land 15);
        a = w.(j + 3);
        b = w.(j + 4);
        c = w.(j + 5);
        x = kw lsr 4;
      }
      :: !acc
  done;
  let events = !acc in
  (* Anything the writer may have been overwriting while we read is
     discarded: event [p2] (possibly mid-write, unpublished) occupies the
     slot of event [p2 - cap], so only indices strictly above that line
     are certainly intact. *)
  let p2 = Atomic.get r.r_published in
  let safe_from = p2 - r.r_cap + 1 in
  List.filteri (fun k _ -> lo + k >= safe_from) events

let live_rings () =
  Array.to_list pool |> List.filter_map Atomic.get

(* Stable: a note shares its stamp with the next emitted event, and its
   ring's order must survive the merge. *)
let drain () =
  let events = List.concat_map (drain_ring max_int) (live_rings ()) in
  List.stable_sort (fun a b -> compare a.Event.seq b.Event.seq) events

let tail n =
  List.concat_map (drain_ring n) (live_rings ())
  |> List.sort (fun a b ->
         compare (a.Event.domain, a.Event.ord) (b.Event.domain, b.Event.ord))

let events_emitted () =
  List.fold_left
    (fun acc r -> acc + Atomic.get r.r_published)
    0 (live_rings ())

let events_dropped () =
  List.fold_left
    (fun acc r -> acc + max 0 (Atomic.get r.r_published - r.r_cap + 1))
    0 (live_rings ())

let fast_totals () = (slab_total off_fast_checks, slab_total off_fast_retries)

type check_counts = {
  cc_checks : int;
  cc_passes : int;
  cc_violations : int;
  cc_exhausted : int;
  cc_retries : int;
}

let check_totals () =
  {
    cc_checks = slab_total off_checks;
    cc_passes = slab_total off_passes;
    cc_violations = slab_total off_violations;
    cc_exhausted = slab_total off_exhausted;
    cc_retries = slab_total off_retries;
  }

(* ---- metrics registry ---- *)

module Metrics = struct
  type counter = { c_name : string; c_cell : int Atomic.t }

  (* log2 buckets: bucket 0 counts v < 2; bucket i >= 1 counts
     2^i <= v < 2^(i+1).  62 buckets cover the whole positive int range. *)
  let buckets = 62

  type histogram = {
    h_name : string;
    h_buckets : int Atomic.t array;
    h_count : int Atomic.t;
    h_sum : int Atomic.t;
  }

  (* Registration is cold (module-init time); a mutex keeps find-or-create
     atomic.  The lists are read lock-free by the exporters. *)
  let lock = Mutex.create ()
  let counters : counter list Atomic.t = Atomic.make []
  let histograms : histogram list Atomic.t = Atomic.make []

  let counter name =
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        match
          List.find_opt (fun c -> c.c_name = name) (Atomic.get counters)
        with
        | Some c -> c
        | None ->
          let c = { c_name = name; c_cell = Atomic.make 0 } in
          Atomic.set counters (c :: Atomic.get counters);
          c)

  let histogram name =
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        match
          List.find_opt (fun h -> h.h_name = name) (Atomic.get histograms)
        with
        | Some h -> h
        | None ->
          let h =
            {
              h_name = name;
              h_buckets = Array.init buckets (fun _ -> Atomic.make 0);
              h_count = Atomic.make 0;
              h_sum = Atomic.make 0;
            }
          in
          Atomic.set histograms (h :: Atomic.get histograms);
          h)

  let incr c = if Atomic.get enabled_flag then Atomic.incr c.c_cell

  let add c n =
    if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_cell n)

  let counter_value c = Atomic.get c.c_cell

  let bucket_of v =
    if v < 2 then 0
    else begin
      let rec go i v = if v < 2 then i else go (i + 1) (v lsr 1) in
      go 0 v
    end

  (* inclusive upper bound of a bucket, the value a percentile reports *)
  let bucket_hi i = (1 lsl (i + 1)) - 1

  let observe h v =
    if Atomic.get enabled_flag then begin
      let v = max 0 v in
      Atomic.incr h.h_buckets.(min (buckets - 1) (bucket_of v));
      Atomic.incr h.h_count;
      ignore (Atomic.fetch_and_add h.h_sum v)
    end

  let bucket_counts h = Array.map Atomic.get h.h_buckets

  type summary = {
    s_count : int;
    s_sum : int;
    s_mean : float;
    s_p50 : int;
    s_p90 : int;
    s_p99 : int;
  }

  let percentile counts total p =
    let need = max 1 (int_of_float (ceil (p *. float_of_int total))) in
    let rec go i seen =
      if i >= Array.length counts then bucket_hi (Array.length counts - 1)
      else begin
        let seen = seen + counts.(i) in
        if seen >= need then bucket_hi i else go (i + 1) seen
      end
    in
    go 0 0

  let summary h =
    let counts = bucket_counts h in
    let count = Atomic.get h.h_count in
    let sum = Atomic.get h.h_sum in
    if count = 0 then
      { s_count = 0; s_sum = 0; s_mean = 0.0; s_p50 = 0; s_p90 = 0; s_p99 = 0 }
    else
      {
        s_count = count;
        s_sum = sum;
        s_mean = float_of_int sum /. float_of_int count;
        s_p50 = percentile counts count 0.50;
        s_p90 = percentile counts count 0.90;
        s_p99 = percentile counts count 0.99;
      }

  let reset () =
    List.iter (fun c -> Atomic.set c.c_cell 0) (Atomic.get counters);
    List.iter
      (fun h ->
        Array.iter (fun b -> Atomic.set b 0) h.h_buckets;
        Atomic.set h.h_count 0;
        Atomic.set h.h_sum 0)
      (Atomic.get histograms)

  let sorted_counters () =
    List.sort
      (fun a b -> compare a.c_name b.c_name)
      (Atomic.get counters)

  let sorted_histograms () =
    List.sort
      (fun a b -> compare a.h_name b.h_name)
      (Atomic.get histograms)
end

let reset () =
  reset ();
  Metrics.reset ()

(* The check-outcome histograms live here rather than in the transaction
   layer because [check_end] feeds them: the sampled exit point already
   knows the retries and holds the entry stamp, so routing the values
   back through the caller would just re-export the slab encoding. *)
let m_check_latency = Metrics.histogram "mcfi_check_latency_ns"
let m_check_retries = Metrics.histogram "mcfi_check_retries"

let check_end ?(x = 0) ctx ~outcome ~slot ~target ~retries =
  if ctx land 4 <> 0 then tally_outcome (ctx lsr 3) ~outcome ~retries;
  if ctx land 2 <> 0 then begin
    let b = ctx lsr 3 in
    let kind =
      if outcome = 0 then Event.Check_pass
      else if outcome = 1 then Event.Check_violation
      else Event.Check_exhausted
    in
    emit ~x kind ~a:slot ~b:target ~c:retries;
    Metrics.observe m_check_retries retries;
    Metrics.observe m_check_latency (now_ns () - slab.(b + off_t0))
  end

(* ---- exporters ---- *)

module Export = struct
  (* Zero-valued metrics are omitted: every instrumented subsystem
     registers its metrics at module-init time whether or not it runs,
     and an exposition full of zeros buries the signal. *)

  let live_counters () =
    List.filter
      (fun c -> Metrics.counter_value c > 0)
      (Metrics.sorted_counters ())

  let live_histograms () =
    List.filter
      (fun h -> Atomic.get h.Metrics.h_count > 0)
      (Metrics.sorted_histograms ())

  (* Registry counters, then the slab's totals as counters (a slab group
     that never fired is omitted too). *)
  let all_counters () =
    let fc, fr = fast_totals () in
    let ct = check_totals () in
    List.map
      (fun c -> (c.Metrics.c_name, Metrics.counter_value c))
      (live_counters ())
    @ (if fc > 0 then
         [
           ("mcfi_fast_checks_total", fc);
           ("mcfi_fast_check_retries_total", fr);
         ]
       else [])
    @
    if ct.cc_checks > 0 then
      [
        ("mcfi_checks_total", ct.cc_checks);
        ("mcfi_check_pass_total", ct.cc_passes);
        ("mcfi_check_violation_total", ct.cc_violations);
        ("mcfi_check_exhausted_total", ct.cc_exhausted);
        ("mcfi_check_retries_total", ct.cc_retries);
      ]
    else []

  let prometheus () =
    let b = Buffer.create 1024 in
    let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    List.iter
      (fun (name, v) -> p "# TYPE %s counter\n%s %d\n" name name v)
      (all_counters ());
    List.iter
      (fun h ->
        let counts = Metrics.bucket_counts h in
        let count = Atomic.get h.Metrics.h_count in
        let sum = Atomic.get h.Metrics.h_sum in
        let top = ref 0 in
        Array.iteri (fun i n -> if n > 0 then top := i) counts;
        p "# TYPE %s histogram\n" h.Metrics.h_name;
        let cum = ref 0 in
        for i = 0 to !top do
          cum := !cum + counts.(i);
          p "%s_bucket{le=\"%d\"} %d\n" h.Metrics.h_name (Metrics.bucket_hi i)
            !cum
        done;
        p "%s_bucket{le=\"+Inf\"} %d\n" h.Metrics.h_name count;
        p "%s_sum %d\n" h.Metrics.h_name sum;
        p "%s_count %d\n" h.Metrics.h_name count)
      (live_histograms ());
    Buffer.contents b

  let json () =
    let module J = Mcfi_util.Json in
    let obj kvs = J.Obj (List.map (fun (k, v) -> (k, J.num v)) kvs) in
    let fc, fr = fast_totals () in
    let ct = check_totals () in
    J.to_string
      (J.Obj
         [
           ( "counters",
             obj
               (List.map
                  (fun c -> (c.Metrics.c_name, Metrics.counter_value c))
                  (live_counters ())) );
           ( "histograms",
             J.Obj
               (List.map
                  (fun h ->
                    let s = Metrics.summary h in
                    ( h.Metrics.h_name,
                      J.Obj
                        [
                          ("count", J.num s.Metrics.s_count);
                          ("sum", J.num s.Metrics.s_sum);
                          ("mean", J.Num s.Metrics.s_mean);
                          ("p50", J.num s.Metrics.s_p50);
                          ("p90", J.num s.Metrics.s_p90);
                          ("p99", J.num s.Metrics.s_p99);
                        ] ))
                  (live_histograms ())) );
           ("fast", obj [ ("checks", fc); ("retries", fr) ]);
           ( "checks",
             obj
               [
                 ("total", ct.cc_checks);
                 ("pass", ct.cc_passes);
                 ("violation", ct.cc_violations);
                 ("exhausted", ct.cc_exhausted);
                 ("retries", ct.cc_retries);
               ] );
           ( "events",
             obj
               [ ("emitted", events_emitted ()); ("dropped", events_dropped ()) ]
           );
         ])

  let pp_stats ppf () =
    Fmt.pf ppf "@[<v>";
    let cs = all_counters () in
    if cs <> [] then begin
      Fmt.pf ppf "counters:@,";
      List.iter (fun (name, v) -> Fmt.pf ppf "  %-36s %12d@," name v) cs
    end;
    let hs = live_histograms () in
    if hs <> [] then begin
      Fmt.pf ppf "histograms (count / mean / p50 / p90 / p99):@,";
      List.iter
        (fun h ->
          let s = Metrics.summary h in
          Fmt.pf ppf "  %-36s %9d %12.1f %10d %10d %10d@," h.Metrics.h_name
            s.Metrics.s_count s.Metrics.s_mean s.Metrics.s_p50 s.Metrics.s_p90
            s.Metrics.s_p99)
        hs
    end;
    Fmt.pf ppf "trace: %d events emitted, %d dropped to ring wraparound@]"
      (events_emitted ()) (events_dropped ())
end

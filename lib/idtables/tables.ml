(* Table storage: plain int arrays, one word per slot.

   This mirrors the hardware the paper relies on: an aligned 4-byte read
   or write ([movl]/[movnti]) is atomic, and that is all the transaction
   protocol needs.  In OCaml 5 terms, immediate-valued array cells never
   tear, and racy reads simply return a current-or-stale value; the
   protocol is safe under that relaxed visibility because a check
   transaction only PASSES when the branch ID and target ID are
   bit-identical — any mixed-version view fails the comparison and
   retries (or halts on an invalid ID), never passes.  The [sync] atomic
   is bumped between the Tary and Bary phases and at the end of an update
   (the paper's write barrier): it publishes the plain writes to other
   domains at a well-defined point.

   Which fields are [Atomic] and why (the OCaml 5 memory-model audit):
   [version], [updates_since_quiesce] and [journal] are written by
   update-lock holders but read from other domains without the lock
   (checkers probing for a live update, the watchdog, the quiescence
   machinery), so their reads are load-bearing and must be publication
   points.  [code_size] stays a plain field: it only grows, under the
   loader (serialized with updates), and a checker reading a stale,
   smaller value classifies the target as out-of-range — [Id.invalid] —
   which fails closed.  The table slots themselves stay plain cells per
   the argument above. *)

(* A full-install journal carries the complete intended ECN maps; a
   delta journal carries only the slots the install writes — rewrites
   (packed at [j_version]) plus grow entries that join an existing class
   and carry its already-installed version.  Both are redone the same
   way: replay every listed write, Tary first. *)
type journal_body =
  | Jfull of {
      jf_tary : (int * int) list; (* target address -> ECN *)
      jf_bary : (int * int) list; (* branch slot -> ECN *)
    }
  | Jdelta of {
      jd_tary : (int * int) list; (* rewrites, packed at j_version *)
      jd_bary : (int * int) list;
      jd_tary_carry : (int * int * int) list; (* addr, ECN, carried version *)
      jd_bary_carry : (int * int * int) list; (* slot, ECN, carried version *)
    }

type journal = {
  j_version : int;
  j_body : journal_body;
  j_tag : int; (* caller's tag, reported to the observer on redo *)
}

(* One registered checker: a per-domain epoch counter for quiescence
   inference.  [rd_epoch] is bumped by the owning domain at branch
   boundaries (outside any check transaction); [rd_seen] is the epoch
   snapshot taken by the last completed install, written and read only
   under the update lock. *)
type reader = {
  rd_epoch : int Atomic.t;
  rd_online : bool Atomic.t;
  mutable rd_seen : int;
}

type observer = {
  obs_begin : version:int -> tag:int -> unit;
  obs_complete : version:int -> tag:int -> unit;
}

type t = {
  shard_id : int; (* which fault domain these tables are; 0 standalone *)
  code_base : int;
  capacity : int;
  mutable code_size : int;
  tary : int array; (* slot k covers code address base + 4k *)
  bary : int array;
  version : int Atomic.t;
  updates_since_quiesce : int Atomic.t;
  quiesce_events : int Atomic.t;
  sync : int Atomic.t;
  (* The install sequence word: odd exactly while slot writes are in
     flight, bumped to the next even value when they are published.  The
     check transaction itself does not need it (a check passes only on
     bit-identical IDs, so it needs no snapshot validation), but the
     hoisted check sites ([Tx.check_hoisted] and the threaded engine)
     revalidate their cached ID pair on it alone, so every install path
     maintains it — including journal redo and loader rollback.  A torn
     install leaves it odd; recovery forces it even. *)
  seq : int Atomic.t;
  update_lock : Mutex.t;
  update_busy : bool Atomic.t; (* diagnostic: is the lock held? *)
  readers : reader list Atomic.t;
  mutable observer : observer option; (* set before domains spawn *)
  (* The redo log of the in-flight update transaction: set (under the
     update lock) before the first slot write, cleared after the final
     barrier.  A non-[None] value outside the lock means the updater died
     mid-transaction; the next updater (or [Tx.recover]) redoes it. *)
  journal : journal option Atomic.t;
}

let round4 n = (n + 3) land lnot 3

let create ?(shard = 0) ?covered ~code_base ~capacity ~bary_slots () =
  let capacity = round4 (max capacity 4) in
  {
    shard_id = shard;
    code_base;
    capacity;
    code_size = round4 (min capacity (Option.value covered ~default:capacity));
    tary = Array.make (capacity / 4) Id.invalid;
    bary = Array.make (max bary_slots 1) Id.invalid;
    version = Atomic.make 0;
    updates_since_quiesce = Atomic.make 0;
    quiesce_events = Atomic.make 0;
    sync = Atomic.make 0;
    seq = Atomic.make 0;
    update_lock = Mutex.create ();
    update_busy = Atomic.make false;
    readers = Atomic.make [];
    observer = None;
    journal = Atomic.make None;
  }

let shard t = t.shard_id
let code_base t = t.code_base
let capacity t = t.capacity
let code_size t = t.code_size

let extend t bytes =
  let size = round4 (t.code_size + bytes) in
  if size > t.capacity then
    invalid_arg "Tables.extend: beyond reserved capacity";
  t.code_size <- size

let bary_slots t = Array.length t.bary

let version t = Atomic.get t.version
let set_version t v = Atomic.set t.version v

let updates_since_quiesce t = Atomic.get t.updates_since_quiesce

let quiesce t =
  Atomic.set t.updates_since_quiesce 0;
  Atomic.incr t.quiesce_events

let quiesce_events t = Atomic.get t.quiesce_events

let publish t = Atomic.incr t.sync

(* ---- install sequence word (hoisted check sites) ----

   [seq_enter] before the first slot write of any install-like mutation,
   [seq_exit] after its final barrier.  Enter is idempotent on an
   already-odd word (a journal redo re-entering a torn install keeps the
   same odd value — readers that sampled it still see a writer in
   flight); exit always lands on a {e new} even value, so a reader that
   sampled the pre-install even value detects movement. *)
let seq_read t = Atomic.get t.seq
let seq_enter t = Atomic.set t.seq (Atomic.get t.seq lor 1)
let seq_exit t = Atomic.set t.seq ((Atomic.get t.seq lor 1) + 1)

let with_update_lock t f =
  Mutex.lock t.update_lock;
  Atomic.set t.update_busy true;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.update_busy false;
      Mutex.unlock t.update_lock)
    f

let update_in_progress t = Atomic.get t.update_busy

(* ---- epoch-based quiescence (paper §5.2's ABA guard, made concurrent)

   The ABA hazard needs a check transaction that stays in flight across
   2^14 update transactions.  Instead of trusting a caller to declare
   quiescence, checker domains register an epoch counter and bump it at
   branch boundaries; each completed install snapshots every reader's
   epoch ([observe_readers]), and quiescence may be declared once every
   online reader has moved past its snapshot — then any check still in
   flight began after the last install completed, so the counter of
   wrap-hazard updates it spans restarts at zero. *)

let rec cas_readers t f =
  let old = Atomic.get t.readers in
  if not (Atomic.compare_and_set t.readers old (f old)) then cas_readers t f

let register_reader t =
  let r =
    (* [rd_seen <> epoch] from the start: a reader registered after the
       last install cannot have a check in flight that predates it *)
    { rd_epoch = Atomic.make 0; rd_online = Atomic.make true; rd_seen = -1 }
  in
  cas_readers t (fun rs -> r :: rs);
  r

let unregister_reader t r =
  Atomic.set r.rd_online false;
  cas_readers t (List.filter (fun r' -> r' != r))

let reader_quiescent r = Atomic.incr r.rd_epoch
let reader_epoch r = Atomic.get r.rd_epoch
let set_reader_online r b = Atomic.set r.rd_online b
let reader_online r = Atomic.get r.rd_online

let registered_readers t = List.length (Atomic.get t.readers)

(* Caller holds the update lock (install completion). *)
let observe_readers t =
  List.iter
    (fun r -> r.rd_seen <- Atomic.get r.rd_epoch)
    (Atomic.get t.readers)

(* Caller holds the update lock.  True iff quiescence is (now) declared:
   either nothing to declare, or every online reader crossed a branch
   boundary since the last completed install.  An empty registry is never
   evidence — someone may be checking without having registered. *)
let try_quiesce t =
  if Atomic.get t.updates_since_quiesce = 0 then true
  else begin
    match Atomic.get t.readers with
    | [] -> false
    | rs ->
      if
        List.for_all
          (fun r ->
            (not (Atomic.get r.rd_online))
            || Atomic.get r.rd_epoch <> r.rd_seen)
          rs
      then begin
        quiesce t;
        true
      end
      else false
  end

(* Non-blocking: used from checker-side quiescent points (e.g. the VM's
   syscall path) so a held update lock never stalls a checker. *)
let quiesce_attempt t =
  if Atomic.get t.updates_since_quiesce = 0 then true
  else if Mutex.try_lock t.update_lock then begin
    Atomic.set t.update_busy true;
    Fun.protect
      ~finally:(fun () ->
        Atomic.set t.update_busy false;
        Mutex.unlock t.update_lock)
      (fun () -> try_quiesce t)
  end
  else false

let count_update t = Atomic.incr t.updates_since_quiesce

(* ---- observer (commit hooks for the torture harness's oracle) ---- *)

let set_observer t o = t.observer <- o

(* The notify hooks also feed the trace: begin is emitted by whichever
   domain starts the install, complete by whichever finishes it — the
   original updater, or the lock holder that redid a dead updater's
   journal — so begins and completes stay balanced per version across
   kills and recoveries. *)
let notify_begin t ~version ~tag =
  Telemetry.emit Telemetry.Event.Update_begin ~a:version ~b:tag ~c:t.shard_id
    ~x:(Telemetry.Event.make_ctx ~shard:t.shard_id ());
  match t.observer with
  | None -> ()
  | Some o -> o.obs_begin ~version ~tag

let notify_complete t ~version ~tag =
  Telemetry.emit Telemetry.Event.Update_commit ~a:version ~b:tag ~c:t.shard_id
    ~x:(Telemetry.Event.make_ctx ~shard:t.shard_id ());
  match t.observer with
  | None -> ()
  | Some o -> o.obs_complete ~version ~tag

let slot_value t k =
  if k < 0 || k >= t.code_size / 4 then Id.invalid
  else Array.unsafe_get t.tary k

(* The misaligned/out-of-range slow path, kept out of line so the aligned
   read below stays small enough for cross-module inlining. *)
let tary_read_slow t addr =
  let off = addr - t.code_base in
  if off < 0 || off >= t.code_size then Id.invalid
  else begin
    let k = off lsr 2 and r = off land 3 in
    (* Misaligned: the word spans slots k and k+1 (little-endian bytes). *)
    let lo = slot_value t k and hi = slot_value t (k + 1) in
    let b i = if i < 4 then Id.byte lo i else Id.byte hi (i - 4) in
    Id.of_bytes (b r) (b (r + 1)) (b (r + 2)) (b (r + 3))
  end

let[@inline] tary_read t addr =
  let off = addr - t.code_base in
  if off < 0 || off >= t.code_size || off land 3 <> 0 then
    tary_read_slow t addr
  else Array.unsafe_get t.tary (off lsr 2)

let[@inline] bary_read t idx =
  if idx < 0 || idx >= Array.length t.bary then
    invalid_arg (Printf.sprintf "Tables.bary_read: slot %d out of range" idx);
  Array.unsafe_get t.bary idx

let tary_set t addr id =
  let off = addr - t.code_base in
  if off < 0 || off >= t.code_size then
    invalid_arg (Printf.sprintf "Tables.tary_set: address 0x%x out of range" addr);
  if off mod 4 <> 0 then
    invalid_arg (Printf.sprintf "Tables.tary_set: address 0x%x misaligned" addr);
  t.tary.(off / 4) <- id

let bary_set t idx id =
  if idx < 0 || idx >= Array.length t.bary then
    invalid_arg (Printf.sprintf "Tables.bary_set: slot %d out of range" idx);
  t.bary.(idx) <- id

let tary_entries t =
  let acc = ref [] in
  for k = (t.code_size / 4) - 1 downto 0 do
    let v = t.tary.(k) in
    if v <> Id.invalid then acc := (t.code_base + (4 * k), v) :: !acc
  done;
  !acc

let bary_entries t =
  let acc = ref [] in
  for k = Array.length t.bary - 1 downto 0 do
    let v = t.bary.(k) in
    if v <> Id.invalid then acc := (k, v) :: !acc
  done;
  !acc

let set_journal t j = Atomic.set t.journal j
let journal t = Atomic.get t.journal

(* ---- shard state snapshot (forensics) ----

   A cheap, consistent-enough view of one shard's control words for a
   forensic bundle: version, install-sequence word, quiescence
   accounting, reader registry size, and the intent journal's identity
   (not its writes — a bundle wants "a delta install at version 17 with
   9 writes was in flight", not the slot values).  Reads are the same
   racy-but-safe atomics the checkers use; a snapshot taken mid-install
   may straddle it, which forensics tolerates (the sequence word being
   odd says exactly that). *)

type journal_state = {
  js_version : int;
  js_tag : int;
  js_kind : string; (* "full" | "delta" *)
  js_writes : int; (* table-slot writes the redo would replay *)
}

type state = {
  st_shard : int;
  st_version : int;
  st_seq : int;
  st_updates_since_quiesce : int;
  st_quiesce_events : int;
  st_readers : int;
  st_update_in_progress : bool;
  st_code_size : int;
  st_bary_slots : int;
  st_journal : journal_state option;
}

let journal_state j =
  let kind, writes =
    match j.j_body with
    | Jfull { jf_tary; jf_bary } ->
      ("full", List.length jf_tary + List.length jf_bary)
    | Jdelta { jd_tary; jd_bary; jd_tary_carry; jd_bary_carry } ->
      ( "delta",
        List.length jd_tary + List.length jd_bary
        + List.length jd_tary_carry + List.length jd_bary_carry )
  in
  { js_version = j.j_version; js_tag = j.j_tag; js_kind = kind;
    js_writes = writes }

let state t =
  {
    st_shard = t.shard_id;
    st_version = version t;
    st_seq = seq_read t;
    st_updates_since_quiesce = updates_since_quiesce t;
    st_quiesce_events = quiesce_events t;
    st_readers = registered_readers t;
    st_update_in_progress = update_in_progress t;
    st_code_size = t.code_size;
    st_bary_slots = Array.length t.bary;
    st_journal = Option.map journal_state (journal t);
  }

module Json = Mcfi_util.Json

let state_json t =
  let s = state t in
  Json.Obj
    [
      ("shard", Json.num s.st_shard);
      ("version", Json.num s.st_version);
      ("seq", Json.num s.st_seq);
      ("updates_since_quiesce", Json.num s.st_updates_since_quiesce);
      ("quiesce_events", Json.num s.st_quiesce_events);
      ("readers", Json.num s.st_readers);
      ("update_in_progress", Json.Bool s.st_update_in_progress);
      ("code_size", Json.num s.st_code_size);
      ("bary_slots", Json.num s.st_bary_slots);
      ( "journal",
        match s.st_journal with
        | None -> Json.Null
        | Some j ->
          Json.Obj
            [
              ("version", Json.num j.js_version);
              ("tag", Json.num j.js_tag);
              ("kind", Json.Str j.js_kind);
              ("writes", Json.num j.js_writes);
            ] );
    ]

(* ---- whole-table snapshot / restore (loader rollback) ---- *)

type snapshot = {
  s_version : int;
  s_code_size : int;
  s_updates_since_quiesce : int;
  s_tary : (int * Id.t) list;
  s_bary : (int * Id.t) list;
  s_journal : journal option;
}

let snapshot t =
  {
    s_version = version t;
    s_code_size = t.code_size;
    s_updates_since_quiesce = updates_since_quiesce t;
    s_tary = tary_entries t;
    s_bary = bary_entries t;
    s_journal = journal t;
  }

let restore t s =
  with_update_lock t (fun () ->
      seq_enter t;
      (* clear the current in-use prefix — it is at least as large as the
         snapshot's, since [extend] only grows *)
      Array.fill t.tary 0 (t.code_size / 4) Id.invalid;
      Array.fill t.bary 0 (Array.length t.bary) Id.invalid;
      t.code_size <- s.s_code_size;
      set_version t s.s_version;
      Atomic.set t.updates_since_quiesce s.s_updates_since_quiesce;
      set_journal t s.s_journal;
      List.iter
        (fun (addr, id) -> t.tary.((addr - t.code_base) / 4) <- id)
        s.s_tary;
      List.iter (fun (k, id) -> t.bary.(k) <- id) s.s_bary;
      publish t;
      seq_exit t)

(* ---- partial snapshot / restore (loader rollback, delta installs)

   A delta install touches a known, small set of slots; the loader's
   rollback journal only needs those.  Values are captured raw — a slot
   that was [Id.invalid] before the install (the common case: the new
   module's own addresses) restores to invalid.  Slots beyond the
   restored code size therefore restore to invalid too, keeping the
   not-yet-covered suffix clean for the next [extend]. *)

type slot_snapshot = {
  ss_version : int;
  ss_code_size : int;
  ss_updates_since_quiesce : int;
  ss_journal : journal option;
  ss_tary : (int * Id.t) list; (* address -> raw word *)
  ss_bary : (int * Id.t) list; (* slot -> raw word *)
}

let snapshot_slots t ~tary ~bary =
  let word addr =
    let off = addr - t.code_base in
    if off < 0 || off >= t.capacity || off mod 4 <> 0 then
      invalid_arg
        (Printf.sprintf "Tables.snapshot_slots: bad address 0x%x" addr);
    t.tary.(off / 4)
  in
  {
    ss_version = version t;
    ss_code_size = t.code_size;
    ss_updates_since_quiesce = updates_since_quiesce t;
    ss_journal = journal t;
    ss_tary = List.map (fun addr -> (addr, word addr)) tary;
    ss_bary = List.map (fun k -> (k, bary_read t k)) bary;
  }

let restore_slots t s =
  with_update_lock t (fun () ->
      seq_enter t;
      List.iter
        (fun (addr, id) -> t.tary.((addr - t.code_base) / 4) <- id)
        s.ss_tary;
      List.iter (fun (k, id) -> t.bary.(k) <- id) s.ss_bary;
      t.code_size <- s.ss_code_size;
      set_version t s.ss_version;
      Atomic.set t.updates_since_quiesce s.ss_updates_since_quiesce;
      set_journal t s.ss_journal;
      publish t;
      seq_exit t)

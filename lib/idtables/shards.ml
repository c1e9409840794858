(* Sharded ID tables: one full Bary/Tary pair — version word, update
   lock, intent journal, sequence word, reader registry, observer — per
   shard, so each shard is a complete, independently recoverable fault
   domain.  A mid-install kill, torn update, or wedged reader is
   confined to the shard it struck; every other shard keeps serving
   checks and accepting installs with no shared state in the way.

   Routing is by equivalence class home: a class's branch slots and its
   target addresses must live in the {e same} shard (the check protocol
   compares a branch ID against a target ID bit for bit, which is only
   meaningful inside one version domain), so the unit of placement is
   the module: all classes a module anchors share its home shard.  A
   module with no explicit home falls back to a hash of its id.  A
   check reads both tables from the branch slot's shard; a target
   address the shard does not cover reads [Id.invalid] and fails closed,
   exactly as a wild target inside one shard would. *)

type t = {
  count : int;
  tables : Tables.t array;
  homes : (int, int) Hashtbl.t; (* module id -> pinned home shard *)
  hlock : Mutex.t;
  installs : Telemetry.Metrics.counter array; (* per-shard install tally *)
}

let create ?(shards = 1) ?covered ~code_base ~capacity
    ~bary_slots () =
  let count = max shards 1 in
  {
    count;
    tables =
      Array.init count (fun i ->
          Tables.create ~shard:i ?covered ~code_base ~capacity ~bary_slots ());
    homes = Hashtbl.create 16;
    hlock = Mutex.create ();
    installs =
      Array.init count (fun i ->
          Telemetry.Metrics.counter (Printf.sprintf "mcfi_shard%d_installs" i));
  }

let count t = t.count

let tables t i =
  if i < 0 || i >= t.count then
    invalid_arg (Printf.sprintf "Shards.tables: shard %d out of range" i);
  t.tables.(i)

(* splitmix64-style finalizer over the module id: the hashed fallback
   spreads unpinned modules evenly and deterministically. *)
let hash_home count m =
  let h = Int64.mul (Int64.of_int (m + 1)) 0x9E3779B97F4A7C15L in
  let h = Int64.logxor h (Int64.shift_right_logical h 29) in
  let h = Int64.mul h 0xBF58476D1CE4E5B9L in
  let h = Int64.logxor h (Int64.shift_right_logical h 32) in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int count))

let set_home t ~m ~shard =
  if shard < 0 || shard >= t.count then
    invalid_arg (Printf.sprintf "Shards.set_home: shard %d out of range" shard);
  Mutex.lock t.hlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.hlock)
    (fun () -> Hashtbl.replace t.homes m shard)

let home t ~m =
  Mutex.lock t.hlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.hlock)
    (fun () ->
      match Hashtbl.find_opt t.homes m with
      | Some s -> s
      | None -> hash_home t.count m)

(* ---- per-shard transactions: MCFI's own, against one shard ---- *)

let check ?max_retries ?escalation ?watchdog ?jitter ?on_retry t ~shard
    ~bary_index ~target =
  Tx.check ?max_retries ?escalation ?watchdog ?jitter ?on_retry
    (tables t shard) ~bary_index ~target

let check_fast ?on_retry t ~shard ~bary_index ~target =
  Tx.check_fast ?on_retry (tables t shard) ~bary_index ~target

let check_hoisted ?max_retries ?escalation ?watchdog ?jitter ?on_retry t
    ~shard site ~bary_index ~target =
  Tx.check_hoisted ?max_retries ?escalation ?watchdog ?jitter
    ?on_retry (tables t shard) site ~bary_index ~target

let update ?tag ?got_update t ~shard ~tary ~bary =
  let v = Tx.update ?tag ?got_update (tables t shard) ~tary ~bary in
  Telemetry.Metrics.incr t.installs.(shard);
  v

let update_delta ?tag ?got_update ?pre_install t ~shard ~tary ~bary
    ~tary_carry ~bary_carry =
  let v =
    Tx.update_delta ?tag ?got_update ?pre_install (tables t shard)
      ~tary ~bary ~tary_carry ~bary_carry
  in
  Telemetry.Metrics.incr t.installs.(shard);
  v

let refresh t ~shard =
  let v = Tx.refresh (tables t shard) in
  Telemetry.Metrics.incr t.installs.(shard);
  v

let recover t ~shard = Tx.recover (tables t shard)

let recover_all t =
  let n = ref 0 in
  for i = 0 to t.count - 1 do
    if recover t ~shard:i then incr n
  done;
  !n

let torn t ~shard = Tables.journal (tables t shard) <> None

(* ---- cross-shard commits ----

   A delta touching several shards commits shard by shard, in ascending
   shard order, each shard's slice as an ordinary single-shard
   transaction (own version bump, own journal, own recovery).  There is
   deliberately {e no} cross-shard atomicity: the recovery rule is that
   a death anywhere in the sequence is indistinguishable from a crash
   just before the remaining shards — shards already committed stay
   committed (their journals are clear), the shard that was mid-install
   is torn and redone by its own next lock holder, and shards not yet
   reached are untouched, exactly as if their updates were never
   submitted.  Checks never compare IDs across shards, so there is no
   state in which partial commitment is observable as a table anomaly;
   the caller re-submits the unreached suffix (or abandons it) the same
   way it would after a whole-process crash.

   The [Between_shard_commits] hook fires before each shard's commit
   except the first, reporting the shard {e about to} commit: a plan
   scoped [At_shard {shard = s; ...}] kills the sequence with every
   shard before [s] committed and [s] plus the rest untouched. *)

type part = {
  p_tary : (int * int) list;
  p_bary : (int * int) list;
  p_tary_carry : (int * int * Tx.carry_source) list;
  p_bary_carry : (int * int * Tx.carry_source) list;
}

let part ?(tary = []) ?(bary = []) ?(tary_carry = []) ?(bary_carry = []) () =
  { p_tary = tary; p_bary = bary; p_tary_carry = tary_carry;
    p_bary_carry = bary_carry }

let sort_parts t parts =
  let parts = List.sort (fun (a, _) (b, _) -> compare a b) parts in
  List.iteri
    (fun i (shard, _) ->
      if shard < 0 || shard >= t.count then
        invalid_arg
          (Printf.sprintf "Shards.update_multi: shard %d out of range" shard);
      if i > 0 && fst (List.nth parts (i - 1)) = shard then
        invalid_arg
          (Printf.sprintf "Shards.update_multi: duplicate shard %d" shard))
    parts;
  parts

let update_multi ?tag t parts =
  let parts = sort_parts t parts in
  List.mapi
    (fun i (shard, p) ->
      if i > 0 then Faults.hit ~shard Faults.Plan.Between_shard_commits;
      let v =
        update_delta ?tag t ~shard ~tary:p.p_tary ~bary:p.p_bary
          ~tary_carry:p.p_tary_carry ~bary_carry:p.p_bary_carry
      in
      (shard, v))
    parts

let update_multi_full ?tag t parts =
  let parts = sort_parts t parts in
  List.mapi
    (fun i (shard, (tary, bary)) ->
      if i > 0 then Faults.hit ~shard Faults.Plan.Between_shard_commits;
      let v = update ?tag t ~shard ~tary ~bary in
      (shard, v))
    parts

(* ---- per-shard readers, observers, quiescence ---- *)

let register_reader t ~shard = Tables.register_reader (tables t shard)
let unregister_reader t ~shard r = Tables.unregister_reader (tables t shard) r
let set_observer t ~shard o = Tables.set_observer (tables t shard) o
let quiesce_attempt t ~shard = Tables.quiesce_attempt (tables t shard)

let quiescent_shards t =
  Array.init t.count (fun i -> quiesce_attempt t ~shard:i)

let version t ~shard = Tables.version (tables t shard)

(* ---- shard state snapshots (forensics) ---- *)

let state t ~shard = Tables.state (tables t shard)

let states t = List.init t.count (fun i -> state t ~shard:i)

let states_json t =
  Mcfi_util.Json.Arr
    (List.init t.count (fun i -> Tables.state_json (tables t i)))

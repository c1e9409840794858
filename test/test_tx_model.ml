(* Exhaustive interleaving check of the transaction protocol (§5.2).

   The paper argues linearizability informally: the update transaction's
   Tary-then-barrier-then-Bary ordering guarantees a check transaction
   either sees the old CFG or the new CFG, never a mixture it would
   wrongly PASS.  This test operationalizes the argument as a small
   model: both transactions are decomposed into atomic steps, every
   interleaving of one check against one update (and against two
   successive updates) is enumerated, and each outcome is validated
   against the specification:

   - if the check PASSES, the (branch, target) edge must be allowed by
     the old CFG or by the new CFG — a pass explained by neither is a
     security violation of the mechanism itself;
   - if the check reports a VIOLATION, the edge must be disallowed by
     the old or the new CFG (transient false halts on a genuinely
     revoked edge are acceptable and expected, per the paper);
   - a check that keeps retrying while the update is stalled never
     returns a wrong answer (bounded retries report exhaustion).

   The model uses the real Id/Tables/Tx code — only the scheduler is
   simulated. *)

open Idtables

let code_base = 0x1000

(* A CFG for the model: branch slot 0's ECN and the ECN of two targets. *)
type cfg = { t0 : int option; t1 : int option; branch : int }

let addr0 = code_base
let addr1 = code_base + 4

let install_ops ?version cfg tables =
  (* The atomic steps of TxUpdate (Fig. 3), as closures: bump version,
     write each Tary slot, barrier+GOT, write the Bary slot.  [version]
     pins the version explicitly — a journal redo replays the torn
     install's version rather than bumping ([Tx.recover]). *)
  let v = ref 0 in
  [
    (fun () ->
      v :=
        (match version with
        | Some v -> v
        | None -> (Tables.version tables + 1) mod Id.max_version);
      Tables.set_version tables !v);
    (fun () ->
      Tables.tary_set tables addr0
        (match cfg.t0 with
        | Some ecn -> Id.pack ~ecn ~version:!v
        | None -> Id.invalid));
    (fun () ->
      Tables.tary_set tables addr1
        (match cfg.t1 with
        | Some ecn -> Id.pack ~ecn ~version:!v
        | None -> Id.invalid));
    (fun () -> Tables.publish tables);
    (fun () -> Tables.bary_set tables 0 (Id.pack ~ecn:cfg.branch ~version:!v));
  ]

(* The check transaction's steps, with its state machine made explicit so
   the scheduler can stop it between the two reads. *)
type check_state = {
  mutable bid : Id.t;
  mutable tid : Id.t;
  mutable result : [ `Running | `Pass | `Violation | `Exhausted ];
  mutable budget : int;
  target : int;
}

let check_steps st tables =
  (* one round = read bary; read tary; decide (maybe restart) *)
  let read_bary () = st.bid <- Tables.bary_read tables 0 in
  let read_tary () = st.tid <- Tables.tary_read tables st.target in
  let decide () =
    if st.bid = st.tid then st.result <- `Pass
    else if not (Id.valid st.tid) then st.result <- `Violation
    else if not (Id.same_version st.bid st.tid) then begin
      st.budget <- st.budget - 1;
      if st.budget <= 0 then st.result <- `Exhausted
    end
    else st.result <- `Violation
  in
  (read_bary, read_tary, decide)

(* Does [cfg] allow branch 0 -> target? *)
let allows cfg target =
  let tecn = if target = addr0 then cfg.t0 else cfg.t1 in
  tecn = Some cfg.branch

(* Drive one check (with retries) against an updater whose remaining
   steps are injected according to [schedule]: schedule.(k) tells how
   many update steps run before the k-th check step.  Returns the
   outcome. *)
let drive tables update_steps ~target schedule =
  let run_update_steps n =
    for _ = 1 to n do
      match !update_steps with
      | op :: rest ->
        op ();
        update_steps := rest
      | [] -> ()
    done
  in
  let st =
    { bid = 0; tid = 0; result = `Running; budget = 50; target }
  in
  let read_bary, read_tary, decide = check_steps st tables in
  let k = ref 0 in
  let next_schedule () =
    let n = if !k < Array.length schedule then schedule.(!k) else 0 in
    incr k;
    n
  in
  while st.result = `Running do
    run_update_steps (next_schedule ());
    read_bary ();
    run_update_steps (next_schedule ());
    read_tary ();
    run_update_steps (next_schedule ());
    decide ()
  done;
  (* drain the update so post-conditions can also be checked *)
  run_update_steps 99;
  st.result

let run_interleaving ~old_cfg ~new_cfg ~target schedule =
  let tables = Tables.create ~code_base ~capacity:16 ~bary_slots:1 () in
  (* install the old CFG completely *)
  List.iter (fun op -> op ()) (install_ops old_cfg tables);
  drive tables (ref (install_ops new_cfg tables)) ~target schedule

(* The journal-redo variant: an updater died [torn_at] steps into its
   install, and the next lock holder redoes the whole install from the
   journal at the {e same} version ([Tx.recover_locked]) while the check
   runs.  Already-written slots are rewritten with identical words, so
   the redo must satisfy the same old-or-new specification. *)
let run_redo_interleaving ~old_cfg ~new_cfg ~target ~torn_at schedule =
  let tables = Tables.create ~code_base ~capacity:16 ~bary_slots:1 () in
  List.iter (fun op -> op ()) (install_ops old_cfg tables);
  let v2 = (Tables.version tables + 1) mod Id.max_version in
  (* the dying updater's partial install *)
  let torn = ref (install_ops ~version:v2 new_cfg tables) in
  for _ = 1 to torn_at do
    match !torn with
    | op :: rest ->
      op ();
      torn := rest
    | [] -> ()
  done;
  drive tables (ref (install_ops ~version:v2 new_cfg tables)) ~target schedule

(* Enumerate all ways to cut the update's 5 steps across the first few
   scheduler slots (checks may retry, so later slots see 0 steps). *)
let schedules =
  let rec cuts total slots =
    if slots = 0 then if total = 0 then [ [] ] else []
    else
      List.concat_map
        (fun here ->
          List.map (fun rest -> here :: rest) (cuts (total - here) (slots - 1)))
        (List.init (total + 1) Fun.id)
  in
  List.map Array.of_list (cuts 5 6)

let cfg_space =
  (* a few representative CFGs over two targets and ECNs {0,1} *)
  [
    { t0 = Some 0; t1 = Some 1; branch = 0 }; (* edge to t0 only *)
    { t0 = Some 0; t1 = Some 0; branch = 0 }; (* both allowed *)
    { t0 = Some 1; t1 = Some 0; branch = 0 }; (* edge to t1 only *)
    { t0 = None; t1 = Some 0; branch = 0 };   (* t0 not a target *)
    { t0 = Some 1; t1 = Some 1; branch = 0 }; (* branch class empty *)
  ]

let test_exhaustive_one_update () =
  let cases = ref 0 in
  List.iter
    (fun old_cfg ->
      List.iter
        (fun new_cfg ->
          List.iter
            (fun target ->
              List.iter
                (fun schedule ->
                  incr cases;
                  match
                    run_interleaving ~old_cfg ~new_cfg ~target schedule
                  with
                  | `Pass ->
                    if not (allows old_cfg target || allows new_cfg target)
                    then
                      Alcotest.failf
                        "illegal pass: target 0x%x under neither CFG" target
                  | `Violation ->
                    if allows old_cfg target && allows new_cfg target then
                      Alcotest.failf
                        "spurious violation: target 0x%x allowed by both \
                         CFGs"
                        target
                  | `Exhausted ->
                    (* only possible while the update is stalled between
                       phases; with the update drained this cannot be the
                       final state of an unbounded check *)
                    ()
                  | `Running -> assert false)
                schedules)
            [ addr0; addr1 ])
        cfg_space)
    cfg_space;
  Alcotest.(check bool)
    (Printf.sprintf "checked %d interleavings" !cases)
    true (!cases > 10000)

(* Every interleaving of a check against a journal redo, for every
   possible tear point of the original install: the same specification
   must hold — recovery is replay, never a third CFG. *)
let test_exhaustive_journal_redo () =
  let cases = ref 0 in
  List.iter
    (fun old_cfg ->
      List.iter
        (fun new_cfg ->
          List.iter
            (fun target ->
              List.iter
                (fun torn_at ->
                  List.iter
                    (fun schedule ->
                      incr cases;
                      match
                        run_redo_interleaving ~old_cfg ~new_cfg ~target
                          ~torn_at schedule
                      with
                      | `Pass ->
                        if
                          not
                            (allows old_cfg target || allows new_cfg target)
                        then
                          Alcotest.failf
                            "illegal pass during redo (torn at %d): target \
                             0x%x under neither CFG"
                            torn_at target
                      | `Violation ->
                        if allows old_cfg target && allows new_cfg target
                        then
                          Alcotest.failf
                            "spurious violation during redo (torn at %d): \
                             target 0x%x allowed by both CFGs"
                            torn_at target
                      | `Exhausted -> ()
                      | `Running -> assert false)
                    schedules)
                [ 0; 1; 2; 3; 4 ])
            [ addr0; addr1 ])
        cfg_space)
    cfg_space;
  Alcotest.(check bool)
    (Printf.sprintf "checked %d redo interleavings" !cases)
    true
    (!cases > 50000)

(* With the update fully completed before or after the check, outcomes
   must match the respective CFG exactly. *)
let test_quiescent_semantics () =
  List.iter
    (fun cfg ->
      List.iter
        (fun target ->
          let r =
            run_interleaving ~old_cfg:cfg ~new_cfg:cfg ~target
              (Array.make 6 0)
          in
          let expected = if allows cfg target then `Pass else `Violation in
          if r <> expected then
            Alcotest.failf "quiescent mismatch for target 0x%x" target)
        [ addr0; addr1 ])
    cfg_space

(* A check stalled against a half-done update retries (never decides
   wrongly), and completes as soon as the update finishes. *)
let test_stalled_update_retries () =
  let old_cfg = { t0 = Some 0; t1 = Some 1; branch = 0 } in
  let new_cfg = { t0 = Some 1; t1 = Some 0; branch = 1 } in
  (* Freeze after the Tary writes but before Bary: Tary carries the new
     version, Bary the old one. The check must retry, then pass once the
     update completes (the new CFG still allows branch->t0 via ECN 1). *)
  let r =
    run_interleaving ~old_cfg ~new_cfg ~target:addr0
      [| 4; 0; 0; 0; 0; 1 |]
  in
  Alcotest.(check bool) "eventually passes" true (r = `Pass)

(* ---- backoff jitter ---- *)

(* Unjittered backoff is the historical schedule: 2^min(round, 6). *)
let test_backoff_unjittered () =
  List.iter
    (fun (round, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "spins at round %d" round)
        expect
        (Idtables.Tx.backoff_spins round))
    [ (0, 1); (1, 2); (2, 4); (6, 64); (7, 64); (100, 64) ]

(* Jittered spins stay in [base, 2*base), and the schedule is a pure
   function of the PRNG seed: two streams from the same seed agree
   spin for spin, a different seed diverges somewhere. *)
let test_backoff_jitter_deterministic () =
  let schedule seed =
    let p = Mcfi_util.Prng.create seed in
    List.init 64 (fun i -> Idtables.Tx.backoff_spins ~jitter:p (i mod 10))
  in
  let a = schedule 0xA5EEDL and b = schedule 0xA5EEDL in
  Alcotest.(check (list int)) "same seed, same schedule" a b;
  let c = schedule 0xD1FFL in
  Alcotest.(check bool) "different seed diverges" true (a <> c);
  let p = Mcfi_util.Prng.create 0x7357L in
  for round = 0 to 20 do
    let base = 1 lsl min round 6 in
    let spins = Idtables.Tx.backoff_spins ~jitter:p round in
    if spins < base || spins >= 2 * base then
      Alcotest.failf "round %d: spins %d outside [%d, %d)" round spins base
        (2 * base)
  done

(* A jittered check transaction still decides correctly through a retry
   storm: version-skew the tables by hand, let the check spin, and
   complete the install from another "updater". *)
let test_jittered_check () =
  let t =
    Idtables.Tables.create ~code_base:0 ~capacity:8 ~bary_slots:1 ()
  in
  let v = Idtables.Tx.update t ~tary:[ (0, 1) ] ~bary:[ (0, 1) ] in
  Alcotest.(check bool) "installed" true (v > 0);
  let jitter = Mcfi_util.Prng.create 0xBACC0FFL in
  let retried = ref 0 in
  (* consistent tables: no retries, Pass *)
  (match
     Idtables.Tx.check ~jitter ~on_retry:(fun () -> incr retried) t
       ~bary_index:0 ~target:0
   with
  | Idtables.Tx.Pass -> ()
  | o -> Alcotest.failf "expected pass, got %a" Idtables.Tx.pp_outcome o);
  Alcotest.(check int) "no retries when consistent" 0 !retried;
  (* skew the version the way a mid-flight update would, bounded budget:
     the jittered retry loop must exhaust rather than decide *)
  Idtables.Tables.bary_set t 0 (Idtables.Id.pack ~ecn:1 ~version:(v + 1));
  (match
     Idtables.Tx.check ~max_retries:6 ~jitter
       ~on_retry:(fun () -> incr retried)
       t ~bary_index:0 ~target:0
   with
  | Idtables.Tx.Retries_exhausted -> ()
  | o -> Alcotest.failf "expected exhaustion, got %a" Idtables.Tx.pp_outcome o);
  Alcotest.(check int) "used the whole budget" 6 !retried

let () =
  Alcotest.run "tx_model"
    [
      ( "interleavings",
        [
          Alcotest.test_case "exhaustive one-update schedules" `Quick
            test_exhaustive_one_update;
          Alcotest.test_case "exhaustive journal-redo schedules" `Quick
            test_exhaustive_journal_redo;
          Alcotest.test_case "quiescent semantics" `Quick
            test_quiescent_semantics;
          Alcotest.test_case "stalled update retries" `Quick
            test_stalled_update_retries;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "unjittered schedule" `Quick
            test_backoff_unjittered;
          Alcotest.test_case "jitter deterministic per seed" `Quick
            test_backoff_jitter_deterministic;
          Alcotest.test_case "check with jitter" `Quick test_jittered_check;
        ] );
    ]

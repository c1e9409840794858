(* Sharded ID tables (lib/idtables/shards.ml): module-home routing with
   the hashed fallback, fail-closed checks on shards that never saw an
   install, the cross-shard commit/recovery rule (a death mid-sequence
   is indistinguishable from a crash just before the remaining shards),
   per-shard journal independence, shard-confined quiescence, and the
   kill-confinement acceptance property: a torn shard wedges only
   itself while every other shard keeps serving checks and completing
   installs. *)

open Idtables

let outcome = Alcotest.testable Fmt.(any "outcome") ( = )

let mk ?(shards = 4) () =
  Shards.create ~shards ~code_base:0x1000 ~capacity:256 ~bary_slots:8 ()

(* One tiny CFG per shard: slot 0 reaches 0x1010 under a per-shard class. *)
let seed_shard ?tag shs ~shard =
  Shards.update ?tag shs ~shard
    ~tary:[ (0x1010, 3 + shard) ]
    ~bary:[ (0, 3 + shard) ]

let seed_all ?tag shs =
  for i = 0 to Shards.count shs - 1 do
    ignore (seed_shard ?tag shs ~shard:i)
  done

(* ---- placement ---- *)

let test_home_routing () =
  let shs = mk ~shards:4 () in
  (* the hashed fallback is deterministic, in range, and not collapsed
     onto a single shard *)
  let homes = List.init 64 (fun m -> Shards.home shs ~m) in
  List.iter
    (fun h ->
      if h < 0 || h >= 4 then Alcotest.failf "home %d out of range" h)
    homes;
  Alcotest.(check (list int))
    "fallback is deterministic" homes
    (List.init 64 (fun m -> Shards.home shs ~m));
  let shs2 = mk ~shards:4 () in
  Alcotest.(check (list int))
    "fallback is instance-independent" homes
    (List.init 64 (fun m -> Shards.home shs2 ~m));
  Alcotest.(check bool) "fallback spreads modules" true
    (List.sort_uniq compare homes |> List.length > 1);
  (* pinning overrides the hash, for that module only *)
  let m = 17 in
  let other = (Shards.home shs ~m + 1) mod 4 in
  Shards.set_home shs ~m ~shard:other;
  Alcotest.(check int) "pin wins" other (Shards.home shs ~m);
  Alcotest.(check int)
    "neighbours keep the hash" (Shards.home shs2 ~m:18)
    (Shards.home shs ~m:18);
  match Shards.set_home shs ~m:0 ~shard:4 with
  | () -> Alcotest.fail "pinned an out-of-range shard"
  | exception Invalid_argument _ -> ()

(* ---- the empty shard ---- *)

let test_empty_shard_fails_closed () =
  let shs = mk ~shards:2 () in
  ignore (seed_shard shs ~shard:0);
  (* a populated slot probing a target its shard does not cover reads
     Id.invalid there and fails closed — the foreign-target rule *)
  Alcotest.check outcome "foreign target violates" Tx.Violation
    (Shards.check shs ~shard:0 ~bary_index:0 ~target:0x1050);
  Alcotest.(check bool) "foreign target denied on the fast path" false
    (Shards.check_fast shs ~shard:0 ~bary_index:0 ~target:0x1050);
  (* shard 1 never saw an install: checks against it resolve immediately
     (an uninstrumented slot; no version skew to chase) rather than
     wedging, and the shard is pristine — unversioned, untorn, and
     trivially quiescent *)
  Alcotest.check outcome "empty shard resolves immediately" Tx.Pass
    (Shards.check ~max_retries:0 shs ~shard:1 ~bary_index:0 ~target:0x1010);
  Alcotest.(check int) "empty shard never versioned" 0
    (Shards.version shs ~shard:1);
  Alcotest.(check bool) "empty shard not torn" false (Shards.torn shs ~shard:1);
  Alcotest.(check bool) "empty shard trivially quiescent" true
    (Shards.quiesce_attempt shs ~shard:1);
  (* and the populated shard is unaffected by the probes *)
  Alcotest.check outcome "populated shard passes" Tx.Pass
    (Shards.check shs ~shard:0 ~bary_index:0 ~target:0x1010)

(* ---- cross-shard commits ---- *)

let versions shs =
  Array.init (Shards.count shs) (fun i -> Shards.version shs ~shard:i)

let test_cross_shard_kill_between_commits () =
  let shs = mk ~shards:3 () in
  seed_all shs;
  let before = versions shs in
  let parts =
    List.init 3 (fun i -> (i, ([ (0x1020, 9) ], [ (1, 9) ])))
  in
  (* die after shards 0 and 1 committed, just before shard 2's
     transaction begins *)
  Faults.arm
    (Faults.Plan.At_shard
       { shard = 2; point = Faults.Plan.Between_shard_commits; hit = 1 });
  (match Shards.update_multi_full ~tag:9 shs parts with
  | (_ : (int * int) list) -> Alcotest.fail "armed kill never fired"
  | exception Faults.Injected _ -> ());
  Faults.disarm ();
  (* earlier shards: committed, journals clear, new CFG live *)
  List.iter
    (fun shard ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d committed" shard)
        (before.(shard) + 1)
        (Shards.version shs ~shard);
      Alcotest.(check bool)
        (Printf.sprintf "shard %d journal clear" shard)
        false (Shards.torn shs ~shard);
      Alcotest.check outcome
        (Printf.sprintf "shard %d serves the new CFG" shard)
        Tx.Pass
        (Shards.check shs ~shard ~bary_index:1 ~target:0x1020))
    [ 0; 1 ];
  (* the unreached shard: untouched, as if its update was never
     submitted — old CFG live, nothing to recover *)
  Alcotest.(check int) "shard 2 untouched" before.(2)
    (Shards.version shs ~shard:2);
  Alcotest.(check bool) "shard 2 not torn" false (Shards.torn shs ~shard:2);
  Alcotest.check outcome "shard 2 still serves the old CFG" Tx.Pass
    (Shards.check shs ~shard:2 ~bary_index:0 ~target:0x1010);
  Alcotest.(check int) "nothing to recover anywhere" 0 (Shards.recover_all shs);
  (* the caller re-submits the unreached suffix, exactly as after a
     process crash *)
  let (_ : (int * int) list) =
    Shards.update_multi_full ~tag:9 shs [ (2, ([ (0x1020, 9) ], [ (1, 9) ])) ]
  in
  Alcotest.check outcome "resubmitted suffix lands" Tx.Pass
    (Shards.check shs ~shard:2 ~bary_index:1 ~target:0x1020)

let test_update_multi_rejects_bad_parts () =
  let shs = mk ~shards:2 () in
  seed_all shs;
  let before = versions shs in
  let dup = [ (0, Shards.part ()); (0, Shards.part ()) ] in
  (match Shards.update_multi shs dup with
  | (_ : (int * int) list) -> Alcotest.fail "accepted a duplicate shard"
  | exception Invalid_argument _ -> ());
  (match Shards.update_multi shs [ (5, Shards.part ()) ] with
  | (_ : (int * int) list) -> Alcotest.fail "accepted an out-of-range shard"
  | exception Invalid_argument _ -> ());
  (* validation happens before any commit: no shard moved *)
  Alcotest.(check bool) "no partial commit" true (versions shs = before)

(* ---- per-shard journal independence ---- *)

let tear shard shs =
  (* leave shard [shard] torn: killed after its first Tary publish *)
  Faults.arm
    (Faults.Plan.At_shard
       { shard; point = Faults.Plan.Nth_tary_write; hit = 1 });
  (match
     Shards.update ~tag:77 shs ~shard ~tary:[ (0x1030, 11) ] ~bary:[ (2, 11) ]
   with
  | (_ : int) -> Alcotest.fail "armed kill never fired"
  | exception Faults.Injected _ -> ());
  Faults.disarm ()

let test_torn_shard_confined () =
  let shs = mk ~shards:3 () in
  seed_all shs;
  tear 0 shs;
  Alcotest.(check bool) "shard 0 torn" true (Shards.torn shs ~shard:0);
  (* an updater landing on a different shard commits normally and does
     not touch shard 0's journal — recovery is the torn shard's own *)
  let (_ : int) = seed_shard shs ~shard:1 in
  Alcotest.(check bool) "other shard's updater leaves the journal" true
    (Shards.torn shs ~shard:0);
  Alcotest.(check bool) "other shard not torn" false (Shards.torn shs ~shard:1);
  (* shard 0's own next updater redoes the torn install first *)
  let (_ : int) = seed_shard shs ~shard:0 in
  Alcotest.(check bool) "own updater consumed the journal" false
    (Shards.torn shs ~shard:0);
  Alcotest.(check int) "recover_all finds nothing" 0 (Shards.recover_all shs)

let test_recover_all_sweeps () =
  let shs = mk ~shards:4 () in
  seed_all shs;
  tear 1 shs;
  tear 3 shs;
  Alcotest.(check int) "both torn shards redone" 2 (Shards.recover_all shs);
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "shard %d clean" i)
      false (Shards.torn shs ~shard:i)
  done;
  (* the redone installs completed: the torn CFG is live on both *)
  List.iter
    (fun shard ->
      Alcotest.check outcome "torn install completed" Tx.Pass
        (Shards.check shs ~shard ~bary_index:2 ~target:0x1030))
    [ 1; 3 ]

(* ---- shard-confined quiescence ---- *)

let test_wedged_reader_blocks_one_shard () =
  let shs = mk ~shards:2 () in
  seed_all shs;
  (* a registered reader that never crosses a branch boundary: shard 0
     cannot declare quiescence after its next install... *)
  let rd = Shards.register_reader shs ~shard:0 in
  ignore (seed_shard shs ~shard:0);
  let rd1 = Shards.register_reader shs ~shard:1 in
  ignore (seed_shard shs ~shard:1);
  Tables.reader_quiescent rd1;
  Alcotest.(check bool) "wedged shard refuses" false
    (Shards.quiesce_attempt shs ~shard:0);
  (* ...but only shard 0: the live reader's shard declares on its own *)
  Alcotest.(check (array bool))
    "verdicts are per shard" [| false; true |] (Shards.quiescent_shards shs);
  (* tearing the corpse down releases the shard *)
  Shards.unregister_reader shs ~shard:0 rd;
  ignore (seed_shard shs ~shard:0);
  let rd0 = Shards.register_reader shs ~shard:0 in
  ignore (seed_shard shs ~shard:0);
  Tables.reader_quiescent rd0;
  Alcotest.(check bool) "released shard declares" true
    (Shards.quiesce_attempt shs ~shard:0);
  Shards.unregister_reader shs ~shard:0 rd0;
  Shards.unregister_reader shs ~shard:1 rd1

(* ---- kill confinement, the acceptance property ---- *)

let test_kill_confinement () =
  (* while shard 0 sits torn and unrecovered, every other shard must
     keep serving checks and completing installs *)
  let shs = mk ~shards:4 () in
  seed_all shs;
  tear 0 shs;
  Alcotest.(check bool) "shard 0 torn" true (Shards.torn shs ~shard:0);
  for round = 1 to 25 do
    for shard = 1 to 3 do
      let ecn = 3 + shard in
      let (_ : int) =
        Shards.update shs ~shard
          ~tary:[ (0x1010, ecn); (0x1040, 12) ]
          ~bary:[ (0, ecn); (3, 12) ]
      in
      Alcotest.check outcome
        (Printf.sprintf "round %d: shard %d serves checks" round shard)
        Tx.Pass
        (Shards.check shs ~shard ~bary_index:0 ~target:0x1010)
    done
  done;
  (* the torn shard never resolves its skew to a wrong verdict: the
     kill fired before the first slot write, so the only justifiable
     Pass is the old CFG's own edge *)
  (match
     Shards.check ~max_retries:4 shs ~shard:0 ~bary_index:0 ~target:0x1010
   with
  | Tx.Pass | Tx.Retries_exhausted -> ()
  | Tx.Violation -> Alcotest.fail "torn shard check resolved to Violation");
  (* and recovery — shard 0's own — restores service *)
  Alcotest.(check bool) "recovered" true (Shards.recover shs ~shard:0);
  Alcotest.check outcome "restored" Tx.Pass
    (Shards.check shs ~shard:0 ~bary_index:2 ~target:0x1030)

let () =
  Alcotest.run "shards"
    [
      ( "placement",
        [ Alcotest.test_case "home routing" `Quick test_home_routing ] );
      ( "empty shard",
        [
          Alcotest.test_case "fails closed" `Quick test_empty_shard_fails_closed;
        ] );
      ( "cross-shard",
        [
          Alcotest.test_case "kill between commits" `Quick
            test_cross_shard_kill_between_commits;
          Alcotest.test_case "bad parts rejected before commit" `Quick
            test_update_multi_rejects_bad_parts;
        ] );
      ( "journals",
        [
          Alcotest.test_case "torn shard confined to its own journal" `Quick
            test_torn_shard_confined;
          Alcotest.test_case "recover_all sweeps every shard" `Quick
            test_recover_all_sweeps;
        ] );
      ( "quiescence",
        [
          Alcotest.test_case "wedged reader blocks one shard" `Quick
            test_wedged_reader_blocks_one_shard;
        ] );
      ( "confinement",
        [
          Alcotest.test_case "torn shard sheds only itself" `Quick
            test_kill_confinement;
        ] );
    ]

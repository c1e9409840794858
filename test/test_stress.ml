(* The torture harness (lib/stress) and the epoch-quiescence machinery.

   The short torture case here is the tier-1 acceptance gate: ≥ 4 checker
   domains against 2 updater domains for more than 2^14 updates — past
   the ABA version wall, so it only completes if epoch-based quiescence
   works — with periodic mid-install updater kills whose torn installs
   must be redone by concurrent lock holders, and every check outcome
   validated by the epoch-history oracle.  Failures print the seed: replay
   with `mcfi torture --seed S`. *)

open Idtables

(* --- the epoch registry, single-domain semantics --- *)

let fresh () = Tables.create ~code_base:0 ~capacity:16 ~bary_slots:1 ()

let test_epoch_registry () =
  let t = fresh () in
  Tables.count_update t;
  Alcotest.(check bool) "empty registry never declares" false
    (Tables.quiesce_attempt t);
  let r = Tables.register_reader t in
  Alcotest.(check bool) "fresh reader counts as advanced" true
    (Tables.quiesce_attempt t);
  Alcotest.(check int) "counter reset" 0 (Tables.updates_since_quiesce t);
  (* an install snapshots the reader's epoch; until the reader crosses a
     branch boundary there is no quiescence evidence *)
  let (_ : int) = Tx.update t ~tary:[] ~bary:[ (0, 1) ] in
  Alcotest.(check bool) "stale reader gates quiescence" false
    (Tables.quiesce_attempt t);
  Tables.reader_quiescent r;
  Alcotest.(check bool) "advanced reader releases it" true
    (Tables.quiesce_attempt t);
  (* an offline reader (blocked in a long syscall) does not gate *)
  let (_ : int) = Tx.update t ~tary:[] ~bary:[ (0, 1) ] in
  Tables.set_reader_online r false;
  Alcotest.(check bool) "offline reader ignored" true
    (Tables.quiesce_attempt t);
  Tables.set_reader_online r true;
  Tables.unregister_reader t r;
  Alcotest.(check int) "registry empty after unregister" 0
    (Tables.registered_readers t);
  let (_ : int) = Tx.update t ~tary:[] ~bary:[ (0, 1) ] in
  Alcotest.(check bool) "empty registry never declares (again)" false
    (Tables.quiesce_attempt t)

(* A live reader that keeps crossing branch boundaries lets an update
   storm sail past the 2^14 version wall. *)
let test_epoch_storm_survives_wall () =
  let t = fresh () in
  let r = Tables.register_reader t in
  for _ = 1 to Id.max_version + 10 do
    Tables.reader_quiescent r;
    let (_ : int) = Tx.update t ~tary:[ (0, 1) ] ~bary:[ (0, 1) ] in
    ()
  done;
  Alcotest.(check bool) "quiesced along the way" true
    (Tables.quiesce_events t > 0)

(* A registered reader that never advances is indistinguishable from a
   check transaction still running since the last install: the storm must
   refuse at the wall rather than wrap the version space under it. *)
let test_stale_reader_hits_wall () =
  let t = fresh () in
  let (_ : Tables.reader) = Tables.register_reader t in
  let (_ : int) = Tx.update t ~tary:[] ~bary:[ (0, 1) ] in
  Alcotest.check_raises "refuses to wrap" Tx.Version_space_exhausted
    (fun () ->
      for _ = 1 to Id.max_version + 1 do
        let (_ : int) = Tx.update t ~tary:[] ~bary:[ (0, 1) ] in
        ()
      done)

(* --- the torture harness --- *)

let check_no_anomalies r =
  match r.Stress.rp_anomalies with
  | [] -> ()
  | l ->
    Alcotest.failf "oracle anomalies (replay: mcfi torture --seed %Ld):@.%a"
      r.Stress.rp_scenario.Stress.seed
      Fmt.(list ~sep:Fmt.cut Stress.pp_anomaly)
      l

let test_torture_acceptance () =
  let sc = Stress.default ~seed:0x5EED5L in
  let r = Stress.run sc in
  check_no_anomalies r;
  Alcotest.(check int) "every install (incl. redone kills) completed"
    (sc.Stress.updates + 1) r.Stress.rp_installs;
  Alcotest.(check bool) "mid-install kills injected" true
    (r.Stress.rp_kills > 0);
  Alcotest.(check bool) "torn installs recovered concurrently" true
    (r.Stress.rp_recoveries > 0);
  Alcotest.(check bool) "epoch quiescence declared" true
    (r.Stress.rp_quiesces > 0);
  Alcotest.(check bool) "checkers exercised both outcomes" true
    (r.Stress.rp_passes > 0 && r.Stress.rp_violations > 0)

let storm_scenario seed =
  {
    (Stress.generate ~seed) with
    Stress.updates = 0;
    checkers = 2;
    loader_loads = 8;
    loader_fault_one_in = 3;
  }

let test_loader_storm () =
  let r = Stress.run (storm_scenario 0xA11CEL) in
  check_no_anomalies r;
  Alcotest.(check bool) "some loads succeeded" true (r.Stress.rp_loads_ok > 0);
  Alcotest.(check bool) "some loads failed (duplicates, faults)" true
    (r.Stress.rp_loads_failed > 0);
  Alcotest.(check bool) "failed loads rolled back" true
    (r.Stress.rp_rollbacks > 0);
  Alcotest.(check bool) "checkers probed throughout" true
    (r.Stress.rp_checks > 0)

(* --- sharded torture under the epoch-history oracle --- *)

let sharded_scenario ~shards seed =
  {
    (Stress.generate ~seed) with
    Stress.updates = 800;
    checkers = 2;
    updaters = 2;
    kill_every = 9;
    reclaimer = true;
    loader_loads = 0;
    shards;
  }

let test_sharded_torture () =
  let r = Stress.run (sharded_scenario ~shards:2 0xB0A7L) in
  check_no_anomalies r;
  Alcotest.(check int) "per-shard tallies" 2
    (Array.length r.Stress.rp_shard_installs);
  Array.iteri
    (fun i n ->
      if n < 1 then Alcotest.failf "shard %d completed no installs" i)
    r.Stress.rp_shard_installs;
  Alcotest.(check int)
    "shard tallies sum to the total" r.Stress.rp_installs
    (Array.fold_left ( + ) 0 r.Stress.rp_shard_installs);
  Alcotest.(check bool) "shard-scoped kills injected" true
    (r.Stress.rp_kills > 0)

let test_shard_scaling_smoke () =
  let s =
    Stress.shard_scaling ~updaters:2 ~duration_s:0.05 ~wedge_s:0.05 ~shards:2
      ~seed:0x5CA1EL ()
  in
  Alcotest.(check int) "shards" 2 s.Stress.ss_shards;
  Alcotest.(check bool) "installs completed" true (s.Stress.ss_installs > 0);
  Alcotest.(check bool) "rate finite" true
    (Float.is_finite s.Stress.ss_installs_per_s);
  Alcotest.(check bool) "wedged tally sane" true
    (s.Stress.ss_wedged_installs >= 0)

(* Scenario generation and the workload it drives are functions of the
   seed alone (the schedule is not, but the oracle judges any schedule) —
   the replay story of `mcfi torture --seed S`. *)
let test_deterministic_replay () =
  Alcotest.(check bool) "generate is a function of the seed" true
    (Stress.generate ~seed:42L = Stress.generate ~seed:42L);
  let r1 = Stress.run (storm_scenario 0xD15EA5EL) in
  let r2 = Stress.run (storm_scenario 0xD15EA5EL) in
  check_no_anomalies r1;
  check_no_anomalies r2;
  Alcotest.(check (pair int int))
    "load outcomes replay exactly"
    (r1.Stress.rp_loads_ok, r1.Stress.rp_loads_failed)
    (r2.Stress.rp_loads_ok, r2.Stress.rp_loads_failed)

let () =
  Alcotest.run "stress"
    [
      ( "epochs",
        [
          Alcotest.test_case "registry semantics" `Quick test_epoch_registry;
          Alcotest.test_case "storm survives the version wall" `Quick
            test_epoch_storm_survives_wall;
          Alcotest.test_case "stale reader still hits the wall" `Quick
            test_stale_reader_hits_wall;
        ] );
      ( "torture",
        [
          Alcotest.test_case "multi-domain acceptance run" `Quick
            test_torture_acceptance;
          Alcotest.test_case "loader storm" `Quick test_loader_storm;
          Alcotest.test_case "deterministic replay" `Quick
            test_deterministic_replay;
        ] );
      ( "shards",
        [
          Alcotest.test_case "sharded torture" `Quick
            test_sharded_torture;
          Alcotest.test_case "shard-scaling smoke" `Quick
            test_shard_scaling_smoke;
        ] );
    ]

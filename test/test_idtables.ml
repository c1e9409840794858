(* Tests for the ID tables: bit packing (paper Fig. 2), table reads
   (including misaligned ones), transactions (Figs. 3-4) with torn-install
   recovery and an allocation-free pass path, baselines, and a
   linearizability stress test on real domains. *)

open Idtables

(* ---------- ID packing ---------- *)

let test_pack_unpack () =
  let id = Id.pack ~ecn:1234 ~version:567 in
  Alcotest.(check bool) "valid" true (Id.valid id);
  Alcotest.(check int) "ecn" 1234 (Id.ecn id);
  Alcotest.(check int) "version" 567 (Id.version id)

let test_pack_reserved_bits () =
  let id = Id.pack ~ecn:16383 ~version:16383 in
  (* bits 0,8,16,24: 1,0,0,0 *)
  Alcotest.(check int) "bit0" 1 (id land 1);
  Alcotest.(check int) "bit8" 0 ((id lsr 8) land 1);
  Alcotest.(check int) "bit16" 0 ((id lsr 16) land 1);
  Alcotest.(check int) "bit24" 0 ((id lsr 24) land 1)

let test_pack_out_of_range () =
  Alcotest.(check bool) "ecn too big" true
    (match Id.pack ~ecn:16384 ~version:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative version" true
    (match Id.pack ~ecn:0 ~version:(-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_invalid_id () =
  Alcotest.(check bool) "zero invalid" false (Id.valid Id.invalid)

let test_same_version () =
  let a = Id.pack ~ecn:1 ~version:99 in
  let b = Id.pack ~ecn:2 ~version:99 in
  let c = Id.pack ~ecn:1 ~version:100 in
  Alcotest.(check bool) "same" true (Id.same_version a b);
  Alcotest.(check bool) "diff" false (Id.same_version a c)

let prop_pack_roundtrip =
  QCheck.Test.make ~name:"pack/unpack roundtrip" ~count:1000
    QCheck.(pair (int_bound 16383) (int_bound 16383))
    (fun (ecn, version) ->
      let id = Id.pack ~ecn ~version in
      Id.valid id && Id.ecn id = ecn && Id.version id = version)

let prop_distinct_ids =
  QCheck.Test.make ~name:"distinct fields give distinct ids" ~count:500
    QCheck.(
      pair (pair (int_bound 16383) (int_bound 16383))
        (pair (int_bound 16383) (int_bound 16383)))
    (fun ((e1, v1), (e2, v2)) ->
      let a = Id.pack ~ecn:e1 ~version:v1 in
      let b = Id.pack ~ecn:e2 ~version:v2 in
      (a = b) = (e1 = e2 && v1 = v2))

(* ---------- tables ---------- *)

let mk_tables () = Tables.create ~code_base:0x1000 ~capacity:256 ~bary_slots:8 ()

let test_tary_set_read () =
  let t = mk_tables () in
  let id = Id.pack ~ecn:7 ~version:0 in
  Tables.tary_set t 0x1010 id;
  Alcotest.(check int) "read back" id (Tables.tary_read t 0x1010);
  Alcotest.(check int) "elsewhere invalid" Id.invalid
    (Tables.tary_read t 0x1014)

let test_tary_misaligned_read_invalid () =
  let t = mk_tables () in
  let id = Id.pack ~ecn:7 ~version:3 in
  Tables.tary_set t 0x1010 id;
  Tables.tary_set t 0x1014 (Id.pack ~ecn:8 ~version:3) ;
  (* every misaligned read around valid slots must yield an invalid ID *)
  List.iter
    (fun addr ->
      Alcotest.(check bool)
        (Printf.sprintf "misaligned 0x%x invalid" addr)
        false
        (Id.valid (Tables.tary_read t addr)))
    [ 0x1011; 0x1012; 0x1013; 0x1015 ]

let test_tary_out_of_range () =
  let t = mk_tables () in
  Alcotest.(check int) "below" Id.invalid (Tables.tary_read t 0xfff);
  Alcotest.(check int) "above" Id.invalid (Tables.tary_read t 0x2000)

let test_tary_set_rejects_misaligned () =
  let t = mk_tables () in
  Alcotest.(check bool) "misaligned set" true
    (match Tables.tary_set t 0x1001 (Id.pack ~ecn:0 ~version:0) with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_extend () =
  let t = Tables.create ~code_base:0 ~capacity:64 ~bary_slots:1 () in
  Alcotest.(check int) "initial" 64 (Tables.code_size t);
  Alcotest.(check bool) "beyond capacity" true
    (match Tables.extend t 100 with
    | exception Invalid_argument _ -> true
    | () -> false)

(* ---------- transactions ---------- *)

let install t =
  (* two equivalence classes: returns-of-f (ecn 0) and callbacks (ecn 1) *)
  Tx.update t
    ~tary:[ (0x1000, 0); (0x1004, 1); (0x1010, 0) ]
    ~bary:[ (0, 0); (1, 1) ]

let test_check_pass () =
  let t = mk_tables () in
  ignore (install t);
  Alcotest.(check bool) "allowed" true
    (Tx.check t ~bary_index:0 ~target:0x1000 = Tx.Pass);
  Alcotest.(check bool) "allowed same class" true
    (Tx.check t ~bary_index:0 ~target:0x1010 = Tx.Pass)

let test_check_wrong_class () =
  let t = mk_tables () in
  ignore (install t);
  Alcotest.(check bool) "cross-class violation" true
    (Tx.check t ~bary_index:0 ~target:0x1004 = Tx.Violation)

let test_check_invalid_target () =
  let t = mk_tables () in
  ignore (install t);
  Alcotest.(check bool) "non-target violation" true
    (Tx.check t ~bary_index:0 ~target:0x1020 = Tx.Violation);
  Alcotest.(check bool) "misaligned violation" true
    (Tx.check t ~bary_index:0 ~target:0x1001 = Tx.Violation)

let test_update_bumps_version () =
  let t = mk_tables () in
  let v1 = install t in
  let v2 = install t in
  Alcotest.(check int) "monotone" (v1 + 1) v2;
  Alcotest.(check int) "ids carry version" v2
    (Id.version (Tables.tary_read t 0x1000))

let test_update_clears_stale_entries () =
  let t = mk_tables () in
  ignore (install t);
  ignore (Tx.update t ~tary:[ (0x1000, 0) ] ~bary:[ (0, 0) ]);
  Alcotest.(check bool) "0x1004 no longer a target" true
    (Tx.check t ~bary_index:0 ~target:0x1004 = Tx.Violation)

let test_check_retries_on_version_skew () =
  (* Freeze a half-finished update: Tary has the new version but Bary still
     has the old one.  The check transaction must retry, not report a
     violation; with bounded fuel it reports Retries_exhausted. *)
  let t = mk_tables () in
  ignore (install t);
  let stale_bid = Tables.bary_read t 0 in
  (* manually advance only Tary, as if an updater were preempted *)
  Tables.set_version t (Tables.version t + 1);
  let v = Tables.version t in
  Tables.tary_set t 0x1000 (Id.pack ~ecn:0 ~version:v);
  Tables.bary_set t 0 stale_bid;
  let retries = ref 0 in
  let r =
    Tx.check t ~max_retries:5
      ~on_retry:(fun () -> incr retries)
      ~bary_index:0 ~target:0x1000
  in
  Alcotest.(check bool) "exhausted" true (r = Tx.Retries_exhausted);
  Alcotest.(check int) "retried 5 times" 5 !retries;
  (* finish the update: check passes again *)
  Tables.bary_set t 0 (Id.pack ~ecn:0 ~version:v);
  Alcotest.(check bool) "passes after completion" true
    (Tx.check t ~bary_index:0 ~target:0x1000 = Tx.Pass)

(* Pin the retry budget semantics: [~max_retries:n] = the initial attempt
   plus at most [n] retries, so [~max_retries:0] means "no retries" and
   [on_retry] never fires. *)
let test_zero_max_retries_means_no_retry () =
  let t = mk_tables () in
  ignore (install t);
  (* skew the tables: Tary at a new version, Bary stale *)
  let stale_bid = Tables.bary_read t 0 in
  Tables.set_version t (Tables.version t + 1);
  let v = Tables.version t in
  Tables.tary_set t 0x1000 (Id.pack ~ecn:0 ~version:v);
  Tables.bary_set t 0 stale_bid;
  let retries = ref 0 in
  let r =
    Tx.check t ~max_retries:0
      ~on_retry:(fun () -> incr retries)
      ~bary_index:0 ~target:0x1000
  in
  Alcotest.(check bool) "exhausted immediately" true (r = Tx.Retries_exhausted);
  Alcotest.(check int) "zero retries" 0 !retries;
  (* on consistent tables a zero budget is irrelevant *)
  Tables.bary_set t 0 (Id.pack ~ecn:0 ~version:v);
  Alcotest.(check bool) "passes with zero budget" true
    (Tx.check t ~max_retries:0 ~bary_index:0 ~target:0x1000 = Tx.Pass)

let test_refresh_preserves_ecns () =
  let t = mk_tables () in
  ignore (install t);
  let before = Tables.tary_entries t in
  let v = Tx.refresh t in
  let after = Tables.tary_entries t in
  Alcotest.(check int) "same entry count" (List.length before)
    (List.length after);
  List.iter2
    (fun (a1, id1) (a2, id2) ->
      Alcotest.(check int) "same addr" a1 a2;
      Alcotest.(check int) "same ecn" (Id.ecn id1) (Id.ecn id2);
      Alcotest.(check int) "new version" v (Id.version id2))
    before after

let test_got_update_hook_runs_between_phases () =
  let t = mk_tables () in
  let observed = ref None in
  ignore
    (Tx.update t
       ~got_update:(fun () ->
         (* during the hook, Tary must already carry the new version *)
         observed := Some (Id.version (Tables.tary_read t 0x1000)))
       ~tary:[ (0x1000, 0) ] ~bary:[ (0, 0) ]);
  Alcotest.(check bool) "hook saw new tary" true
    (!observed = Some (Tables.version t))

(* ---------- outcomes, mid-install skew, torn-install recovery ---------- *)

(* Two classes: slot 0 reaches 0x1010, slot 1 reaches 0x1020. *)
let seed_cfg t =
  Tx.update t ~tary:[ (0x1010, 3); (0x1020, 4) ] ~bary:[ (0, 3); (1, 4) ]

let outcome = Alcotest.testable Tx.pp_outcome ( = )

let test_outcomes () =
  let t = mk_tables () in
  let (_ : int) = seed_cfg t in
  let check = Tx.check t in
  Alcotest.check outcome "own target passes" Tx.Pass
    (check ~bary_index:0 ~target:0x1010);
  Alcotest.check outcome "other class's target violates" Tx.Violation
    (check ~bary_index:0 ~target:0x1020);
  Alcotest.check outcome "unmapped target fails closed" Tx.Violation
    (check ~bary_index:0 ~target:0x1040);
  Alcotest.check outcome "misaligned target fails closed" Tx.Violation
    (check ~bary_index:0 ~target:0x1012);
  (* a second install re-keys both classes under the bumped version; the
     old edges must not linger *)
  let (_ : int) = Tx.update t ~tary:[ (0x1010, 5) ] ~bary:[ (0, 5) ] in
  Alcotest.check outcome "rekeyed edge passes" Tx.Pass
    (check ~bary_index:0 ~target:0x1010);
  Alcotest.check outcome "dropped target violates" Tx.Violation
    (check ~bary_index:0 ~target:0x1020)

let test_mid_install_skew () =
  let t = mk_tables () in
  let (_ : int) = seed_cfg t in
  (* from inside the install window (the got_update hook runs between
     the Tary and Bary phases) a bounded check must exhaust its retries:
     the window is skewed, and it may not resolve to a verdict *)
  let during = ref None in
  let (_ : int) =
    Tx.update t
      ~got_update:(fun () ->
        during := Some (Tx.check ~max_retries:3 t ~bary_index:0 ~target:0x1010))
      ~tary:[ (0x1010, 3); (0x1020, 4) ]
      ~bary:[ (0, 3); (1, 4) ]
  in
  (match !during with
  | Some o ->
    Alcotest.check outcome "mid-install check exhausts" Tx.Retries_exhausted o
  | None -> Alcotest.fail "got_update hook never ran");
  (* after the install completes the same check passes *)
  Alcotest.check outcome "post-install pass" Tx.Pass
    (Tx.check t ~bary_index:0 ~target:0x1010)

let test_torn_recovery () =
  let t = mk_tables () in
  let (_ : int) = seed_cfg t in
  (* kill the updater after its first Tary publish: phase 1 torn *)
  Faults.arm (Faults.Plan.At { point = Faults.Plan.Nth_tary_write; hit = 1 });
  (match
     Tx.update t ~tary:[ (0x1010, 7); (0x1020, 7) ] ~bary:[ (0, 7); (1, 7) ]
   with
  | (_ : int) -> Alcotest.fail "armed kill never fired"
  | exception Faults.Injected _ -> ());
  Faults.disarm ();
  Alcotest.(check bool) "journal left behind" true (Tables.journal t <> None);
  (* explicit recovery redoes the torn install to completion *)
  Alcotest.(check bool) "recover redoes" true (Tx.recover t);
  Alcotest.(check bool) "journal consumed" true (Tables.journal t = None);
  Alcotest.check outcome "torn install completed" Tx.Pass
    (Tx.check t ~bary_index:0 ~target:0x1010);
  Alcotest.check outcome "merged classes pass" Tx.Pass
    (Tx.check t ~bary_index:0 ~target:0x1020);
  Alcotest.(check bool) "nothing further to redo" false (Tx.recover t)

let test_torn_recovered_by_next_update () =
  let t = mk_tables () in
  let (_ : int) = seed_cfg t in
  Faults.arm
    (Faults.Plan.At { point = Faults.Plan.Between_tary_and_bary; hit = 1 });
  (match Tx.update t ~tary:[ (0x1010, 9) ] ~bary:[ (0, 9) ] with
  | (_ : int) -> Alcotest.fail "armed kill never fired"
  | exception Faults.Injected _ -> ());
  Faults.disarm ();
  (* the next updater — fresh CFG — recovers the torn predecessor
     implicitly before installing its own *)
  let (_ : int) = Tx.update t ~tary:[ (0x1020, 2) ] ~bary:[ (1, 2) ] in
  Alcotest.(check bool) "journal consumed by next updater" true
    (Tables.journal t = None);
  Alcotest.check outcome "successor CFG live" Tx.Pass
    (Tx.check t ~bary_index:1 ~target:0x1020)

(* ---------- the pass path allocates nothing ---------- *)

(* Minor-heap words per passing check, averaged over [n] calls: the
   paper's check is two loads and a compare, and a closure or boxed
   option built on the way to that compare shows up here as whole words
   per call. *)
let words_per_call n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    if Sys.opaque_identity (f ()) <> Tx.Pass then Alcotest.fail "check failed"
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_pass_allocates_nothing () =
  let n = 100_000 in
  let t = mk_tables () in
  let (_ : int) = seed_cfg t in
  let site = Tx.site () in
  (* warm the site: the first check misses and fills it *)
  ignore (Tx.check_hoisted t site ~bary_index:0 ~target:0x1010);
  let shs =
    Shards.create ~shards:2 ~code_base:0x1000 ~capacity:256 ~bary_slots:8 ()
  in
  let (_ : int) =
    Shards.update shs ~shard:1 ~tary:[ (0x1010, 3) ] ~bary:[ (0, 3) ]
  in
  List.iter
    (fun (name, f) ->
      let w = words_per_call n f in
      if w >= 1.0 then Alcotest.failf "%s: %.2f minor words per pass" name w)
    [
      ("Tx.check", fun () -> Tx.check t ~bary_index:0 ~target:0x1010);
      ( "Tx.check_hoisted hit",
        fun () -> Tx.check_hoisted t site ~bary_index:0 ~target:0x1010 );
      ( "Shards.check",
        fun () -> Shards.check shs ~shard:1 ~bary_index:0 ~target:0x1010 );
    ];
  let hits, misses = Tx.site_stats site in
  Alcotest.(check (pair int int)) "every hoisted call hit" (n, 1) (hits, misses)

(* ---------- the ABA guard and version wraparound (§5.2) ---------- *)

let test_aba_guard_trips () =
  let t = mk_tables () in
  (* drive the update counter to the limit without quiescence *)
  Alcotest.(check bool) "exhausts" true
    (match
       for _ = 1 to Id.max_version do
         ignore (Tx.update t ~tary:[ (0x1000, 0) ] ~bary:[ (0, 0) ])
       done
     with
    | () -> false
    | exception Tx.Version_space_exhausted -> true)

let test_aba_guard_reset_by_quiescence () =
  let t = mk_tables () in
  for _ = 1 to 100 do
    ignore (Tx.update t ~tary:[ (0x1000, 0) ] ~bary:[ (0, 0) ]);
    (* the runtime observes all threads at a syscall: reset *)
    Tables.quiesce t
  done;
  Alcotest.(check int) "counter stays low" 0 (Tables.updates_since_quiesce t)

let test_version_wraparound_is_safe () =
  (* 2^14 versions wrap; checks must still pass on consistent tables *)
  let t = mk_tables () in
  Tables.set_version t (Id.max_version - 1);
  ignore (install t);
  Alcotest.(check int) "wrapped to 0" 0 (Tables.version t);
  Alcotest.(check bool) "still passes" true
    (Tx.check t ~bary_index:0 ~target:0x1000 = Tx.Pass);
  ignore (install t);
  Alcotest.(check int) "then 1" 1 (Tables.version t);
  Alcotest.(check bool) "passes after wrap" true
    (Tx.check t ~bary_index:0 ~target:0x1000 = Tx.Pass)

(* ---------- baselines agree with MCFI semantics ---------- *)

let baseline_agreement (module B : Tx_baselines.S) =
  let prng = Mcfi_util.Prng.create 99L in
  let base = 0x1000 in
  let mcfi = Tables.create ~code_base:base ~capacity:256 ~bary_slots:8 () in
  let b = B.create ~code_base:base ~capacity:256 ~bary_slots:8 in
  for _round = 1 to 20 do
    (* random CFG over 8 aligned targets and 4 branch slots *)
    let tary =
      List.init 8 (fun k -> (base + (4 * k), Mcfi_util.Prng.int prng 3))
      |> List.filter (fun _ -> Mcfi_util.Prng.bool prng)
    in
    let bary = List.init 4 (fun k -> (k, Mcfi_util.Prng.int prng 3)) in
    ignore (Tx.update mcfi ~tary ~bary);
    B.update b ~tary ~bary;
    for _query = 1 to 50 do
      let bary_index = Mcfi_util.Prng.int prng 4 in
      let target = base + Mcfi_util.Prng.int prng 64 in
      let expected = Tx.check mcfi ~bary_index ~target = Tx.Pass in
      let got = B.check b ~bary_index ~target in
      if got <> expected then
        Alcotest.failf "%s disagrees at slot %d target 0x%x" B.name bary_index
          target
    done
  done

let test_baselines_agree () =
  baseline_agreement (module Tx_baselines.Tml);
  baseline_agreement (module Tx_baselines.Rwlock);
  baseline_agreement (module Tx_baselines.Cas_mutex);
  baseline_agreement (module Tx_baselines.Mcfi)

(* ---------- concurrency: linearizability smoke test ---------- *)

(* Checkers run on domains while an updater flips between two CFGs. Every
   check outcome must be explainable by one of the two installed CFGs —
   never a mixture (the paper's §5.2 linearizability argument). CFG A maps
   branch 0 to target set {0x1000}; CFG B maps it to {0x1004}. A mixed
   state would let a check pass for both or neither in the same snapshot
   version.  Two sequential checks may straddle an install and both pass
   with no torn state, so a pair is judged only when the install
   sequence word was even and unchanged across it: then both checks read
   one CFG, and both passing is a mixture. *)
let test_concurrent_check_update () =
  let t = Tables.create ~code_base:0x1000 ~capacity:128 ~bary_slots:2 () in
  let cfg_a () = Tx.update t ~tary:[ (0x1000, 0) ] ~bary:[ (0, 0) ] in
  let cfg_b () = Tx.update t ~tary:[ (0x1004, 1) ] ~bary:[ (0, 1) ] in
  ignore (cfg_a ());
  let stop = Atomic.make false in
  let anomalies = Atomic.make 0 in
  let judged = Atomic.make 0 in
  let checker () =
    while not (Atomic.get stop) do
      let s0 = Tables.seq_read t in
      let a = Tx.check t ~max_retries:10000 ~bary_index:0 ~target:0x1000 in
      let b = Tx.check t ~max_retries:10000 ~bary_index:0 ~target:0x1004 in
      if s0 land 1 = 0 && Tables.seq_read t = s0 then begin
        Atomic.incr judged;
        if a = Tx.Pass && b = Tx.Pass then Atomic.incr anomalies
      end
    done
  in
  let updater () =
    for i = 1 to 500 do
      if i mod 2 = 0 then ignore (cfg_a ()) else ignore (cfg_b ());
      (* a short pause between installs, so checker pairs also land in
         settled windows and the judged count is not left to chance *)
      for _ = 1 to 64 do Domain.cpu_relax () done
    done;
    Atomic.set stop true
  in
  let d1 = Domain.spawn checker in
  let d2 = Domain.spawn checker in
  let d3 = Domain.spawn updater in
  Domain.join d1;
  Domain.join d2;
  Domain.join d3;
  Alcotest.(check int) "no mixed-CFG passes" 0 (Atomic.get anomalies);
  if Atomic.get judged < 1000 then
    Alcotest.failf "only %d pairs judged (need 1000)" (Atomic.get judged)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "idtables"
    [
      ( "id",
        [
          Alcotest.test_case "pack/unpack" `Quick test_pack_unpack;
          Alcotest.test_case "reserved bits" `Quick test_pack_reserved_bits;
          Alcotest.test_case "out of range" `Quick test_pack_out_of_range;
          Alcotest.test_case "invalid" `Quick test_invalid_id;
          Alcotest.test_case "same_version" `Quick test_same_version;
        ] );
      ("id props", qc [ prop_pack_roundtrip; prop_distinct_ids ]);
      ( "tables",
        [
          Alcotest.test_case "set/read" `Quick test_tary_set_read;
          Alcotest.test_case "misaligned read" `Quick
            test_tary_misaligned_read_invalid;
          Alcotest.test_case "out of range" `Quick test_tary_out_of_range;
          Alcotest.test_case "misaligned set" `Quick
            test_tary_set_rejects_misaligned;
          Alcotest.test_case "extend" `Quick test_extend;
        ] );
      ( "tx",
        [
          Alcotest.test_case "pass" `Quick test_check_pass;
          Alcotest.test_case "wrong class" `Quick test_check_wrong_class;
          Alcotest.test_case "invalid target" `Quick test_check_invalid_target;
          Alcotest.test_case "version bump" `Quick test_update_bumps_version;
          Alcotest.test_case "stale cleared" `Quick
            test_update_clears_stale_entries;
          Alcotest.test_case "retry on skew" `Quick
            test_check_retries_on_version_skew;
          Alcotest.test_case "max_retries:0 = no retries" `Quick
            test_zero_max_retries_means_no_retry;
          Alcotest.test_case "refresh" `Quick test_refresh_preserves_ecns;
          Alcotest.test_case "got hook" `Quick
            test_got_update_hook_runs_between_phases;
        ] );
      ( "outcomes",
        [ Alcotest.test_case "pass/violation agreement" `Quick test_outcomes ]
      );
      ( "skew",
        [
          Alcotest.test_case "mid-install checks fail closed" `Quick
            test_mid_install_skew;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "torn install redone explicitly" `Quick
            test_torn_recovery;
          Alcotest.test_case "next updater redoes torn install" `Quick
            test_torn_recovered_by_next_update;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "passing checks allocate nothing" `Quick
            test_pass_allocates_nothing;
        ] );
      ( "aba & wraparound",
        [
          Alcotest.test_case "guard trips" `Quick test_aba_guard_trips;
          Alcotest.test_case "quiescence resets" `Quick
            test_aba_guard_reset_by_quiescence;
          Alcotest.test_case "version wraparound" `Quick
            test_version_wraparound_is_safe;
        ] );
      ( "baselines",
        [ Alcotest.test_case "agree with MCFI" `Quick test_baselines_agree ] );
      ( "concurrency",
        [
          Alcotest.test_case "check/update linearizability" `Quick
            test_concurrent_check_update;
        ] );
    ]

(* Tier-1 smoke test for the Benchjson.output_file report: run a
   scaled-down version of everything the `bench json` section does — a
   short oracle-checked dlopen chain and a small install-throughput
   scenario — then assemble the report, round-trip it through the
   emitter and parser, and validate the shape the perf trajectory
   relies on. *)

module J = Mcfi.Benchjson
module Json = Mcfi_util.Json

let get path j =
  match Option.bind (Json.path path j) Json.to_float with
  | Some v -> v
  | None -> Alcotest.failf "missing or non-finite %s" (String.concat "." path)

let small_report () =
  let samples = J.dlopen_chain ~modules:4 ~fns:3 ~rounds:1 () in
  let tp =
    Stress.install_throughput ~checkers:2 ~installs:24 ~targets:256 ~slots:256
      ~classes:8 ~seed:0x7e57L ()
  in
  let torture =
    J.Obj
      [
        ("checks", J.Num (float_of_int tp.Stress.tp_checks));
        ("installs", J.Num (float_of_int tp.Stress.tp_installs));
        ("carries", J.Num (float_of_int tp.Stress.tp_carries));
        ( "checks_per_s",
          J.Num (float_of_int tp.Stress.tp_checks /. tp.Stress.tp_elapsed_s) );
        ( "installs_per_s",
          J.Num (float_of_int tp.Stress.tp_installs /. tp.Stress.tp_elapsed_s)
        );
        ( "checks_during_install_per_s",
          J.Num
            (float_of_int tp.Stress.tp_checks_during_install
            /. tp.Stress.tp_install_s) );
      ]
  in
  let telemetry =
    J.Obj
      [
        ("disabled_checks_per_s", J.Num 1e6);
        ("enabled_checks_per_s", J.Num 0.97e6);
        ("throughput_ratio", J.Num 0.97);
        ("overhead_pct", J.Num 3.0);
      ]
  in
  let fuzz =
    J.Obj
      [
        ("iterations", J.Num 40.0);
        ("elapsed_s", J.Num 8.0);
        ("iters_per_s", J.Num 5.0);
      ]
  in
  let fleet =
    J.Obj
      [
        ("tenants", J.Num 16.0);
        ("survival_rate", J.Num 0.94);
        ("kills", J.Num 4.0);
        ("restarts", J.Num 4.0);
        ("quarantined", J.Num 1.0);
        ("recovery_ms_p50", J.Num 3.3);
        ("recovery_ms_p99", J.Num 26.9);
        ("installs_admitted", J.Num 256.0);
        ("installs_served", J.Num 255.0);
        ("installs_shed", J.Num 0.0);
      ]
  in
  let shards =
    J.Obj
      [
        ( "rows",
          J.Arr
            [
              J.Obj
                [
                  ("shards", J.Num 1.0);
                  ("installs_per_s", J.Num 1000.0);
                  ("wedged_installs", J.Num 0.0);
                ];
              J.Obj
                [
                  ("shards", J.Num 4.0);
                  ("installs_per_s", J.Num 2600.0);
                  ("wedged_installs", J.Num 410.0);
                ];
            ] );
        ("scaling", J.Num 2.6);
        ("wedged_confinement", J.Num 410.0);
      ]
  in
  let dispatch =
    J.Obj
      [
        ("tight_check_byte_ns", J.Num 260.0);
        ("tight_check_threaded_ns", J.Num 60.0);
        ("tight_check_speedup", J.Num 4.33);
        ( "rows",
          J.Arr
            [
              J.Obj
                [
                  ("shards", J.Num 1.0);
                  ("byte_checks_per_s", J.Num 3.8e6);
                  ("threaded_checks_per_s", J.Num 16.5e6);
                ];
              J.Obj
                [
                  ("shards", J.Num 4.0);
                  ("byte_checks_per_s", J.Num 3.7e6);
                  ("threaded_checks_per_s", J.Num 16.2e6);
                ];
            ] );
      ]
  in
  let obs =
    J.Obj
      [
        ("flightrec_off_checks_per_s", J.Num 1e6);
        ("flightrec_on_checks_per_s", J.Num 0.98e6);
        ("flightrec_ratio", J.Num 0.98);
        ("snapshot_p99_ns", J.Num 250000.0);
        ("alert_lag_ticks", J.Num 6.0);
      ]
  in
  let redteam =
    J.Obj
      [
        ("sites", J.Num 39.0);
        ("corruptible_sites", J.Num 36.0);
        ("forward_edges", J.Num 48.0);
        ("backward_edges", J.Num 120.0);
        ("sabotage_chains", J.Num 6.0);
        ("sabotage_confirmed", J.Num 6.0);
        ("clean_chains", J.Num 0.0);
        ( "class_histogram",
          J.Arr
            [
              J.Obj [ ("class_size", J.Num 3.0); ("classes", J.Num 2.0) ];
              J.Obj [ ("class_size", J.Num 12.0); ("classes", J.Num 1.0) ];
            ] );
      ]
  in
  J.report ~samples ~torture ~telemetry ~fuzz ~fleet ~shards ~dispatch ~obs
    ~redteam

let test_report_roundtrip_and_validate () =
  let report = small_report () in
  (* the emitted text must re-parse to a report that still validates and
     carries the same numbers *)
  let text = Json.to_string report in
  let parsed =
    match Json.parse text with
    | Ok j -> j
    | Error m -> Alcotest.failf "re-parse failed: %s" m
  in
  (match J.validate parsed with
  | Ok () -> ()
  | Error m -> Alcotest.failf "validation failed: %s" m);
  Alcotest.(check (float 0.0))
    "modules" 4.0
    (get [ "modules" ] parsed);
  let chain =
    match Json.path [ "cfggen"; "chain" ] parsed with
    | Some (J.Arr rows) -> rows
    | _ -> Alcotest.fail "cfggen.chain missing"
  in
  Alcotest.(check int) "chain rows" 4 (List.length chain);
  List.iter
    (fun row ->
      let f = get [ "full_ms" ] row and i = get [ "incr_ms" ] row in
      if f < 0.0 || i < 0.0 then Alcotest.fail "negative timing")
    chain;
  (* required keys, present and finite *)
  List.iter
    (fun p -> ignore (get p parsed))
    [
      [ "cfggen"; "last_full_ms" ];
      [ "cfggen"; "last_incr_ms" ];
      [ "cfggen"; "last_speedup" ];
      [ "torture"; "checks_per_s" ];
      [ "torture"; "installs_per_s" ];
      [ "torture"; "checks_during_install_per_s" ];
      [ "telemetry"; "throughput_ratio" ];
      [ "telemetry"; "overhead_pct" ];
      [ "fuzz"; "iterations" ];
      [ "fuzz"; "iters_per_s" ];
      [ "fleet"; "survival_rate" ];
      [ "fleet"; "recovery_ms_p50" ];
      [ "fleet"; "recovery_ms_p99" ];
      [ "fleet"; "installs_served" ];
      [ "fleet"; "installs_shed" ];
      [ "dispatch"; "tight_check_byte_ns" ];
      [ "dispatch"; "tight_check_threaded_ns" ];
      [ "dispatch"; "tight_check_speedup" ];
      [ "obs"; "flightrec_ratio" ];
      [ "obs"; "snapshot_p99_ns" ];
      [ "obs"; "alert_lag_ticks" ];
      [ "redteam"; "sites" ];
      [ "redteam"; "corruptible_sites" ];
      [ "redteam"; "forward_edges" ];
      [ "redteam"; "backward_edges" ];
      [ "redteam"; "sabotage_chains" ];
      [ "redteam"; "sabotage_confirmed" ];
      [ "redteam"; "clean_chains" ];
    ]

let test_schema_identity () =
  let report = small_report () in
  (* the report is keyed by an explicit schema name + version, and the
     artifact file name is derived from the version (one bump point) *)
  (match Json.member "schema" report with
  | Some (J.Str s) -> Alcotest.(check string) "schema" J.schema s
  | _ -> Alcotest.fail "schema field missing");
  Alcotest.(check (float 0.0))
    "schema_version"
    (float_of_int J.schema_version)
    (get [ "schema_version" ] report);
  Alcotest.(check string)
    "output_file derived from version"
    (Printf.sprintf "BENCH_%d.json" J.schema_version)
    J.output_file;
  (* a version bump (or a foreign schema) must fail validation: the
     driver that trends these reports keys on the exact pair *)
  let rekey k v = function
    | J.Obj kvs ->
      J.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) kvs)
    | j -> j
  in
  (match J.validate (rekey "schema_version" (J.Num (float_of_int (J.schema_version + 1))) report) with
  | Ok () -> Alcotest.fail "validated a bumped schema_version"
  | Error _ -> ());
  match J.validate (rekey "schema" (J.Str "other-bench") report) with
  | Ok () -> Alcotest.fail "validated a foreign schema name"
  | Error _ -> ()

let test_validate_rejects_gaps () =
  let report = small_report () in
  let drop key = function
    | J.Obj kvs -> J.Obj (List.remove_assoc key kvs)
    | j -> j
  in
  (match J.validate (drop "torture" report) with
  | Ok () -> Alcotest.fail "validated without torture section"
  | Error _ -> ());
  (match J.validate (drop "dispatch" report) with
  | Ok () -> Alcotest.fail "validated without dispatch section"
  | Error _ -> ());
  (match J.validate (drop "redteam" report) with
  | Ok () -> Alcotest.fail "validated without redteam section"
  | Error _ -> ());
  (* a NaN serializes as null and must fail validation after re-parse *)
  let poisoned =
    match report with
    | J.Obj kvs ->
      J.Obj
        (List.map
           (function
             | "modules", _ -> ("modules", J.Num Float.nan)
             | kv -> kv)
           kvs)
    | j -> j
  in
  match Json.parse (Json.to_string poisoned) with
  | Ok j -> (
    match J.validate j with
    | Ok () -> Alcotest.fail "validated a non-finite field"
    | Error _ -> ())
  | Error m -> Alcotest.failf "re-parse failed: %s" m

let test_parser_basics () =
  (match Json.parse {| {"a": [1, 2.5, "x\n", true, null], "b": {}} |} with
  | Ok (J.Obj [ ("a", J.Arr [ J.Num 1.0; J.Num 2.5; J.Str "x\n"; J.Bool true; J.Null ]); ("b", J.Obj []) ]) -> ()
  | Ok j -> Alcotest.failf "unexpected parse: %s" (Json.to_string j)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  match Json.parse "{\"a\": 1,}" with
  | Ok _ -> Alcotest.fail "accepted trailing comma"
  | Error _ -> ()

let () =
  Alcotest.run "benchjson"
    [
      ( "report",
        [
          Alcotest.test_case "roundtrip & validate" `Quick
            test_report_roundtrip_and_validate;
          Alcotest.test_case "validation rejects gaps" `Quick
            test_validate_rejects_gaps;
          Alcotest.test_case "schema identity" `Quick test_schema_identity;
          Alcotest.test_case "parser basics" `Quick test_parser_basics;
        ] );
    ]

(* The observability layer's own guarantees: ring wraparound keeps the
   most-recent events, concurrent writers never produce a torn event in
   the merged drain, histogram buckets land on their documented
   boundaries, the exporters emit the exact text the scrapers parse, and
   the two sampling tiers (claim-flag default, detail mode) behave as
   specified.  Finishes with the acceptance property: an anomaly-free
   torture run yields a merged trace whose install spans are balanced and
   whose watchdog fires are attributable to a live install. *)

module T = Telemetry
module E = Telemetry.Event
module J = Mcfi_util.Json

let with_telemetry ?(detail = false) f =
  T.enable ();
  T.set_detail detail;
  T.reset ();
  Fun.protect
    ~finally:(fun () ->
      T.set_detail false;
      T.disable ();
      T.reset ())
    f

(* ------------------------------------------------------------------ *)
(* rings *)

let test_ring_wraparound () =
  with_telemetry (fun () ->
      T.set_ring_capacity 32;
      T.reset ();
      (* force this domain's pool slot to re-mint at the new capacity *)
      Fun.protect
        ~finally:(fun () ->
          T.set_ring_capacity 1024;
          T.reset ())
        (fun () ->
          for i = 0 to 99 do
            T.emit E.Update_begin ~a:i ~b:0 ~c:0
          done;
          let events =
            List.filter (fun e -> e.E.kind = E.Update_begin) (T.drain ())
          in
          (* at most capacity - 1 events survive, and they are exactly the
             most recent ones, in order *)
          Alcotest.(check bool)
            "bounded by capacity - 1" true
            (List.length events <= 31);
          let expected_first = 100 - List.length events in
          List.iteri
            (fun k e ->
              Alcotest.(check int) "most recent, in order"
                (expected_first + k) e.E.a)
            events;
          Alcotest.(check bool) "drops counted" true (T.events_dropped () > 0)))

let test_concurrent_writers () =
  with_telemetry (fun () ->
      (* every event carries a checksum; a torn event (words from two
         different writes) would break it in the merged drain *)
      let writers = 4 and per_writer = 2000 in
      let doms =
        List.init writers (fun w ->
            Domain.spawn (fun () ->
                for i = 1 to per_writer do
                  T.emit E.Check_retry ~a:w ~b:i ~c:((w * 31) + i)
                done))
      in
      List.iter Domain.join doms;
      let events =
        List.filter (fun e -> e.E.kind = E.Check_retry) (T.drain ())
      in
      Alcotest.(check bool) "something survived" true (List.length events > 0);
      List.iter
        (fun e ->
          if e.E.c <> (e.E.a * 31) + e.E.b then
            Alcotest.failf "torn event: a=%d b=%d c=%d" e.E.a e.E.b e.E.c)
        events;
      (* the merged drain is sorted by the global sequence, strictly:
         stamps are unique *)
      let seqs = List.map (fun e -> e.E.seq) events in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a < b && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) "strictly seq-ordered" true (sorted seqs))

(* ------------------------------------------------------------------ *)
(* histograms *)

let test_histogram_buckets () =
  (* bucket 0 holds v < 2; bucket i >= 1 holds 2^i <= v < 2^(i+1) *)
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b
        (T.Metrics.bucket_of v))
    [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3); (1023, 9);
      (1024, 10) ];
  Alcotest.(check int) "bucket_hi 0" 1 (T.Metrics.bucket_hi 0);
  Alcotest.(check int) "bucket_hi 3" 15 (T.Metrics.bucket_hi 3);
  with_telemetry (fun () ->
      let h = T.Metrics.histogram "test_boundaries" in
      List.iter (T.Metrics.observe h) [ 1; 2; 3; 4 ];
      let counts = T.Metrics.bucket_counts h in
      Alcotest.(check int) "bucket 0" 1 counts.(0);
      Alcotest.(check int) "bucket 1" 2 counts.(1);
      Alcotest.(check int) "bucket 2" 1 counts.(2);
      let s = T.Metrics.summary h in
      Alcotest.(check int) "count" 4 s.T.Metrics.s_count;
      Alcotest.(check int) "sum" 10 s.T.Metrics.s_sum;
      (* percentiles report a bucket's inclusive upper bound *)
      Alcotest.(check int) "p50" 3 s.T.Metrics.s_p50;
      Alcotest.(check int) "p99" 7 s.T.Metrics.s_p99)

(* ------------------------------------------------------------------ *)
(* exporters *)

let test_prometheus_golden () =
  with_telemetry (fun () ->
      let c = T.Metrics.counter "test_golden_counter" in
      let h = T.Metrics.histogram "test_golden_hist" in
      T.Metrics.add c 7;
      List.iter (T.Metrics.observe h) [ 1; 3; 3 ];
      let text = T.Export.prometheus () in
      let expect_lines =
        [
          "# TYPE test_golden_counter counter";
          "test_golden_counter 7";
          "# TYPE test_golden_hist histogram";
          "test_golden_hist_bucket{le=\"1\"} 1";
          "test_golden_hist_bucket{le=\"3\"} 3";
          "test_golden_hist_bucket{le=\"+Inf\"} 3";
          "test_golden_hist_sum 7";
          "test_golden_hist_count 3";
        ]
      in
      let lines = String.split_on_char '\n' text in
      List.iter
        (fun want ->
          if not (List.mem want lines) then
            Alcotest.failf "missing line %S in:\n%s" want text)
        expect_lines;
      (* the golden histogram block appears contiguously *)
      let rec find = function
        | "# TYPE test_golden_hist histogram" :: rest -> rest
        | _ :: rest -> find rest
        | [] -> Alcotest.fail "histogram block missing"
      in
      match find lines with
      | b1 :: b3 :: binf :: sum :: count :: _ ->
        Alcotest.(check (list string))
          "histogram block"
          [
            "test_golden_hist_bucket{le=\"1\"} 1";
            "test_golden_hist_bucket{le=\"3\"} 3";
            "test_golden_hist_bucket{le=\"+Inf\"} 3";
            "test_golden_hist_sum 7";
            "test_golden_hist_count 3";
          ]
          [ b1; b3; binf; sum; count ]
      | _ -> Alcotest.fail "histogram block truncated")

let test_export_empty_registry () =
  (* Straight after a reset, nothing has fired: the prometheus text must
     contain no metric lines at all (zero-valued registrations are
     omitted), and the JSON document must still parse with empty
     counter/histogram objects. *)
  with_telemetry (fun () ->
      let text = T.Export.prometheus () in
      List.iter
        (fun line ->
          if line <> "" && not (String.starts_with ~prefix:"# " line) then
            Alcotest.failf "empty registry exported %S" line)
        (String.split_on_char '\n' text);
      let doc =
        match J.parse (T.Export.json ()) with
        | Ok j -> j
        | Error m -> Alcotest.failf "empty export does not parse: %s" m
      in
      match (J.path [ "counters" ] doc, J.path [ "histograms" ] doc) with
      | Some _, Some _ -> ()
      | _ -> Alcotest.fail "empty export lacks counters/histograms objects")

let test_export_singleton_registry () =
  (* One counter fired once: exactly that metric appears, with its TYPE
     header, and the JSON agrees on the value. *)
  with_telemetry (fun () ->
      let c = T.Metrics.counter "test_singleton_counter" in
      T.Metrics.incr c;
      let lines = String.split_on_char '\n' (T.Export.prometheus ()) in
      Alcotest.(check bool) "TYPE header present" true
        (List.mem "# TYPE test_singleton_counter counter" lines);
      Alcotest.(check bool) "value line present" true
        (List.mem "test_singleton_counter 1" lines);
      let other_metrics =
        List.filter
          (fun l ->
            l <> "" && (not (String.starts_with ~prefix:"# " l))
            && not (String.starts_with ~prefix:"test_singleton_counter" l))
          lines
      in
      Alcotest.(check (list string)) "no other metrics" [] other_metrics;
      match J.parse (T.Export.json ()) with
      | Error m -> Alcotest.failf "singleton export does not parse: %s" m
      | Ok doc -> begin
        match
          Option.bind (J.path [ "counters"; "test_singleton_counter" ] doc) J.to_float
        with
        | Some v -> Alcotest.(check (float 0.0)) "json value" 1.0 v
        | None -> Alcotest.fail "singleton counter missing from json"
      end)

let test_json_export_parses () =
  with_telemetry (fun () ->
      let c = T.Metrics.counter "test_json_counter" in
      T.Metrics.incr c;
      T.emit E.Update_begin ~a:1 ~b:2 ~c:3;
      let doc =
        match J.parse (T.Export.json ()) with
        | Ok j -> j
        | Error m -> Alcotest.failf "export does not parse: %s" m
      in
      let num path =
        match Option.bind (J.path path doc) J.to_float with
        | Some v -> v
        | None ->
          Alcotest.failf "missing %s in %s" (String.concat "." path)
            (T.Export.json ())
      in
      Alcotest.(check (float 0.0)) "counter" 1.0
        (num [ "counters"; "test_json_counter" ]);
      Alcotest.(check (float 0.0)) "emitted" 1.0 (num [ "events"; "emitted" ]))

(* ------------------------------------------------------------------ *)
(* the two sampling tiers *)

let test_claim_flag_sampling () =
  with_telemetry (fun () ->
      (* drain any standing arm (enable + reset both arm the trigger, and
         the first claim's time-gated re-arm re-arms once more) *)
      let rec drain_arms n =
        if n > 0 && T.ctx_sampled (T.check_begin ()) then drain_arms (n - 1)
      in
      drain_arms 10;
      Alcotest.(check bool) "unarmed check is not sampled" false
        (T.ctx_sampled (T.check_begin ()));
      (* a structural event arms the trigger; exactly one check claims it *)
      T.emit E.Update_begin ~a:0 ~b:0 ~c:0;
      let ctx = T.check_begin () in
      Alcotest.(check bool) "first check after an event is sampled" true
        (T.ctx_sampled ctx);
      T.check_end ctx ~outcome:0 ~slot:4 ~target:0x40 ~retries:1;
      let evs =
        List.filter (fun e -> e.E.kind = E.Check_pass) (T.drain ())
      in
      Alcotest.(check bool) "sampled check left a trace event" true
        (List.exists (fun e -> e.E.a = 4 && e.E.b = 0x40 && e.E.c = 1) evs);
      (* disabled: the bracket is free and inert *)
      T.disable ();
      Alcotest.(check int) "disabled ctx" 0 (T.check_begin ());
      T.enable ())

let test_detail_mode_counts () =
  with_telemetry ~detail:true (fun () ->
      for i = 1 to 100 do
        let ctx = T.check_begin () in
        Alcotest.(check bool) "detail ctx is active" true (T.ctx_active ctx);
        let outcome = if i <= 90 then 0 else if i <= 97 then 1 else 2 in
        T.check_end ctx ~outcome ~slot:0 ~target:0
          ~retries:(if i mod 10 = 0 then 2 else 0)
      done;
      let ct = T.check_totals () in
      Alcotest.(check int) "checks" 100 ct.T.cc_checks;
      Alcotest.(check int) "passes" 90 ct.T.cc_passes;
      Alcotest.(check int) "violations" 7 ct.T.cc_violations;
      Alcotest.(check int) "exhausted" 3 ct.T.cc_exhausted;
      Alcotest.(check int) "retries" 20 ct.T.cc_retries;
      T.fast_check ();
      T.fast_check ();
      T.fast_retry ();
      let fc, fr = T.fast_totals () in
      Alcotest.(check int) "fast checks" 2 fc;
      Alcotest.(check int) "fast retries" 1 fr)

(* ------------------------------------------------------------------ *)
(* the acceptance property: a torture run's merged trace is coherent *)

let test_torture_trace_coherent () =
  with_telemetry (fun () ->
      let sc =
        {
          (Stress.default ~seed:0x0B5E7EL) with
          Stress.updates = 400;
          kill_every = 0;
        }
      in
      let r = Stress.run sc in
      Alcotest.(check int) "no anomalies" 0 (List.length r.Stress.rp_anomalies);
      let trace = T.drain () in
      Alcotest.(check bool) "trace is drainable and non-empty" true
        (trace <> []);
      (* every install span is balanced: an Update_begin for version v is
         followed (in global order) by exactly one Update_commit for v *)
      let begins = Hashtbl.create 64 and commits = Hashtbl.create 64 in
      List.iter
        (fun e ->
          match e.E.kind with
          | E.Update_begin ->
            Alcotest.(check bool) "no duplicate begin" false
              (Hashtbl.mem begins e.E.a);
            Hashtbl.replace begins e.E.a e.E.seq
          | E.Update_commit ->
            (match Hashtbl.find_opt begins e.E.a with
            | None -> Alcotest.failf "commit v%d without begin" e.E.a
            | Some bseq ->
              Alcotest.(check bool) "commit after its begin" true
                (bseq < e.E.seq));
            Alcotest.(check bool) "no duplicate commit" false
              (Hashtbl.mem commits e.E.a);
            Hashtbl.replace commits e.E.a e.E.seq
          | _ -> ())
        trace;
      Hashtbl.iter
        (fun v _ ->
          if not (Hashtbl.mem commits v) then
            Alcotest.failf "begin v%d without commit" v)
        begins;
      Alcotest.(check int) "every install traced both ends"
        r.Stress.rp_installs (Hashtbl.length commits);
      (* every watchdog fire happened while some install span was live:
         a begin at a smaller seq whose commit has a larger seq *)
      List.iter
        (fun e ->
          if e.E.kind = E.Watchdog_fire then begin
            let attributable = ref false in
            Hashtbl.iter
              (fun v bseq ->
                match Hashtbl.find_opt commits v with
                | Some cseq when bseq < e.E.seq && e.E.seq < cseq ->
                  attributable := true
                | _ -> ())
              begins;
            if not !attributable then
              Alcotest.failf "watchdog fire #%d not inside any install span"
                e.E.seq
          end)
        trace)

let () =
  Alcotest.run "telemetry"
    [
      ( "rings",
        [
          Alcotest.test_case "wraparound keeps most recent" `Quick
            test_ring_wraparound;
          Alcotest.test_case "concurrent writers" `Quick
            test_concurrent_writers;
        ] );
      ( "histograms",
        [ Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets ]
      );
      ( "exporters",
        [
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "empty registry" `Quick test_export_empty_registry;
          Alcotest.test_case "singleton registry" `Quick
            test_export_singleton_registry;
          Alcotest.test_case "json parses" `Quick test_json_export_parses;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "claim-flag default" `Quick
            test_claim_flag_sampling;
          Alcotest.test_case "detail-mode exact counts" `Quick
            test_detail_mode_counts;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "torture trace coherent" `Quick
            test_torture_trace_coherent;
        ] );
    ]

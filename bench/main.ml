(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§8), plus the §7 CFG-generation timing and the
   ablations called out in DESIGN.md.

   Sections (pass names as CLI arguments to run a subset):
     table1   - Table 1: C1 violations and false-positive elimination
     table2   - Table 2: K1/K2 classification of remaining cases
     table3   - Table 3: IBs / IBTs / EQCs per benchmark, x86-32 and
                x86-64 flavours (tail-call optimization off/on)
     fig5     - Fig. 5: execution overhead of instrumentation, no
                concurrent update transactions
     fig6     - Fig. 6: overhead with a 50 Hz update-transaction thread
     txmicro  - §8.1 micro-benchmark: normalized check-transaction time
                for MCFI / TML / RW-lock / CAS-mutex (Bechamel)
     space    - §8.1 space overhead: code-size increase and table sizes
     air      - §8.3 AIR metric per CFI policy
     rop      - §8.3 ROP-gadget elimination
     cfggen   - §7 CFG-generation speed
     sandbox  - ablation: segmentation (x86-32) vs masking (x86-64)
     tary     - ablation: array Tary vs hash-map Tary lookup cost
     torture  - multi-domain check/update throughput under an update
                storm with mid-install kills, plus check throughput
                during delta installs (not a paper figure)
     telemetry- instrumentation overhead: torture check throughput and
                tight single-domain check latency with the telemetry
                layer off vs on (budget: <5% throughput loss)
     fuzz     - differential-fuzzing throughput: iterations of the full
                generate → pipeline → oracle-bank loop per second
     dispatch - byte vs threaded execution engines: checks/s through a
                hand-assembled CFI check loop and the tight per-check
                latency, across shard counts (gate: threaded >= 3x)
     json     - machine-readable report: the dlopen-chain scaling curve,
                the install-throughput numbers, the telemetry overhead,
                the fuzzing throughput, the fleet-survival numbers and
                the dispatch comparison, as Benchjson.output_file *)

module Process = Mcfi_runtime.Process
module Machine = Mcfi_runtime.Machine
module Tables = Idtables.Tables
module Tx = Idtables.Tx
module Objfile = Mcfi_compiler.Objfile

let suite = Suite.Programs.all

let line = String.make 78 '-'

(* `--dispatch byte|threaded` selects the execution engine for the
   program-running sections (fig5/fig6/…); the `dispatch` section always
   measures both.  Remaining arguments are section names. *)
let cli_dispatch, cli_sections =
  let rec split = function
    | "--dispatch" :: v :: rest ->
      let d, sections = split rest in
      let d =
        match Mcfi_runtime.Machine.dispatch_of_string v with
        | Ok d' -> (match d with None -> Some d' | some -> some)
        | Error e ->
          Fmt.epr "bench: %s@." e;
          exit 2
      in
      (d, sections)
    | a :: rest ->
      let d, sections = split rest in
      (d, a :: sections)
    | [] -> (None, [])
  in
  match Array.to_list Sys.argv with
  | _ :: args -> split args
  | [] -> (None, [])

let section name title f =
  let wanted = cli_sections = [] || List.mem name cli_sections in
  if wanted then begin
    Fmt.pr "@.%s@.%s (%s)@.%s@." line title name line;
    f ()
  end

(* ------------------------------------------------------------------ *)
(* shared pipeline helpers                                             *)

let checked_info (b : Suite.Programs.benchmark) =
  let src = Suite.Libc.header ^ b.source in
  Minic.Typecheck.check (Minic.Parser.parse ~name:b.name src)

let build ?(instrumented = true) ?(tco = false) (b : Suite.Programs.benchmark) =
  Mcfi.Pipeline.build_process ~instrumented ~tco
    ~sources:[ (b.name, b.source) ]
    ()

let time_run ?(repeats = 5) make_proc =
  (* median-of-n wall time of a full process run *)
  let times =
    List.init repeats (fun _ ->
        let proc = make_proc () in
        (match cli_dispatch with
        | Some d -> Machine.set_dispatch (Process.machine proc) d
        | None -> ());
        Process.start proc;
        let t0 = Unix.gettimeofday () in
        let reason = Machine.run (Process.machine proc) in
        let dt = Unix.gettimeofday () -. t0 in
        (match reason with
        | Machine.Exited 0 -> ()
        | r -> Fmt.epr "warning: run ended with %a@." Machine.pp_exit_reason r);
        (dt, Machine.steps (Process.machine proc)))
  in
  let sorted = List.sort compare (List.map fst times) in
  let median = List.nth sorted (repeats / 2) in
  let steps = snd (List.hd times) in
  (median, steps)

let linked ~instrumented (b : Suite.Programs.benchmark) =
  Mcfi.Pipeline.link_executable ~instrumented
    ~sources:[ (b.name, b.source) ]
    ()

let image_of obj =
  (* a standalone layout: data symbols resolve to a dummy address, which
     leaves instruction sizes (and hence gadget offsets) unchanged *)
  match
    Vmisa.Asm.assemble ~base:Vmisa.Abi.code_base
      ~resolve_data:(fun _ -> Some 16)
      obj.Objfile.o_items
  with
  | Ok prog -> prog.Vmisa.Asm.image
  | Error e -> failwith (Fmt.str "assemble: %a" Vmisa.Asm.pp_error e)

(* ------------------------------------------------------------------ *)

let table1 () =
  Fmt.pr "%-12s %5s %4s %4s %4s %4s %4s %4s %5s@." "benchmark" "SLOC" "VBE"
    "UC" "DC" "MF" "SU" "NF" "VAE";
  List.iter
    (fun (b : Suite.Programs.benchmark) ->
      let r = Minic.Analyzer.analyze ~source:b.source (checked_info b) in
      Fmt.pr "%-12s %5d %4d %4d %4d %4d %4d %4d %5d@." b.name r.sloc r.vbe
        r.uc r.dc r.mf r.su r.nf r.vae)
    suite;
  (* the libc row corresponds to the paper's MUSL paragraph (§7) *)
  let info =
    Minic.Typecheck.check (Minic.Parser.parse ~name:"libc" Suite.Libc.source)
  in
  let r = Minic.Analyzer.analyze ~source:Suite.Libc.source info in
  Fmt.pr "%-12s %5d %4d %4d %4d %4d %4d %4d %5d@." "libc" r.sloc r.vbe r.uc
    r.dc r.mf r.su r.nf r.vae

let table2 () =
  Fmt.pr "%-12s %4s %4s@." "benchmark" "K1" "K2";
  List.iter
    (fun (b : Suite.Programs.benchmark) ->
      let r = Minic.Analyzer.analyze ~source:b.source (checked_info b) in
      if r.vae > 0 then Fmt.pr "%-12s %4d %4d@." b.name r.k1 r.k2)
    suite;
  Fmt.pr "(benchmarks with zero remaining violations omitted, as in the paper)@."

let table3 () =
  Fmt.pr "%-12s | %6s %6s %6s | %6s %6s %6s@." "" "x86-32" "" "" "x86-64" ""
    "";
  Fmt.pr "%-12s | %6s %6s %6s | %6s %6s %6s@." "benchmark" "IBs" "IBTs"
    "EQCs" "IBs" "IBTs" "EQCs";
  List.iter
    (fun (b : Suite.Programs.benchmark) ->
      let stats tco =
        let proc = build ~tco b in
        Option.get (Process.cfg_stats proc)
      in
      let s32 = stats false in
      (* the x86-64 flavour: LLVM's tail-call optimization on *)
      let s64 = stats true in
      Fmt.pr "%-12s | %6d %6d %6d | %6d %6d %6d@." b.name
        s32.Cfg.Cfggen.n_ibs s32.n_ibts s32.n_eqcs s64.n_ibs s64.n_ibts
        s64.n_eqcs)
    suite

let fig5 () =
  Fmt.pr "%-12s %10s %10s %8s %10s %10s %8s@." "benchmark" "plain(ms)"
    "mcfi(ms)" "time%" "plain(Mi)" "mcfi(Mi)" "instr%";
  let tsum = ref 0.0 and isum = ref 0.0 and n = ref 0 in
  List.iter
    (fun (b : Suite.Programs.benchmark) ->
      let t_plain, s_plain = time_run (fun () -> build ~instrumented:false b) in
      let t_mcfi, s_mcfi = time_run (fun () -> build ~instrumented:true b) in
      let tpct = 100.0 *. ((t_mcfi /. t_plain) -. 1.0) in
      let ipct =
        100.0 *. ((float_of_int s_mcfi /. float_of_int s_plain) -. 1.0)
      in
      tsum := !tsum +. tpct;
      isum := !isum +. ipct;
      incr n;
      Fmt.pr "%-12s %10.1f %10.1f %7.1f%% %10.2f %10.2f %7.1f%%@." b.name
        (t_plain *. 1000.) (t_mcfi *. 1000.) tpct
        (float_of_int s_plain /. 1e6)
        (float_of_int s_mcfi /. 1e6)
        ipct)
    suite;
  Fmt.pr "%-12s %10s %10s %7.1f%% %10s %10s %7.1f%%@." "average" "" ""
    (!tsum /. float_of_int !n) "" ""
    (!isum /. float_of_int !n);
  Fmt.pr
    "(time%% is wall-clock on the simulator; instr%% is retired-instruction@.\
    \ overhead - the simulator executes check reads serially, where the@.\
    \ paper's CPU issues the two table reads in parallel; see EXPERIMENTS.md)@."

(* The paper runs an updater thread at 50 Hz of wall-clock time.  On this
   reproduction's serial simulator (and the single-core CI box it runs
   on), a concurrent domain would only measure OS scheduling, so updates
   fire on the {e simulated} clock instead: one full-table update
   transaction every 200k retired instructions — 50 Hz at the 10 MIPS the
   VM roughly sustains.  An update landing between a check's Bary and
   Tary reads forces the VM through the retry loop, whose instructions
   are part of the measured run, exactly the effect Fig. 6 quantifies.
   (True cross-thread safety is property-tested in test_idtables.) *)
let fig6 () =
  let interval = 200_000 in
  Fmt.pr "%-12s %10s %13s %8s %9s %9s@." "benchmark" "mcfi(ms)"
    "mcfi+50Hz(ms)" "extra%" "updates" "upd(ms)";
  let sum = ref 0.0 and n = ref 0 in
  let stepped_run ~updates (b : Suite.Programs.benchmark) =
    let proc = build ~instrumented:true b in
    let tables = Option.get (Process.tables proc) in
    Process.start proc;
    let m = Process.machine proc in
    let count = ref 0 in
    let upd_time = ref 0.0 in
    let t0 = Unix.gettimeofday () in
    let rec go next_update =
      match Machine.step m with
      | Some reason -> reason
      | None ->
        if updates && Machine.steps m >= next_update then begin
          let u0 = Unix.gettimeofday () in
          ignore (Tx.refresh tables);
          upd_time := !upd_time +. (Unix.gettimeofday () -. u0);
          incr count;
          go (next_update + interval)
        end
        else go next_update
    in
    let reason = go interval in
    let dt = Unix.gettimeofday () -. t0 in
    (match reason with
    | Machine.Exited 0 -> ()
    | r -> Fmt.epr "warning: run ended with %a@." Machine.pp_exit_reason r);
    (dt, !count, !upd_time)
  in
  let median_run ~updates b =
    let runs = List.init 3 (fun _ -> stepped_run ~updates b) in
    let sorted = List.sort compare (List.map (fun (t, _, _) -> t) runs) in
    let _, count, upd = List.hd runs in
    (List.nth sorted 1, count, upd)
  in
  List.iter
    (fun (b : Suite.Programs.benchmark) ->
      let t_mcfi, _, _ = median_run ~updates:false b in
      let t_upd, count, upd_ms = median_run ~updates:true b in
      let pct = 100.0 *. ((t_upd /. t_mcfi) -. 1.0) in
      sum := !sum +. pct;
      incr n;
      Fmt.pr "%-12s %10.1f %13.1f %7.1f%% %9d %9.1f@." b.name
        (t_mcfi *. 1000.) (t_upd *. 1000.) pct count (upd_ms *. 1000.))
    suite;
  Fmt.pr "%-12s %10s %13s %7.1f%%@." "average" "" "" (!sum /. float_of_int !n);
  Fmt.pr
    "(paper: 6-7%% average with 50 Hz updates vs 4-6%% without; upd(ms) is@.\
    \ the exact time spent inside update transactions — wall-clock deltas@.\
    \ beyond it are scheduler noise on a shared single-core host)@."

(* ------------------------------------------------------------------ *)
(* Bechamel helpers                                                    *)

let bechamel_run tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:3000 ~quota:(Time.second 2.0) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  Analyze.all ols Toolkit.Instance.monotonic_clock raw

let estimate results key =
  let open Bechamel in
  match Hashtbl.find_opt results key with
  | Some ols -> begin
    match Analyze.OLS.estimates ols with
    | Some [ est ] -> Some est
    | Some _ | None -> None
  end
  | None -> None

(* §8.1 transaction micro-benchmark *)
let txmicro () =
  let open Bechamel in
  let code_base = 0x1000 in
  let mk (module B : Idtables.Tx_baselines.S) =
    let t = B.create ~code_base ~capacity:4096 ~bary_slots:64 in
    let tary = List.init 256 (fun k -> (code_base + (4 * k), k mod 8)) in
    let bary = List.init 64 (fun k -> (k, k mod 8)) in
    B.update t ~tary ~bary;
    (* one passing check per run: exactly the operation the paper times
       (tary slot 3 has ECN 3, matching bary slot 3) *)
    let target = code_base + (4 * 3) in
    assert (B.check t ~bary_index:3 ~target);
    Test.make ~name:B.name
      (Staged.stage (fun () -> ignore (B.check t ~bary_index:3 ~target)))
  in
  let tests =
    Test.make_grouped ~name:"check-tx"
      [
        mk (module Idtables.Tx_baselines.Mcfi);
        mk (module Idtables.Tx_baselines.Tml);
        mk (module Idtables.Tx_baselines.Rwlock);
        mk (module Idtables.Tx_baselines.Cas_mutex);
      ]
  in
  let results = bechamel_run tests in
  let mcfi =
    Option.value ~default:1.0 (estimate results "check-tx/mcfi")
  in
  Fmt.pr "%-8s %14s %12s@." "scheme" "ns/check" "normalized";
  List.iter
    (fun name ->
      match estimate results ("check-tx/" ^ name) with
      | Some ns -> Fmt.pr "%-8s %14.1f %12.2f@." name ns (ns /. mcfi)
      | None -> Fmt.pr "%-8s (no estimate)@." name)
    [ "mcfi"; "tml"; "rwlock"; "mutex" ];
  Fmt.pr "(paper reports MCFI=1, TML=2, RWL=29, Mutex=22 on real hardware)@."

(* ------------------------------------------------------------------ *)

let space () =
  Fmt.pr "%-12s %10s %10s %8s %10s@." "benchmark" "plain(B)" "mcfi(B)"
    "code+%" "tables(B)";
  let sum = ref 0.0 and n = ref 0 in
  List.iter
    (fun (b : Suite.Programs.benchmark) ->
      let p = String.length (image_of (linked ~instrumented:false b)) in
      let mcfi = linked ~instrumented:true b in
      let m = String.length (image_of mcfi) in
      let pct = 100.0 *. ((float_of_int m /. float_of_int p) -. 1.0) in
      sum := !sum +. pct;
      incr n;
      (* Tary: one 4-byte slot per 4 code bytes = code size; Bary: 4B/slot *)
      let tables = m + (4 * List.length mcfi.Objfile.o_sites) in
      Fmt.pr "%-12s %10d %10d %7.1f%% %10d@." b.name p m pct tables)
    suite;
  Fmt.pr "%-12s %10s %10s %7.1f%%@." "average" "" "" (!sum /. float_of_int !n);
  Fmt.pr "(paper: ~17%% static code-size increase; runtime tables = code size)@."

let air () =
  (* average AIR over the suite per policy, like the paper's summary *)
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (b : Suite.Programs.benchmark) ->
      let proc = build ~instrumented:true b in
      let input = Process.cfg_input proc in
      let code_bytes =
        Machine.code_end (Process.machine proc) - Vmisa.Abi.code_base
      in
      List.iter
        (fun (name, v) ->
          let sum, k =
            Option.value ~default:(0.0, 0) (Hashtbl.find_opt totals name)
          in
          Hashtbl.replace totals name (sum +. v, k + 1))
        (Security.Air.table ~input ~code_bytes))
    suite;
  Fmt.pr "%-12s %8s@." "policy" "AIR";
  List.iter
    (fun p ->
      let name = Security.Policies.name p in
      match Hashtbl.find_opt totals name with
      | Some (sum, k) -> Fmt.pr "%-12s %8.4f@." name (sum /. float_of_int k)
      | None -> ())
    Security.Policies.all;
  Fmt.pr "(paper: MCFI 0.9960/0.9999 beats binCFI 0.987/0.988 and chunk CFI)@."

let rop () =
  Fmt.pr "%-12s %9s %9s %8s@." "benchmark" "gadgets" "surviving" "elim%";
  let sum = ref 0.0 and n = ref 0 in
  List.iter
    (fun (b : Suite.Programs.benchmark) ->
      (* original binary: the plain build's byte image; depth 12 so that
         even whole check-sequence prefixes count as candidate gadgets *)
      let max_len = 12 in
      let original =
        Security.Gadget.scan ~max_len ~base:Vmisa.Abi.code_base
          (image_of (linked ~instrumented:false b))
      in
      (* hardened binary: scan the instrumented process's loaded image;
         only gadget starts that are valid aligned Tary targets remain
         reachable through checked branches *)
      let proc = build ~instrumented:true b in
      let tables = Option.get (Process.tables proc) in
      let hardened =
        Security.Gadget.scan ~max_len ~base:Vmisa.Abi.code_base
          (image_of (linked ~instrumented:true b))
      in
      let valid addr = Idtables.Id.valid (Tables.tary_read tables addr) in
      let surviving =
        Security.Gadget.survivors ~valid_targets:valid hardened
      in
      let total = Security.Gadget.count_unique original in
      let surv = Security.Gadget.count_unique surviving in
      let rate = Security.Gadget.elimination_rate ~total ~surviving:surv in
      sum := !sum +. rate;
      incr n;
      Fmt.pr "%-12s %9d %9d %7.2f%%@." b.name total surv rate)
    suite;
  Fmt.pr "%-12s %9s %9s %7.2f%%@." "average" "" "" (!sum /. float_of_int !n);
  Fmt.pr "(paper: 96.93%%/95.75%% of gadgets eliminated on x86-32/64)@."

let cfggen () =
  Fmt.pr "%-12s %10s %10s %12s@." "benchmark" "code(B)" "cfg(ms)" "ms/MB";
  List.iter
    (fun (b : Suite.Programs.benchmark) ->
      let proc = build ~instrumented:true b in
      let code_bytes =
        Machine.code_end (Process.machine proc) - Vmisa.Abi.code_base
      in
      (* time fresh regenerations on the loaded process *)
      let input = Process.cfg_input proc in
      let t0 = Unix.gettimeofday () in
      let rounds = 20 in
      for _ = 1 to rounds do
        ignore (Cfg.Cfggen.generate input)
      done;
      let ms = (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int rounds in
      Fmt.pr "%-12s %10d %10.2f %12.1f@." b.name code_bytes ms
        (ms /. (float_of_int code_bytes /. 1e6)))
    suite;
  Fmt.pr "(paper: ~150 ms for gcc's 2.7 MB of code)@.";
  (* scaling curve: an N-module dlopen chain, each link timed under full
     regeneration and under the incremental linker (oracle-checked) *)
  Fmt.pr "@.dlopen chain (per-link wall time, min of rounds):@.";
  Fmt.pr "%-8s %10s %10s %9s@." "module" "full(ms)" "incr(ms)" "speedup";
  let samples = Mcfi.Benchjson.dlopen_chain ~modules:16 ~fns:24 ~rounds:4 () in
  List.iter
    (fun s ->
      Fmt.pr "%-8d %10.3f %10.3f %8.1fx@." s.Mcfi.Benchjson.ls_module
        s.Mcfi.Benchjson.ls_full_ms s.Mcfi.Benchjson.ls_incr_ms
        (s.Mcfi.Benchjson.ls_full_ms /. s.Mcfi.Benchjson.ls_incr_ms))
    samples;
  Fmt.pr
    "(full regenerates the whole CFG per load; incr merges the new module@.\
    \ and installs a delta — §7's \"a few milliseconds per dlopen\")@."

(* Ablation: the sandboxing flavours of §5.1 — x86-32 memory segmentation
   (stores confined in hardware, no extra instructions) vs. x86-64 address
   masking (an AND-clipped effective address per non-stack store). The
   paper's Fig. 5 reports x86-32 slightly cheaper partly for this reason;
   here the difference is isolated exactly. *)
let sandbox_ablation () =
  Fmt.pr "%-12s %10s %10s %9s %10s %10s %8s@." "benchmark" "seg(Mi)"
    "mask(Mi)" "instrΔ%" "seg(B)" "mask(B)" "sizeΔ%";
  let isum = ref 0.0 and ssum = ref 0.0 and n = ref 0 in
  List.iter
    (fun (b : Suite.Programs.benchmark) ->
      let run sandbox =
        let proc =
          Mcfi.Pipeline.build_process ~sandbox ~sources:[ (b.name, b.source) ]
            ()
        in
        Process.start proc;
        (match Machine.run (Process.machine proc) with
        | Machine.Exited 0 -> ()
        | r -> Fmt.epr "warning: %a@." Machine.pp_exit_reason r);
        let steps = Machine.steps (Process.machine proc) in
        let bytes =
          Machine.code_end (Process.machine proc) - Vmisa.Abi.code_base
        in
        (steps, bytes)
      in
      let seg_i, seg_b = run Vmisa.Abi.Segment in
      let mask_i, mask_b = run Vmisa.Abi.Mask in
      let ipct =
        100.0 *. ((float_of_int mask_i /. float_of_int seg_i) -. 1.0)
      in
      let spct =
        100.0 *. ((float_of_int mask_b /. float_of_int seg_b) -. 1.0)
      in
      isum := !isum +. ipct;
      ssum := !ssum +. spct;
      incr n;
      Fmt.pr "%-12s %10.2f %10.2f %8.1f%% %10d %10d %7.1f%%@." b.name
        (float_of_int seg_i /. 1e6)
        (float_of_int mask_i /. 1e6)
        ipct seg_b mask_b spct)
    suite;
  Fmt.pr "%-12s %10s %10s %8.1f%% %10s %10s %7.1f%%@." "average" "" ""
    (!isum /. float_of_int !n)
    "" ""
    (!ssum /. float_of_int !n);
  Fmt.pr
    "(segmentation = the paper's x86-32 design, masking = x86-64; the delta@.\
    \ is the pure cost of software write sandboxing)@."

(* ablation: array-backed Tary vs a hash-map Tary *)
let tary () =
  let open Bechamel in
  let code_base = 0x1000 in
  let n = 4096 in
  let tables = Tables.create ~code_base ~capacity:(4 * n) ~bary_slots:4 () in
  ignore
    (Tx.update tables
       ~tary:(List.init n (fun k -> (code_base + (4 * k), k mod 16)))
       ~bary:[ (0, 0) ]);
  let hash = Hashtbl.create n in
  List.iteri
    (fun k (addr, ecn) ->
      ignore k;
      Hashtbl.replace hash addr (Idtables.Id.pack ~ecn ~version:1))
    (List.init n (fun k -> (code_base + (4 * k), k mod 16)));
  let tests =
    Test.make_grouped ~name:"tary"
      [
        Test.make ~name:"array"
          (Staged.stage (fun () ->
               for k = 0 to 255 do
                 ignore
                   (Tables.tary_read tables (code_base + (4 * (k * 7 mod n))))
               done));
        Test.make ~name:"hashmap"
          (Staged.stage (fun () ->
               for k = 0 to 255 do
                 ignore
                   (Hashtbl.find_opt hash (code_base + (4 * (k * 7 mod n))))
               done));
      ]
  in
  let results = bechamel_run tests in
  Fmt.pr "%-8s %14s@." "repr" "ns/256 reads";
  List.iter
    (fun name ->
      match estimate results ("tary/" ^ name) with
      | Some est -> Fmt.pr "%-8s %14.1f@." name est
      | None -> Fmt.pr "%-8s (no estimate)@." name)
    [ "array"; "hashmap" ];
  Fmt.pr "(the paper chooses the array for exactly this lookup-cost reason)@."

(* ---- torture: multi-domain throughput under an update storm ---- *)

(* Not a paper figure: the robustness work's regression guard.  One
   acceptance-shaped scenario (4 checkers, 2 updaters, past the 2^14
   version wall, mid-install kills) reporting check/update throughput and
   the recovery counters. *)
let torture () =
  let sc = Stress.default ~seed:0xBE7C4L in
  Fmt.pr "%a@." Stress.pp_scenario sc;
  let r = Stress.run sc in
  Fmt.pr "%a@." Stress.pp_report r;
  Fmt.pr "throughput: %.0f checks/s, %.0f installs/s@."
    (float_of_int r.Stress.rp_checks /. r.Stress.rp_elapsed_s)
    (float_of_int r.Stress.rp_installs /. r.Stress.rp_elapsed_s);
  if r.Stress.rp_anomalies <> [] then
    Fmt.pr "WARNING: oracle anomalies above — investigate before trusting \
            the numbers@.";
  Fmt.pr "@.check throughput during delta installs:@.";
  let tp = Stress.install_throughput ~seed:0x1DE17AL () in
  Fmt.pr
    "%d checks (%.0f/s overall), %d delta installs (%.0f/s, %d with \
     carries)@.%.0f checks/s during install windows (%.1f%% of wall time \
     installing)@."
    tp.Stress.tp_checks
    (float_of_int tp.Stress.tp_checks /. tp.Stress.tp_elapsed_s)
    tp.Stress.tp_installs
    (float_of_int tp.Stress.tp_installs /. tp.Stress.tp_elapsed_s)
    tp.Stress.tp_carries
    (float_of_int tp.Stress.tp_checks_during_install /. tp.Stress.tp_install_s)
    (100.0 *. tp.Stress.tp_install_s /. tp.Stress.tp_elapsed_s)

(* ---- telemetry: the cost of observing ---- *)

type overhead = {
  oh_disabled_cps : float;  (* torture checks/s, telemetry off *)
  oh_enabled_cps : float;  (* the same scenario, telemetry on *)
  oh_ratio : float;  (* median of per-pair enabled/disabled ratios *)
  oh_tight_disabled_ns : float;  (* single-domain Tx.check, off *)
  oh_tight_enabled_ns : float;  (* single-domain Tx.check, on *)
}

(* Two views of the same budget.  The torture ratio is the acceptance
   number (the instrumented paths under a realistic multi-domain load,
   harness costs identical on both sides); the tight loop is the honest
   per-check price with nothing amortizing it.  Many short interleaved
   runs: multi-domain throughput on a small machine is at the mercy of
   the scheduler (a 1-core box time-slices all seven domains, and a
   single run's throughput swings ±30%).  The reported ratio is the
   median of the {e per-pair} enabled/disabled ratios, not the ratio of
   two medians: each pair runs back to back under near-identical
   scheduler conditions, so slow drift across the campaign cancels
   inside every pair instead of landing on one side of the quotient. *)
let overhead_pairs = 21

let telemetry_overhead () =
  let was_enabled = Telemetry.enabled () in
  let sc =
    { (Stress.default ~seed:0x7E1E0L) with updates = 1024; kill_every = 0 }
  in
  let run_cps () =
    let r = Stress.run sc in
    float_of_int r.Stress.rp_checks /. r.Stress.rp_elapsed_s
  in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  Telemetry.disable ();
  Gc.compact ();
  ignore (run_cps ());
  let offs = ref [] and ons = ref [] in
  for _ = 1 to overhead_pairs do
    Telemetry.disable ();
    let off = run_cps () in
    Telemetry.enable ();
    let on = run_cps () in
    offs := off :: !offs;
    ons := on :: !ons
  done;
  (* ratio of median throughputs, not median of per-pair ratios: a
     scheduling stall poisons whichever side it lands on, and on a
     loaded (or single-core) box enough pairs catch one that the
     per-pair median drifts; the per-side medians discard them *)
  let disabled_cps = median !offs and enabled_cps = median !ons in
  let ratio = enabled_cps /. disabled_cps in
  (* the tight loop: one passing check, nothing else *)
  let code_base = 0x1000 in
  let t = Tables.create ~code_base ~capacity:4096 ~bary_slots:64 () in
  ignore
    (Tx.update t
       ~tary:(List.init 256 (fun k -> (code_base + (4 * k), k mod 8)))
       ~bary:(List.init 64 (fun k -> (k, k mod 8))));
  let target = code_base + (4 * 3) in
  let iters = 2_000_000 in
  let tight () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Tx.check t ~bary_index:3 ~target)
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let best_ns n f =
    List.fold_left Float.min infinity (List.init n (fun _ -> f ()))
  in
  Telemetry.disable ();
  let tight_disabled = best_ns 3 tight in
  Telemetry.enable ();
  let tight_enabled = best_ns 3 tight in
  Telemetry.reset ();
  if not was_enabled then Telemetry.disable ();
  {
    oh_disabled_cps = disabled_cps;
    oh_enabled_cps = enabled_cps;
    oh_ratio = ratio;
    oh_tight_disabled_ns = tight_disabled;
    oh_tight_enabled_ns = tight_enabled;
  }

let telemetry_section () =
  let oh = telemetry_overhead () in
  let ratio = oh.oh_ratio in
  Fmt.pr
    "torture check throughput (4 checkers, 2 updaters, medians over %d \
     interleaved pairs):@."
    overhead_pairs;
  Fmt.pr "  telemetry off  %12.0f checks/s@." oh.oh_disabled_cps;
  Fmt.pr "  telemetry on   %12.0f checks/s@." oh.oh_enabled_cps;
  Fmt.pr "  ratio %.3f (budget: >= 0.95) — overhead %.1f%%@." ratio
    (100.0 *. (1.0 -. ratio));
  Fmt.pr "@.tight single-domain passing check:@.";
  Fmt.pr "  telemetry off  %8.1f ns/check@." oh.oh_tight_disabled_ns;
  Fmt.pr "  telemetry on   %8.1f ns/check@." oh.oh_tight_enabled_ns;
  Fmt.pr
    "(the torture ratio is the acceptance number; the tight loop is the@.\
    \ un-amortized per-check price of the sampled-event design)@.";
  if ratio < 0.95 then
    Fmt.pr "WARNING: telemetry overhead exceeds the 5%% budget@."

(* ---- fuzz: differential-fuzzing throughput ---- *)

(* One iteration = generate a program, build it instrumented and
   uninstrumented, run both, and drive all five differential oracles.
   The seed is fixed so the workload is identical across runs. *)
let fuzz_throughput () =
  Fuzz.Driver.run
    {
      Fuzz.Driver.c_seed = 0xBE7CBL;
      c_iters = 40;
      c_time_budget = 0.;
      c_corpus_dir = None;
      c_drop_check = None;
    }

let fuzz_section () =
  let oc = fuzz_throughput () in
  (match oc.Fuzz.Driver.oc_failure with
  | None -> ()
  | Some rp ->
    failwith
      (Printf.sprintf "fuzz bench hit an oracle failure (seed %Ld): %s"
         rp.Fuzz.Driver.rp_seed rp.Fuzz.Driver.rp_failure.Fuzz.Oracle.f_msg));
  Fmt.pr "full generate → pipeline → oracle-bank loop, fixed seed:@.";
  Fmt.pr "  %d iterations in %.1f s — %.2f iters/s@." oc.Fuzz.Driver.oc_iters
    oc.Fuzz.Driver.oc_elapsed
    (float_of_int oc.Fuzz.Driver.oc_iters /. oc.Fuzz.Driver.oc_elapsed)

(* ---- dispatch: byte vs threaded execution engines ---- *)

(* The measured program is the enforcement hot path itself: a
   hand-assembled loop whose body is exactly the rewriter's check
   sequence — Bary_load; Tary_load; Cmp_rr; Jcc; Jmp_r — with the
   branch target being the loop head, so every iteration is one passing
   CFI check plus one committed indirect jump.  Under the byte engine
   each iteration pays five fetch/decode/dispatch steps; under the
   threaded engine it is a single fused check+Jmp_r superinstruction
   whose hoisted table cache hits every time (the tables never move
   during the loop).  Five retired instructions per iteration under
   both engines, so checks/s and ns/check divide out identically. *)

let dispatch_slot = 3
let dispatch_class = 5

let dispatch_loop_items =
  Vmisa.Asm.
    [
      Mov_sym (12, "loop");
      Align 4;
      Label "loop";
      I (Vmisa.Instr.Bary_load (13, dispatch_slot));
      I (Vmisa.Instr.Tary_load (11, 12));
      I (Vmisa.Instr.Cmp_rr (13, 11));
      Jcc_sym (Vmisa.Instr.Ne, "check");
      I (Vmisa.Instr.Jmp_r 12);
      Label "check";
      I Vmisa.Instr.Halt;
    ]

(* instructions retired before the loop head: Mov_ri + two alignment
   Nops *)
let dispatch_prologue_steps = 3

let dispatch_loop_measure ~tables ~engine ~checks =
  let code_base = Tables.code_base tables in
  let prog =
    match Vmisa.Asm.assemble ~base:code_base dispatch_loop_items with
    | Ok p -> p
    | Error e -> failwith (Fmt.str "dispatch bench: %a" Vmisa.Asm.pp_error e)
  in
  let loop_addr = Hashtbl.find prog.Vmisa.Asm.labels "loop" in
  ignore
    (Tx.update tables
       ~tary:[ (loop_addr, dispatch_class) ]
       ~bary:[ (dispatch_slot, dispatch_class) ]);
  let m =
    Machine.create ~tables ~dispatch:engine ~code_base
      ~code_capacity:4096 ~data_words:4096 ()
  in
  ignore (Machine.append_code m prog.Vmisa.Asm.image);
  (* warm-up: fill the decode memo (byte) / pre-decoded stream
     (threaded) outside the timed window *)
  Machine.set_pc m code_base;
  (match Machine.run ~fuel:64 m with
  | Machine.Out_of_fuel -> ()
  | r -> failwith (Fmt.str "dispatch bench warm-up: %a" Machine.pp_exit_reason r));
  Machine.set_pc m code_base;
  let s0 = Machine.steps m in
  let fuel = dispatch_prologue_steps + (5 * checks) in
  let t0 = Unix.gettimeofday () in
  (match Machine.run ~fuel m with
  | Machine.Out_of_fuel -> ()
  | r -> failwith (Fmt.str "dispatch bench: %a" Machine.pp_exit_reason r));
  let elapsed = Unix.gettimeofday () -. t0 in
  Machine.release m;
  let retired_checks =
    (Machine.steps m - s0 - dispatch_prologue_steps) / 5
  in
  let checks_per_s = float_of_int retired_checks /. elapsed in
  let ns_per_check = elapsed *. 1e9 /. float_of_int retired_checks in
  (checks_per_s, ns_per_check)

type dispatch_row = {
  dr_shards : int;
  dr_byte_cps : float;
  dr_threaded_cps : float;
  dr_byte_ns : float;
  dr_threaded_ns : float;
}

let dispatch_shard_counts = [ 1; 4 ]
let dispatch_checks = 400_000
let dispatch_rounds = 5

let dispatch_measure () =
  let was_enabled = Telemetry.enabled () in
  (* profiling in the byte step and the threaded loop's byte fallback
     both key on the telemetry gate: the engines are only both on their
     fast paths with it off *)
  Telemetry.disable ();
  (* inside the json campaign this runs after the fleet and fuzz
     workloads have grown the major heap; compact first so GC slices do
     not land inside the timed loops *)
  Gc.compact ();
  let best samples =
    List.fold_left
      (fun (bc, bn) (c, n) -> (Float.max bc c, Float.min bn n))
      (neg_infinity, infinity) samples
  in
  let rows =
    List.map
      (fun nsh ->
        let shs =
          Idtables.Shards.create ~shards:nsh ~code_base:Vmisa.Abi.code_base
            ~capacity:4096 ~bary_slots:64 ()
        in
        let tables = Idtables.Shards.tables shs 0 in
        (* interleave the engines' rounds so ambient drift (scheduler,
           GC) hits both sides alike; best-of still picks each engine's
           best round independently *)
        let samples =
          List.init dispatch_rounds (fun _ ->
              let b =
                dispatch_loop_measure ~tables ~engine:Machine.Byte
                  ~checks:dispatch_checks
              in
              let t =
                dispatch_loop_measure ~tables ~engine:Machine.Threaded
                  ~checks:dispatch_checks
              in
              (b, t))
        in
        let byte_cps, byte_ns = best (List.map fst samples) in
        let th_cps, th_ns = best (List.map snd samples) in
        {
          dr_shards = nsh;
          dr_byte_cps = byte_cps;
          dr_threaded_cps = th_cps;
          dr_byte_ns = byte_ns;
          dr_threaded_ns = th_ns;
        })
      dispatch_shard_counts
  in
  if was_enabled then Telemetry.enable ();
  rows

let dispatch_json rows =
  let one = List.hd rows in
  Mcfi.Benchjson.Obj
    [
      ("tight_check_byte_ns", Num one.dr_byte_ns);
      ("tight_check_threaded_ns", Num one.dr_threaded_ns);
      ("tight_check_speedup", Num (one.dr_byte_ns /. one.dr_threaded_ns));
      ( "rows",
        Arr
          (List.map
             (fun r ->
               Mcfi.Benchjson.Obj
                 [
                   ("shards", Num (float_of_int r.dr_shards));
                   ("byte_checks_per_s", Num r.dr_byte_cps);
                   ("threaded_checks_per_s", Num r.dr_threaded_cps);
                   ("byte_check_ns", Num r.dr_byte_ns);
                   ("threaded_check_ns", Num r.dr_threaded_ns);
                 ])
             rows) );
    ]

let dispatch_section () =
  let rows = dispatch_measure () in
  Fmt.pr "interpreted CFI check loop (check + indirect jump), %d checks, \
          best of %d:@."
    dispatch_checks dispatch_rounds;
  List.iter
    (fun r ->
      Fmt.pr
        "  %d shard(s): byte %10.0f checks/s (%6.1f ns) | threaded %10.0f \
         checks/s (%6.1f ns) — %.1fx@."
        r.dr_shards r.dr_byte_cps r.dr_byte_ns r.dr_threaded_cps
        r.dr_threaded_ns
        (r.dr_byte_ns /. r.dr_threaded_ns))
    rows;
  let one = List.hd rows in
  if one.dr_byte_ns /. one.dr_threaded_ns < 3.0 then
    Fmt.pr "WARNING: threaded dispatch below the 3x tight-check gate@."

(* ---- fleet: tenant supervision under an install storm ---- *)

(* A small deterministic fleet: enough tenants and chaos to produce
   kills, restarts and shed admissions, small enough to finish in a few
   hundred milliseconds.  The run must come back clean — an anomaly or
   an unrecovered tenant is a correctness failure, not a slow number. *)
let fleet_run () =
  let r = Supervisor.Fleet.run (Supervisor.Fleet.smoke ~seed:0xF1EE7L) in
  if not (Supervisor.Fleet.ok r) then
    failwith
      (Fmt.str "fleet bench failed its own acceptance gate: %a"
         Supervisor.Fleet.pp_report r);
  r

let fleet_section () =
  let r = fleet_run () in
  Fmt.pr "supervised fleet, seeded chaos (kills, wedge, storm, churn):@.";
  Fmt.pr "  survival %.2f (%d/%d serving), %d quarantined@."
    r.Supervisor.Fleet.fr_survival_rate r.Supervisor.Fleet.fr_survivors
    r.Supervisor.Fleet.fr_config.Supervisor.Fleet.fc_tenants
    r.Supervisor.Fleet.fr_quarantined;
  Fmt.pr "  %d kills, %d restarts; recovery p50 %.1f ms, p99 %.1f ms@."
    r.Supervisor.Fleet.fr_kills r.Supervisor.Fleet.fr_restarts
    r.Supervisor.Fleet.fr_recovery_p50_ms r.Supervisor.Fleet.fr_recovery_p99_ms;
  Fmt.pr "  installs: %d admitted, %d served, %d shed, %d deferred@."
    r.Supervisor.Fleet.fr_admitted r.Supervisor.Fleet.fr_served
    r.Supervisor.Fleet.fr_shed r.Supervisor.Fleet.fr_deferred

let fleet_json r =
  Mcfi.Benchjson.Obj
    [
      ("tenants", Num (float_of_int r.Supervisor.Fleet.fr_config.Supervisor.Fleet.fc_tenants));
      ("survival_rate", Num r.Supervisor.Fleet.fr_survival_rate);
      ("kills", Num (float_of_int r.Supervisor.Fleet.fr_kills));
      ("restarts", Num (float_of_int r.Supervisor.Fleet.fr_restarts));
      ("quarantined", Num (float_of_int r.Supervisor.Fleet.fr_quarantined));
      ("recovery_ms_p50", Num r.Supervisor.Fleet.fr_recovery_p50_ms);
      ("recovery_ms_p99", Num r.Supervisor.Fleet.fr_recovery_p99_ms);
      ("installs_admitted", Num (float_of_int r.Supervisor.Fleet.fr_admitted));
      ("installs_served", Num (float_of_int r.Supervisor.Fleet.fr_served));
      ("installs_shed", Num (float_of_int r.Supervisor.Fleet.fr_shed));
      ("checks", Num (float_of_int r.Supervisor.Fleet.fr_checks));
      ("elapsed_s", Num r.Supervisor.Fleet.fr_elapsed_s);
    ]

(* ---- sharded installs: scaling and wedged-shard confinement ---- *)

let shard_counts = [ 1; 2; 4 ]

let shards_json () =
  let rows =
    List.map
      (fun n ->
        Stress.shard_scaling ~updaters:4 ~shards:n ~seed:0x5AAD5L ())
      shard_counts
  in
  let baseline = List.hd rows in
  let best = List.nth rows (List.length rows - 1) in
  (* the honest signal on any core count: how many installs still land
     while shard 0's update lock is wedged.  One shard = one lock =
     nothing lands; N shards keep the other homes serving. *)
  let confinement =
    float_of_int best.Stress.ss_wedged_installs
    /. float_of_int (max 1 baseline.Stress.ss_wedged_installs)
  in
  Fmt.pr "sharded installs, %d updaters:@." 4;
  List.iter
    (fun r ->
      Fmt.pr "  %d shard(s): %.0f installs/s; %d installs during a %.2fs \
              wedge of shard 0@."
        r.Stress.ss_shards r.Stress.ss_installs_per_s r.Stress.ss_wedged_installs
        r.Stress.ss_wedge_s)
    rows;
  Mcfi.Benchjson.Obj
    [
      ( "rows",
        Arr
          (List.map
             (fun r ->
               Mcfi.Benchjson.Obj
                 [
                   ("shards", Num (float_of_int r.Stress.ss_shards));
                   ("installs", Num (float_of_int r.Stress.ss_installs));
                   ("installs_per_s", Num r.Stress.ss_installs_per_s);
                   ("wedge_s", Num r.Stress.ss_wedge_s);
                   ( "wedged_installs",
                     Num (float_of_int r.Stress.ss_wedged_installs) );
                 ])
             rows) );
      ( "scaling",
        Num (best.Stress.ss_installs_per_s /. baseline.Stress.ss_installs_per_s)
      );
      ("wedged_confinement", Num confinement);
    ]

(* ---- obs: flight-recorder overhead, snapshot latency, alert lag ---- *)

type obs_measure = {
  ob_off_cps : float;
  ob_on_cps : float;
  ob_ratio : float;  (* median on-throughput / median off-throughput *)
  ob_snapshot_p99_ns : float;
  ob_alert_lag : int;  (* ticks from degradation onset to the alert *)
}

(* Same interleaved-pairs protocol as the telemetry section, but the
   toggle is the recorder's own gate.  Telemetry stays off throughout so
   its sampled ring (and the threaded engine's telemetry fallback) never
   enters the picture: the pair isolates exactly the always-on tallies,
   breadcrumbs and capture probes the black box adds to a check. *)
let flightrec_overhead () =
  let was_recording = Obs.Flightrec.recording () in
  let was_enabled = Telemetry.enabled () in
  Telemetry.disable ();
  let sc =
    { (Stress.default ~seed:0x0B5CA1L) with updates = 1024; kill_every = 0 }
  in
  let run_cps () =
    let r = Stress.run sc in
    float_of_int r.Stress.rp_checks /. r.Stress.rp_elapsed_s
  in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  Obs.Flightrec.set_recording false;
  Gc.compact ();
  ignore (run_cps ());
  let offs = ref [] and ons = ref [] in
  for _ = 1 to overhead_pairs do
    Obs.Flightrec.set_recording false;
    let off = run_cps () in
    Obs.Flightrec.set_recording true;
    let on = run_cps () in
    offs := off :: !offs;
    ons := on :: !ons
  done;
  Obs.Flightrec.set_recording true;
  Obs.Flightrec.reset ();
  (* snapshot latency: trigger-to-serialized-bundle, rings populated the
     way a busy fleet would have them, caps lifted so every request
     really snapshots *)
  Obs.Flightrec.set_cap Obs.Flightrec.Supervisor_transition (-1);
  for i = 0 to 511 do
    Obs.Flightrec.note Telemetry.Event.Check_pass
      ~x:(Telemetry.Event.make_ctx ~shard:(i mod 4) ())
      ~a:i ~b:(0x1000 + (4 * i)) ~c:0
  done;
  let snaps = 200 in
  let ds = Array.make snaps 0. in
  for i = 0 to snaps - 1 do
    let t0 = Telemetry.now_ns () in
    (match
       Obs.Flightrec.record_trigger Obs.Flightrec.Supervisor_transition
         ~reason:"bench: snapshot latency probe" ()
     with
    | Some b ->
      ignore (Mcfi_util.Json.to_string (Obs.Flightrec.bundle_json b))
    | None -> ());
    ds.(i) <- float_of_int (Telemetry.now_ns () - t0)
  done;
  Obs.Flightrec.reset_caps ();
  Obs.Flightrec.reset ();
  Array.sort compare ds;
  let p99 = ds.(min (snaps - 1) (int_of_float (0.99 *. float_of_int snaps))) in
  (* alert-detection lag: a healthy baseline fills both burn windows,
     then a sustained 50% error rate starts; count ticks until the
     multi-window alert fires.  Deterministic: the slow window's burn
     crosses 2x on the 7th degraded tick (the 6th lands a hair under —
     the budget [1 - 0.95] rounds up in binary). *)
  Obs.Slo.reset ();
  let tk =
    Obs.Slo.tracker
      (Obs.Slo.objective ~target:0.95 ~fast_window:5 ~slow_window:30 ~burn:2.0
         "bench-detection-lag")
      ~entity:"bench"
  in
  for t = 1 to 30 do
    Obs.Slo.observe tk ~good:8 ~total:8;
    ignore (Obs.Slo.evaluate tk ~tick:t)
  done;
  let lag = ref 0 in
  (try
     for k = 1 to 60 do
       Obs.Slo.observe tk ~good:4 ~total:8;
       match Obs.Slo.evaluate tk ~tick:(30 + k) with
       | Some _ ->
         lag := k;
         raise Exit
       | None -> ()
     done
   with Exit -> ());
  Obs.Slo.reset ();
  if not was_recording then Obs.Flightrec.set_recording false;
  if was_enabled then Telemetry.enable ();
  (* ratio of median throughputs, not median of per-pair ratios: a
     scheduling stall poisons whichever side it lands on, and on a
     loaded (or single-core) box enough pairs catch one that the
     per-pair median drifts; the per-side medians discard them *)
  {
    ob_off_cps = median !offs;
    ob_on_cps = median !ons;
    ob_ratio = median !ons /. median !offs;
    ob_snapshot_p99_ns = p99;
    ob_alert_lag = !lag;
  }

let obs_json ob =
  Mcfi.Benchjson.Obj
    [
      ("flightrec_off_checks_per_s", Num ob.ob_off_cps);
      ("flightrec_on_checks_per_s", Num ob.ob_on_cps);
      ("flightrec_ratio", Num ob.ob_ratio);
      ("snapshot_p99_ns", Num ob.ob_snapshot_p99_ns);
      ("alert_lag_ticks", Num (float_of_int ob.ob_alert_lag));
    ]

let obs_section () =
  let ob = flightrec_overhead () in
  Fmt.pr
    "torture check throughput, flight recorder off vs on (medians over %d \
     interleaved pairs, telemetry off on both sides):@."
    overhead_pairs;
  Fmt.pr "  recorder off  %12.0f checks/s@." ob.ob_off_cps;
  Fmt.pr "  recorder on   %12.0f checks/s@." ob.ob_on_cps;
  Fmt.pr "  ratio %.3f (budget: >= 0.95) — overhead %.1f%%@." ob.ob_ratio
    (100.0 *. (1.0 -. ob.ob_ratio));
  Fmt.pr "forensic snapshot (trigger -> serialized bundle): p99 %.0f ns@."
    ob.ob_snapshot_p99_ns;
  Fmt.pr "SLO alert-detection lag (50%% errors, 5/30 windows, 2x burn): %d \
          tick(s)@."
    ob.ob_alert_lag;
  if ob.ob_ratio < 0.95 then
    Fmt.pr "WARNING: flight-recorder overhead exceeds the 5%% budget@."

(* ---- redteam: the admitted attack surface on a fixed exemplar ---- *)

type rt_measure = {
  rt_reach : Redteam.Reach.t;  (** sabotaged exemplar's surface *)
  rt_sab_chains : int;
  rt_sab_confirmed : int;
  rt_clean_chains : int;  (** must be 0: clean programs have no chain *)
}

(* the same fixed derivation the CLI campaign uses for --seed 1,
   iteration 0, so the committed corpus artifact, the CI smoke job and
   this section all describe one exemplar *)
let redteam_measure () =
  let sp = Fuzz.Driver.spec_of (Fuzz.Driver.iter_seed 1L 0) in
  let search (r : Fuzz.Spec.rendered) =
    let build () =
      Fuzz.Oracle.build ~instrumented:true ~static:r.Fuzz.Spec.r_static
        ~dynamic:r.Fuzz.Spec.r_dynamic ()
    in
    match Redteam.Search.run ~build () with
    | Ok res -> res
    | Error m -> failwith ("redteam bench: " ^ m)
  in
  let sab = search (Redteam.Search.render_sabotaged sp) in
  let clean = search (Fuzz.Spec.render sp) in
  {
    rt_reach = sab.Redteam.Search.sr_reach;
    rt_sab_chains = List.length sab.Redteam.Search.sr_chains;
    rt_sab_confirmed =
      List.length
        (List.filter
           (fun c -> c.Redteam.Search.c_confirmed)
           sab.Redteam.Search.sr_chains);
    rt_clean_chains = List.length clean.Redteam.Search.sr_chains;
  }

let redteam_json rt =
  let re = rt.rt_reach in
  Mcfi.Benchjson.Obj
    [
      ("sites", Num (float_of_int (List.length re.Redteam.Reach.r_sites)));
      ( "corruptible_sites",
        Num (float_of_int re.Redteam.Reach.r_corruptible) );
      ("forward_edges", Num (float_of_int re.Redteam.Reach.r_forward_edges));
      ("backward_edges", Num (float_of_int re.Redteam.Reach.r_backward_edges));
      ("sabotage_chains", Num (float_of_int rt.rt_sab_chains));
      ("sabotage_confirmed", Num (float_of_int rt.rt_sab_confirmed));
      ("clean_chains", Num (float_of_int rt.rt_clean_chains));
      ( "class_histogram",
        Arr
          (List.map
             (fun (size, n) ->
               Mcfi.Benchjson.Obj
                 [
                   ("class_size", Num (float_of_int size));
                   ("classes", Num (float_of_int n));
                 ])
             re.Redteam.Reach.r_histogram) );
    ]

let redteam_section () =
  let rt = redteam_measure () in
  let re = rt.rt_reach in
  Fmt.pr "admitted attack surface, fixed exemplar (campaign seed 1, iter 0):@.";
  Fmt.pr "  sites %d (corruptible %d), forward edges %d, backward edges %d@."
    (List.length re.Redteam.Reach.r_sites)
    re.Redteam.Reach.r_corruptible re.Redteam.Reach.r_forward_edges
    re.Redteam.Reach.r_backward_edges;
  Fmt.pr "  class-size histogram:%t@." (fun ppf ->
      List.iter
        (fun (size, n) -> Fmt.pf ppf " %dx%d" n size)
        re.Redteam.Reach.r_histogram);
  Fmt.pr "  sabotaged exemplar: %d chain(s), %d confirmed@." rt.rt_sab_chains
    rt.rt_sab_confirmed;
  Fmt.pr "  clean exemplar:     %d chain(s)@." rt.rt_clean_chains;
  if rt.rt_sab_chains = 0 then
    Fmt.pr "WARNING: the search missed the grafted decoy chain@.";
  if rt.rt_clean_chains > 0 then
    Fmt.pr "WARNING: the search claims a chain in a clean program@."

(* ---- json: the machine-readable report ---- *)

let json () =
  let samples = Mcfi.Benchjson.dlopen_chain ~modules:16 ~fns:24 ~rounds:4 () in
  let tp = Stress.install_throughput ~seed:0x1DE17AL () in
  let torture =
    Mcfi.Benchjson.Obj
      [
        ("checks", Num (float_of_int tp.Stress.tp_checks));
        ("installs", Num (float_of_int tp.Stress.tp_installs));
        ("carries", Num (float_of_int tp.Stress.tp_carries));
        ( "checks_per_s",
          Num (float_of_int tp.Stress.tp_checks /. tp.Stress.tp_elapsed_s) );
        ( "installs_per_s",
          Num (float_of_int tp.Stress.tp_installs /. tp.Stress.tp_elapsed_s) );
        ( "checks_during_install_per_s",
          Num
            (float_of_int tp.Stress.tp_checks_during_install
            /. tp.Stress.tp_install_s) );
      ]
  in
  let oh = telemetry_overhead () in
  let telemetry =
    Mcfi.Benchjson.Obj
      [
        ("disabled_checks_per_s", Num oh.oh_disabled_cps);
        ("enabled_checks_per_s", Num oh.oh_enabled_cps);
        ("throughput_ratio", Num oh.oh_ratio);
        ("overhead_pct", Num (100.0 *. (1.0 -. oh.oh_ratio)));
        ("tight_check_disabled_ns", Num oh.oh_tight_disabled_ns);
        ("tight_check_enabled_ns", Num oh.oh_tight_enabled_ns);
      ]
  in
  let fz = fuzz_throughput () in
  (match fz.Fuzz.Driver.oc_failure with
  | None -> ()
  | Some rp ->
    failwith
      (Printf.sprintf "fuzz bench hit an oracle failure (seed %Ld): %s"
         rp.Fuzz.Driver.rp_seed rp.Fuzz.Driver.rp_failure.Fuzz.Oracle.f_msg));
  let fuzz =
    Mcfi.Benchjson.Obj
      [
        ("iterations", Num (float_of_int fz.Fuzz.Driver.oc_iters));
        ("elapsed_s", Num fz.Fuzz.Driver.oc_elapsed);
        ( "iters_per_s",
          Num (float_of_int fz.Fuzz.Driver.oc_iters /. fz.Fuzz.Driver.oc_elapsed)
        );
      ]
  in
  let fleet = fleet_json (fleet_run ()) in
  let shards = shards_json () in
  let dispatch = dispatch_json (dispatch_measure ()) in
  let ob = flightrec_overhead () in
  let obs = obs_json ob in
  let rt = redteam_measure () in
  let redteam = redteam_json rt in
  let report =
    Mcfi.Benchjson.report ~samples ~torture ~telemetry ~fuzz ~fleet ~shards
      ~dispatch ~obs ~redteam
  in
  let out = Mcfi.Benchjson.output_file in
  (match Mcfi.Benchjson.validate report with
  | Ok () -> ()
  | Error m -> failwith (out ^ " failed validation: " ^ m));
  let oc = open_out out in
  output_string oc (Mcfi_util.Json.to_string report);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s@." out;
  (match List.rev samples with
  | last :: _ ->
    Fmt.pr "last link: full %.3f ms, incremental %.3f ms (%.1fx)@."
      last.Mcfi.Benchjson.ls_full_ms last.Mcfi.Benchjson.ls_incr_ms
      (last.Mcfi.Benchjson.ls_full_ms /. last.Mcfi.Benchjson.ls_incr_ms)
  | [] -> ());
  Fmt.pr "telemetry: %.3f throughput ratio (%.1f%% overhead)@." oh.oh_ratio
    (100.0 *. (1.0 -. oh.oh_ratio));
  Fmt.pr
    "flight recorder: %.3f throughput ratio, snapshot p99 %.0f ns, alert lag \
     %d tick(s)@."
    ob.ob_ratio ob.ob_snapshot_p99_ns ob.ob_alert_lag

let () =
  section "table1" "Table 1: C1 violations and false-positive elimination"
    table1;
  section "table2" "Table 2: kinds of remaining violations" table2;
  section "table3" "Table 3: CFG statistics (IBs / IBTs / EQCs)" table3;
  section "fig5" "Figure 5: execution overhead, no concurrent updates" fig5;
  section "fig6" "Figure 6: execution overhead with 50 Hz update transactions"
    fig6;
  section "txmicro" "Transaction micro-benchmark (normalized check time)"
    txmicro;
  section "space" "Space overhead" space;
  section "air" "AIR metric by CFI policy" air;
  section "rop" "ROP gadget elimination" rop;
  section "cfggen" "CFG generation speed" cfggen;
  section "sandbox" "Ablation: segmentation (x86-32) vs masking (x86-64)"
    sandbox_ablation;
  section "tary" "Ablation: Tary representation" tary;
  section "torture" "Multi-domain torture throughput (not a paper figure)"
    torture;
  section "telemetry" "Telemetry overhead (enabled vs disabled)"
    telemetry_section;
  section "fuzz" "Differential-fuzzing throughput (oracle-bank iterations)"
    fuzz_section;
  section "dispatch" "Execution-engine comparison (byte vs threaded)"
    dispatch_section;
  section "fleet" "Tenant-fleet supervision under seeded chaos (not a paper \
                   figure)"
    fleet_section;
  section "obs" "Observability overhead (flight recorder, snapshots, SLO lag)"
    obs_section;
  section "redteam"
    "Admitted attack surface and in-policy chain search (not a paper figure)"
    redteam_section;
  section "json"
    ("Machine-readable report (" ^ Mcfi.Benchjson.output_file ^ ")")
    json

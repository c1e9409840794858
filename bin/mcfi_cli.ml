(* mcfi: the command-line front end to the toolchain (paper §7).

   Subcommands:
     run       compile (+instrument+verify+link+load) and execute a
               MiniC program
     compile   compile modules to .mobj object files (separately!)
     inspect   print an object file's code, sites and type information
     analyze   run the C1/C2 analyzer on a source file
     stats     execute under full telemetry and export the metrics
     trace     execute under telemetry and print the event trace
     torture   seeded multi-domain torture of the runtime protocols
     fuzz      property-based fuzzing against the differential oracle bank
     fleet     tenant-fleet supervision under seeded chaos
     forensics validate and replay flight-recorder forensic bundles
     top       live fleet dashboard over the time-series rings
     bench     list the built-in benchmark suite

   Examples:
     mcfi run prog.mc
     mcfi run --plain prog.mc
     mcfi compile -o prog.mobj prog.mc
     mcfi inspect prog.mobj
     mcfi analyze prog.mc
     mcfi stats prog.mc --format prometheus
     mcfi stats prog.mc --dispatch
     mcfi trace prog.mc --last 25
     mcfi torture --telemetry
     mcfi torture --kill-every 50 --shards 4 --forensics /tmp/bundles
     mcfi forensics /tmp/bundles/*.json
     mcfi top --once *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let module_name path = Filename.remove_extension (Filename.basename path)

(* ---- run ---- *)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"MiniC source file")
  in
  let plain =
    Arg.(value & flag & info [ "plain" ] ~doc:"run without MCFI protection")
  in
  let tco =
    Arg.(value & flag & info [ "tco" ]
           ~doc:"enable tail-call optimization (the x86-64 flavour)")
  in
  let fuel =
    Arg.(value & opt int 500_000_000 & info [ "fuel" ]
           ~doc:"instruction budget")
  in
  let dynamic =
    Arg.(value & opt_all file [] & info [ "dl" ]
           ~doc:"MiniC module loadable at runtime via dlopen(name)")
  in
  let run file plain tco fuel dynamic =
    let dynamic =
      List.map (fun p -> (module_name p, read_file p)) dynamic
    in
    match
      Mcfi.Pipeline.run_source ~instrumented:(not plain) ~tco ~fuel ~dynamic
        (read_file file)
    with
    | reason, output ->
      print_string output;
      Fmt.pr "[%a]@." Mcfi_runtime.Machine.pp_exit_reason reason;
      (match reason with Mcfi_runtime.Machine.Exited 0 -> 0 | _ -> 1)
    | exception Mcfi.Pipeline.Error msg ->
      Fmt.epr "error: %s@." msg;
      2
  in
  Cmd.v
    (Cmd.info "run" ~doc:"compile, instrument, verify, load and execute")
    Term.(const run $ file $ plain $ tco $ fuel $ dynamic)

(* ---- compile ---- *)

let compile_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"MiniC source file")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT"
           ~doc:"output object file (default: FILE.mobj)")
  in
  let plain =
    Arg.(value & flag & info [ "plain" ] ~doc:"skip instrumentation")
  in
  let tco = Arg.(value & flag & info [ "tco" ] ~doc:"tail-call optimization") in
  let freestanding =
    Arg.(value & flag & info [ "freestanding" ]
           ~doc:"do not prepend the libc prototypes")
  in
  let compile file output plain tco freestanding =
    let out = Option.value output ~default:(module_name file ^ ".mobj") in
    let src = read_file file in
    let src = if freestanding then src else Suite.Libc.header ^ src in
    match
      let obj =
        Mcfi.Pipeline.compile_module ~tco ~name:(module_name file) src
      in
      if plain then obj else Mcfi.Pipeline.instrument obj
    with
    | obj ->
      Mcfi_compiler.Objfile.save out obj;
      Fmt.pr "wrote %s (%d items, %d sites, instrumented=%b)@." out
        (List.length obj.Mcfi_compiler.Objfile.o_items)
        (List.length obj.Mcfi_compiler.Objfile.o_sites)
        obj.Mcfi_compiler.Objfile.o_instrumented;
      0
    | exception Mcfi.Pipeline.Error msg ->
      Fmt.epr "error: %s@." msg;
      2
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"compile one module, separately, to a .mobj")
    Term.(const compile $ file $ output $ plain $ tco $ freestanding)

(* ---- inspect ---- *)

let inspect_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"a .mobj object file")
  in
  let disasm =
    Arg.(value & flag & info [ "disasm" ] ~doc:"print the laid-out code")
  in
  let inspect file disasm =
    let obj = Mcfi_compiler.Objfile.load file in
    let open Mcfi_compiler.Objfile in
    Fmt.pr "module %s (instrumented=%b)@." obj.o_name obj.o_instrumented;
    Fmt.pr "functions:@.";
    List.iter
      (fun fi ->
        Fmt.pr "  %-20s : %a%s%s@." fi.fi_name Minic.Ast.pp_fun_ty fi.fi_ty
          (if fi.fi_defined then "" else " (extern)")
          (if fi.fi_address_taken then " (address-taken)" else ""))
      obj.o_functions;
    Fmt.pr "indirect-branch sites (Bary slot order):@.";
    List.iteri (fun k s -> Fmt.pr "  %3d: %a@." k pp_site s) obj.o_sites;
    Fmt.pr "%d data definitions, %d words@." (List.length obj.o_data)
      (data_size obj);
    if disasm then begin
      match
        Vmisa.Asm.assemble ~base:Vmisa.Abi.code_base
          ~resolve_code:(fun _ -> Some 0)
          ~resolve_data:(fun _ -> Some 16)
          obj.o_items
      with
      | Ok prog ->
        Fmt.pr "code (%d bytes):@." (String.length prog.Vmisa.Asm.image);
        let listing, _ =
          Vmisa.Disasm.disassemble ~base:prog.Vmisa.Asm.base
            prog.Vmisa.Asm.image
        in
        Vmisa.Disasm.pp_listing Fmt.stdout listing
      | Error e -> Fmt.epr "cannot lay out: %a@." Vmisa.Asm.pp_error e
    end;
    0
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"show an object file's auxiliary information")
    Term.(const inspect $ file $ disasm)

(* ---- exec: link saved object files and run ---- *)

let exec_cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.mobj"
           ~doc:"instrumented object files (compile with `mcfi compile`); \
                 libc and the start stub are linked in automatically")
  in
  let fuel =
    Arg.(value & opt int 500_000_000 & info [ "fuel" ]
           ~doc:"instruction budget")
  in
  let exec files fuel =
    match
      let objs = List.map Mcfi_compiler.Objfile.load files in
      List.iter
        (fun (o : Mcfi_compiler.Objfile.t) ->
          if not o.o_instrumented then
            failwith (o.o_name ^ " is not instrumented"))
        objs;
      let libc =
        Mcfi.Pipeline.instrument
          (Mcfi.Pipeline.compile_module ~name:"libc" Suite.Libc.source)
      in
      let start =
        Mcfi.Pipeline.instrument (Mcfi_runtime.Linker.start_module ())
      in
      let exe =
        Mcfi_runtime.Linker.link ~name:"a.out" (start :: libc :: objs)
      in
      let proc = Mcfi_runtime.Process.create ~instrumented:true () in
      Mcfi_runtime.Process.load proc exe;
      let reason = Mcfi_runtime.Process.run ~fuel proc in
      (reason, Mcfi_runtime.Machine.output (Mcfi_runtime.Process.machine proc))
    with
    | reason, output ->
      print_string output;
      Fmt.pr "[%a]@." Mcfi_runtime.Machine.pp_exit_reason reason;
      (match reason with Mcfi_runtime.Machine.Exited 0 -> 0 | _ -> 1)
    | exception Mcfi_runtime.Linker.Error msg ->
      Fmt.epr "link error: %s@." msg;
      2
    | exception Mcfi_runtime.Process.Error msg ->
      Fmt.epr "load error: %s@." msg;
      2
    | exception Failure msg ->
      Fmt.epr "error: %s@." msg;
      2
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:"statically link instrumented object files and execute")
    Term.(const exec $ files $ fuel)

(* ---- analyze ---- *)

let analyze_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"MiniC source file")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"list every cast site")
  in
  let analyze file verbose =
    let src = read_file file in
    match
      Minic.Typecheck.check
        (Minic.Parser.parse ~name:(module_name file)
           (Suite.Libc.header ^ src))
    with
    | info ->
      let r = Minic.Analyzer.analyze ~source:src info in
      Fmt.pr
        "SLOC %d | VBE %d | UC %d DC %d MF %d SU %d NF %d | VAE %d (K1 %d, K2 %d)@."
        r.sloc r.vbe r.uc r.dc r.mf r.su r.nf r.vae r.k1 r.k2;
      if verbose then
        List.iter (Fmt.pr "  %a@." Minic.Analyzer.pp_violation) r.violations;
      if r.k1 > 0 then begin
        Fmt.pr "note: K1 cases can break the type-matching CFG; fix them with@.";
        Fmt.pr "      wrapper functions or type adjustments (paper, section 6)@."
      end;
      0
    | exception Minic.Typecheck.Error (msg, loc) ->
      Fmt.epr "type error at %a: %s@." Minic.Ast.pp_loc loc msg;
      2
    | exception Minic.Parser.Error (msg, loc) ->
      Fmt.epr "parse error at %a: %s@." Minic.Ast.pp_loc loc msg;
      2
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"report C1 violations (paper Tables 1 and 2)")
    Term.(const analyze $ file $ verbose)

(* ---- stats / trace: run a program under telemetry ---- *)

(* Shared runner: compile FILE (plus any --dl modules), execute it with
   telemetry in detail mode (exact outcome tallies — a one-shot program
   run is not the place to sample), and hand the process back. *)
let observed_run file fuel dynamic =
  Telemetry.enable ();
  Telemetry.set_detail true;
  Telemetry.reset ();
  let dynamic = List.map (fun p -> (module_name p, read_file p)) dynamic in
  let proc =
    Mcfi.Pipeline.build_process
      ~sources:[ (module_name file, read_file file) ]
      ~dynamic ()
  in
  let reason = Mcfi_runtime.Process.run ~fuel proc in
  (proc, reason)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"MiniC source file")

let fuel_arg =
  Arg.(value & opt int 500_000_000 & info [ "fuel" ]
         ~doc:"instruction budget")

let dynamic_arg =
  Arg.(value & opt_all file [] & info [ "dl" ]
         ~doc:"MiniC module loadable at runtime via dlopen(name)")

let stats_cmd =
  let format =
    Arg.(value
         & opt (enum [ ("pretty", `Pretty); ("prometheus", `Prometheus);
                       ("json", `Json) ]) `Pretty
         & info [ "format" ] ~docv:"FORMAT"
             ~doc:"output format: $(b,pretty), $(b,prometheus) or $(b,json)")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ]
           ~doc:"suppress the program's own output")
  in
  let dispatch =
    Arg.(value & flag & info [ "dispatch" ]
           ~doc:"run the program a second time, untraced, on the threaded \
                 engine and report its dispatch internals (superinstruction \
                 fusion, hoist-cache traffic, pre-decode churn); the \
                 counters also land in the exported metrics as \
                 $(b,mcfi_dispatch_*)")
  in
  (* The threaded engine falls back to byte stepping while the tracer is
     on, so its internals are measured on a second, untraced execution of
     the same program; the counters are folded into the metrics registry
     afterwards so every export format carries them. *)
  let threaded_pass file fuel dynamic =
    Telemetry.disable ();
    let dynamic = List.map (fun p -> (module_name p, read_file p)) dynamic in
    let proc =
      Mcfi.Pipeline.build_process
        ~sources:[ (module_name file, read_file file) ]
        ~dynamic ()
    in
    let m = Mcfi_runtime.Process.machine proc in
    Mcfi_runtime.Machine.set_dispatch m Mcfi_runtime.Machine.Threaded;
    ignore (Mcfi_runtime.Process.run ~fuel proc);
    Telemetry.enable ();
    Mcfi_runtime.Machine.publish_dispatch_stats m;
    Mcfi_runtime.Machine.dispatch_stats m
  in
  let redteam_flag =
    Arg.(value & flag & info [ "redteam" ]
           ~doc:"also render the attack-surface table: per corruptible \
                 indirect-branch site, the in-class targets the installed \
                 tables admit, plus the equivalence-class-size histogram")
  in
  let stats file format quiet fuel dynamic dispatch redteam =
    match observed_run file fuel dynamic with
    | proc, reason ->
      let m = Mcfi_runtime.Process.machine proc in
      if not quiet then print_string (Mcfi_runtime.Machine.output m);
      let dstats = if dispatch then Some (threaded_pass file fuel dynamic)
                   else None in
      if redteam then
        (match Redteam.Reach.compute proc with
        | Some reach -> Fmt.pr "%a" Redteam.Reach.pp_table reach
        | None -> Fmt.pr "attack surface: process is uninstrumented@.");
      (match format with
      | `Prometheus -> print_string (Telemetry.Export.prometheus ())
      | `Json -> print_endline (Telemetry.Export.json ())
      | `Pretty ->
        Fmt.pr "%a@." Telemetry.Export.pp_stats ();
        (match Mcfi_runtime.Machine.profile m with
        | [] -> ()
        | prof ->
          Fmt.pr "instructions retired by class:@.";
          List.iter (fun (cls, n) -> Fmt.pr "  %-16s %12d@." cls n) prof);
        (match Mcfi_runtime.Machine.branch_profile m with
        | [] -> ()
        | bp ->
          Fmt.pr "indirect-branch site executions (Bary slot: count):@.";
          List.iter (fun (slot, n) -> Fmt.pr "  %4d: %d@." slot n) bp);
        (match dstats with
        | None -> ()
        | Some ds ->
          Fmt.pr "threaded-dispatch internals (untraced second pass):@.";
          List.iter (fun (k, n) -> Fmt.pr "  %-20s %12d@." k n) ds));
      (match reason with Mcfi_runtime.Machine.Exited 0 -> 0 | _ -> 1)
    | exception Mcfi.Pipeline.Error msg ->
      Fmt.epr "error: %s@." msg;
      2
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"execute a program under full telemetry and export the metrics")
    Term.(const stats $ file_arg $ format $ quiet $ fuel_arg $ dynamic_arg
          $ dispatch $ redteam_flag)

let trace_cmd =
  let last =
    Arg.(value & opt int 40 & info [ "last" ] ~docv:"N"
           ~doc:"print only the last N events (0 = all)")
  in
  let trace file last fuel dynamic =
    match observed_run file fuel dynamic with
    | _proc, reason ->
      let events = Telemetry.drain () in
      let total = List.length events in
      let shown =
        if last > 0 && total > last then begin
          Fmt.pr "... (%d earlier events)@." (total - last);
          List.filteri (fun i _ -> i >= total - last) events
        end
        else events
      in
      List.iter (Fmt.pr "%a@." Telemetry.Event.pp) shown;
      Fmt.pr "%d events in trace (%d emitted, %d dropped to wraparound)@."
        total
        (Telemetry.events_emitted ())
        (Telemetry.events_dropped ());
      (match reason with Mcfi_runtime.Machine.Exited 0 -> 0 | _ -> 1)
    | exception Mcfi.Pipeline.Error msg ->
      Fmt.epr "error: %s@." msg;
      2
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"execute a program under telemetry and print the merged event \
             trace")
    Term.(const trace $ file_arg $ last $ fuel_arg $ dynamic_arg)

(* ---- torture ---- *)

let torture_cmd =
  let seed =
    Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED"
           ~doc:"master seed; a failing run prints the seed to replay")
  in
  let scenarios =
    Arg.(value & opt int 1 & info [ "scenarios" ]
           ~doc:"number of seed-derived scenarios to run")
  in
  let long =
    Arg.(value & flag & info [ "long" ]
           ~doc:"sustained run: several scenarios, each with the full \
                 acceptance dimensions and a loader storm")
  in
  let checkers =
    Arg.(value & opt (some int) None & info [ "checkers" ]
           ~doc:"override: checker domains")
  in
  let updaters =
    Arg.(value & opt (some int) None & info [ "updaters" ]
           ~doc:"override: updater domains")
  in
  let updates =
    Arg.(value & opt (some int) None & info [ "updates" ]
           ~doc:"override: total update transactions")
  in
  let kill_every =
    Arg.(value & opt (some int) None & info [ "kill-every" ]
           ~doc:"override: kill an updater mid-install every N updates \
                 (0 = never)")
  in
  let loads =
    Arg.(value & opt (some int) None & info [ "loads" ]
           ~doc:"override: loader-storm dlopen count (0 = storm off)")
  in
  let telemetry =
    Arg.(value & flag & info [ "telemetry" ]
           ~doc:"run with telemetry enabled and print the stats report \
                 after each scenario (sampled mode: the low-overhead \
                 production default)")
  in
  let forensics =
    Arg.(value & opt (some string) None & info [ "forensics" ] ~docv:"DIR"
           ~doc:"write one forensic bundle JSON into DIR per \
                 flight-recorder trigger (injected kill, oracle anomaly, \
                 failed check, ...); replay them with $(b,mcfi forensics)")
  in
  let dispatch_conv =
    let parse s =
      match Mcfi_runtime.Machine.dispatch_of_string s with
      | Ok v -> Ok v
      | Error e -> Error (`Msg e)
    in
    Arg.conv
      ( parse,
        fun ppf d -> Fmt.string ppf (Mcfi_runtime.Machine.dispatch_name d) )
  in
  let dispatch =
    Arg.(value & opt (some dispatch_conv) None & info [ "dispatch" ]
           ~docv:"ENGINE"
           ~doc:"override: the check execution path — $(b,byte) (a full \
                 table read per check) or $(b,threaded) (the threaded \
                 engine's model: version-hoisted reads cached per site, \
                 revalidated on the shard sequence word alone)")
  in
  let shards =
    Arg.(value & opt (some Supervisor.Cli.shards_conv) None & info [ "shards" ] ~docv:"N"
           ~doc:"override: split the tables into N independently versioned \
                 shard fault domains (default 1)")
  in
  let torture seed scenarios long checkers updaters updates kill_every loads
      shards dispatch telemetry forensics =
    if telemetry then Telemetry.enable ();
    if forensics <> None then Obs.Flightrec.set_dir forensics;
    let override v o = Option.value o ~default:v in
    let scenario i =
      let seed = Int64.add seed (Int64.of_int i) in
      let sc =
        if long then
          { (Stress.default ~seed) with
            Stress.updates = 40_000;
            loader_loads = 24;
            loader_fault_one_in = 3;
          }
        else if i = 0 then Stress.default ~seed
        else Stress.generate ~seed
      in
      {
        sc with
        Stress.checkers = override sc.Stress.checkers checkers;
        updaters = override sc.Stress.updaters updaters;
        updates = override sc.Stress.updates updates;
        kill_every = override sc.Stress.kill_every kill_every;
        loader_loads = override sc.Stress.loader_loads loads;
        shards = override sc.Stress.shards shards;
        hoisted =
          (match dispatch with
          | None -> sc.Stress.hoisted
          | Some Mcfi_runtime.Machine.Byte -> false
          | Some Mcfi_runtime.Machine.Threaded -> true);
      }
    in
    let n = if long then max 3 scenarios else scenarios in
    let failures = ref 0 in
    for i = 0 to n - 1 do
      let sc = scenario i in
      Fmt.pr "@[<v>scenario %d/%d: %a@]@." (i + 1) n Stress.pp_scenario sc;
      let r = Stress.run sc in
      Fmt.pr "%a@.@." Stress.pp_report r;
      if telemetry then Fmt.pr "%a@.@." Telemetry.Export.pp_stats ();
      if r.Stress.rp_anomalies <> [] then incr failures
    done;
    (match forensics with
    | Some dir ->
      Fmt.pr "forensics: %d bundle(s) written to %s@."
        (List.length (Obs.Flightrec.files_written ()))
        dir
    | None -> ());
    if !failures > 0 then begin
      Fmt.epr "torture: %d scenario(s) with anomalies (seed %Ld)@." !failures
        seed;
      1
    end
    else 0
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:"multi-domain torture of the transaction and linking protocols, \
             validated by the epoch-history oracle")
    Term.(const torture $ seed $ scenarios $ long $ checkers $ updaters
          $ updates $ kill_every $ loads $ shards $ dispatch $ telemetry
          $ forensics)

(* ---- forensics: validate and replay flight-recorder bundles ---- *)

let forensics_cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"BUNDLE.json"
           ~doc:"forensic bundle files written by the flight recorder \
                 (--forensics DIR on torture and fleet runs)")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ]
           ~doc:"validate only; print nothing but errors")
  in
  (* exit status: 0 all bundles valid, 1 a bundle failed validation,
     2 a file could not be read or parsed at all *)
  let replay files quiet =
    let worst = ref 0 in
    List.iter
      (fun path ->
        match Mcfi.Forensics.of_file path with
        | Error msg ->
          Fmt.epr "%s: %s@." path msg;
          worst := max !worst 2
        | Ok bundle -> (
          match Mcfi.Forensics.validate bundle with
          | Error msg ->
            Fmt.epr "%s: invalid bundle: %s@." path msg;
            worst := max !worst 1
          | Ok () ->
            if not quiet then
              Fmt.pr "@[<v>%s:@,%a@]@.@." path Mcfi.Forensics.pp bundle))
      files;
    !worst
  in
  Cmd.v
    (Cmd.info "forensics"
       ~doc:"validate flight-recorder forensic bundles and replay their \
             event tails")
    Term.(const replay $ files $ quiet)

(* ---- top: live fleet dashboard ---- *)

let top_cmd =
  let seed =
    Arg.(value & opt int64 7L & info [ "seed" ] ~docv:"SEED"
           ~doc:"fleet campaign seed")
  in
  let ticks =
    Arg.(value & opt (some int) None & info [ "ticks" ]
           ~doc:"override: supervision rounds")
  in
  let shards =
    Arg.(value & opt (some int) None & info [ "shards" ]
           ~doc:"override: shard fault domains")
  in
  let full =
    Arg.(value & flag & info [ "full" ]
           ~doc:"drive the full acceptance-gate fleet (64 tenants) instead \
                 of the smoke fleet")
  in
  let slo_breaker =
    Arg.(value & flag & info [ "slo-breaker" ]
           ~doc:"let SLO burn-rate alerts trip the shard circuit breaker")
  in
  let once =
    Arg.(value & flag & info [ "once" ]
           ~doc:"run the fleet to completion, render a single frame without \
                 cursor control, and exit (for CI and tests)")
  in
  let interval =
    Arg.(value & opt float 0.5 & info [ "interval" ] ~docv:"SECONDS"
           ~doc:"redraw period")
  in
  let no_color =
    Arg.(value & flag & info [ "no-color" ] ~doc:"disable ANSI colors")
  in
  let top seed ticks shards full slo_breaker once interval no_color =
    let base =
      if full then Supervisor.Fleet.default ~seed
      else Supervisor.Fleet.smoke ~seed
    in
    let fc =
      {
        base with
        Supervisor.Fleet.fc_ticks =
          Option.value ticks ~default:base.Supervisor.Fleet.fc_ticks;
        fc_shards = Option.value shards ~default:base.Supervisor.Fleet.fc_shards;
        fc_slo_breaker = base.Supervisor.Fleet.fc_slo_breaker || slo_breaker;
      }
    in
    let color = not no_color in
    if once then begin
      (* Fleet.run resets the observability registries on entry, not on
         exit, so the time-series data is still live for the frame. *)
      let r = Supervisor.Fleet.run fc in
      print_string (Obs.Dashboard.render ~color ());
      Fmt.pr "fleet %s: %d/%d tenants alive, %d alert(s)@."
        (if Supervisor.Fleet.ok r then "ok" else "FAILED")
        r.Supervisor.Fleet.fr_survivors fc.Supervisor.Fleet.fc_tenants
        r.Supervisor.Fleet.fr_slo_alerts;
      if Supervisor.Fleet.ok r then 0 else 1
    end
    else begin
      let result = Atomic.make None in
      let worker =
        Domain.spawn (fun () ->
            Atomic.set result (Some (Supervisor.Fleet.run fc)))
      in
      let rec redraw () =
        if Atomic.get result = None then begin
          print_string (Obs.Dashboard.frame ~color ());
          flush stdout;
          Unix.sleepf interval;
          redraw ()
        end
      in
      redraw ();
      Domain.join worker;
      print_string (Obs.Dashboard.frame ~color ());
      match Atomic.get result with
      | Some r ->
        Fmt.pr "%a@." Supervisor.Fleet.pp_report r;
        if Supervisor.Fleet.ok r then 0 else 1
      | None -> 1
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"run a fleet while redrawing a live terminal dashboard over \
             the time-series rings (flight recorder, SLO burn rates, \
             sparklines)")
    Term.(const top $ seed $ ticks $ shards $ full $ slo_breaker $ once
          $ interval $ no_color)

(* ---- bench ---- *)

let bench_cmd =
  let schema_version =
    Arg.(value & flag & info [ "schema-version" ]
           ~doc:"print the BENCH_*.json schema version this build emits \
                 and exit (CI checks committed artifacts against it)")
  in
  let list schema =
    if schema then begin
      Fmt.pr "%d@." Mcfi.Benchjson.schema_version;
      0
    end
    else begin
      List.iter
        (fun (b : Suite.Programs.benchmark) ->
          Fmt.pr "%-12s (%s): %s@." b.name b.spec_name b.description)
        Suite.Programs.all;
      Fmt.pr "run them all with: dune exec bench/main.exe@.";
      0
    end
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"list the built-in benchmark suite")
    Term.(const list $ schema_version)

let () =
  let doc = "the MCFI toolchain: modular control-flow integrity" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "mcfi" ~doc)
          [ run_cmd; compile_cmd; exec_cmd; inspect_cmd; analyze_cmd;
            stats_cmd; trace_cmd; torture_cmd; Fuzz.Cli.cmd;
            Redteam.Cli.cmd; Supervisor.Cli.cmd; forensics_cmd; top_cmd;
            bench_cmd ]))

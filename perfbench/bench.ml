(* The repo benchmark: end-to-end and per-layer cost of MCFI protection.

     bench.exe --workload suite|dlopen|storm --seed N --seconds S --trace 0|1

   Workloads (one process, at most two domains):
   - suite: the 12 programs of lib/suite, each built plain and
     instrumented and run to exit on both engines, one at a time (closed
     loop).  The seed orders the programs.
   - dlopen: an instrumented, verifying, incremental process loads a
     seeded chain of generated modules one [Process.load] at a time
     (closed loop), then runs them.  See chain.ml.
   - storm: the suite again, while an updater domain calls [Tx.refresh]
     on the running program's tables every [storm_period] seconds (open
     loop); the seed sets the schedule's phase.

   The benchmark drives the system only through public functions of its
   layers: minic, compiler, instrument, runtime (Linker, Process,
   Machine), verifier, cfg and idtables.  It measures passes over the
   workload until [--seconds] is used up, checks every output, and prints
   a table followed by one JSON line: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1].  A traced run
   alternates untraced passes with traced ones; the traced passes build
   from the layer functions themselves and record spans around each call
   (trace.ml). *)

module Process = Mcfi_runtime.Process
module Machine = Mcfi_runtime.Machine
module Linker = Mcfi_runtime.Linker
module Objfile = Mcfi_compiler.Objfile
module Pipeline = Mcfi.Pipeline
module Tx = Idtables.Tx
module Asm = Vmisa.Asm
module Instr = Vmisa.Instr

let now = Unix.gettimeofday

(* 1 kHz, twenty times the paper's 50 Hz update thread *)
let storm_period = 0.001

(* closed-loop refreshes after each instrumented suite run *)
let refresh_probes = 30

(* ------------------------------------------------------------------ *)
(* statistics                                                          *)

let quantile q l =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let geomean l =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 l /. float_of_int (List.length l))

let sum = List.fold_left ( +. ) 0.0

(* ------------------------------------------------------------------ *)
(* the run's record                                                    *)

type st = {
  mutable attempted : int;
  mutable failed : int;
  mutable broken : bool;  (** a benchmark invariant failed *)
  mutable problems : string list;
  samples : (string, float) Hashtbl.t;  (** per operation, untraced passes *)
  per_pass : (string, float) Hashtbl.t;  (** one value per pass *)
  per_program : (string, string * float) Hashtbl.t;
      (** metric -> (program, one value per pass) *)
  exact : (string, int) Hashtbl.t;  (** first value of each exact count *)
}

let note st msg =
  if List.length st.problems < 20 then st.problems <- msg :: st.problems

let failure st fmt =
  Printf.ksprintf
    (fun msg ->
      st.failed <- st.failed + 1;
      note st ("failed: " ^ msg))
    fmt

let invariant st ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        st.broken <- true;
        note st ("invariant: " ^ msg)
      end)
    fmt

(* An exact count must repeat bit for bit in every pass. *)
let exact st key v =
  match Hashtbl.find_opt st.exact key with
  | None -> Hashtbl.replace st.exact key v
  | Some v0 -> invariant st (v = v0) "exact count %s moved: %d then %d" key v0 v

let values tbl key = List.rev (Hashtbl.find_all tbl key)

(* ------------------------------------------------------------------ *)
(* the machine-speed yardstick                                         *)

(* The shared host's speed drifts by tens of percent over tens of
   seconds, and every timing drifts with it.  So each run times a fixed
   kernel between operations, and reports every end-to-end time in
   reference seconds: measured seconds x [calib_ref] / the kernel's
   median time over the same pass.  A change to the system moves the
   measured time and not the kernel, so it shows in full; a slower host
   moves both and cancels.  The kernel is a small bytecode-interpreter
   loop that uses none of the repository's code and does not allocate:
   once a second domain has run, every minor collection of the process
   costs more, and an allocating kernel would cancel that cost out of
   the storm workload. *)
let calib_ref = 0.016

let calib_code = Array.init 4096 (fun i -> ((i * 7919) + (i / 13)) land 7)
let calib_regs = Array.make 16 0
let calib_mem = Array.make 32768 0

let calib_kernel () =
  let pc = ref 0 and acc = ref 1 in
  for _ = 1 to 6_000_000 do
    (match calib_code.(!pc) with
    | 0 -> calib_regs.(!acc land 15) <- calib_regs.((!acc + 1) land 15) + 1
    | 1 -> acc := !acc + calib_regs.(!pc land 15)
    | 2 ->
      let i = (!acc * 31) land 32767 in
      calib_mem.(i) <- (calib_mem.(i) + !acc) land 0xffff
    | 3 -> acc := !acc lxor calib_mem.((!acc lsr 3) land 32767)
    | 4 -> if !acc land 1 = 0 then pc := (!pc + 5) land 4095
    | 5 -> calib_regs.(!pc land 15) <- !acc
    | 6 -> acc := ((!acc * 1103515245) + 12345) land 0x3fffffff
    | _ -> acc := !acc + 7);
    pc := (!pc + 1) land 4095
  done;
  !acc

let calibrate () =
  let t0 = now () in
  ignore (Sys.opaque_identity (calib_kernel ()));
  now () -. t0

(* ------------------------------------------------------------------ *)
(* one pass's accumulators                                             *)

type run_record = {
  prog : string;
  engine : Machine.dispatch;
  instrumented : bool;
  secs : float;
  steps : int;
  words : float;  (** minor-heap words the run allocated *)
}

type pass = {
  tr : Trace.t option;
  mutable busy : float;  (** seconds inside timed operations *)
  mutable builds : (string * float) list;  (** (program, seconds) *)
  mutable runs : run_record list;
  mutable hoist : int * int;
  mutable growth : float list;
  mutable sites : int;
  mutable code_bytes : int;
  mutable eqcs : int;
  mutable refreshes : float list;  (** seconds per [Tx.refresh] *)
  mutable samples : (string * float) list;  (** per-operation times, untraced *)
  mutable calib : float list;  (** yardstick times taken during the pass *)
}

let new_pass tr =
  {
    tr;
    busy = 0.0;
    builds = [];
    runs = [];
    hoist = (0, 0);
    growth = [];
    sites = 0;
    code_bytes = 0;
    eqcs = 0;
    refreshes = [];
    samples = [];
    calib = [];
  }

let sample (p : pass) key v = if p.tr = None then p.samples <- (key, v) :: p.samples

let timed (p : pass) f =
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  p.busy <- p.busy +. dt;
  (v, dt)

(* ------------------------------------------------------------------ *)
(* building: Pipeline untraced, layer by layer when traced             *)

let front tr ~id name src =
  let prog = Trace.run tr ~id "minic.parse" (fun () -> Minic.Parser.parse ~name src) in
  let info = Trace.run tr ~id "minic.typecheck" (fun () -> Minic.Typecheck.check prog) in
  Trace.run tr ~id "compiler.codegen" (fun () -> Mcfi_compiler.Codegen.compile info)

let rewrite tr ~id obj =
  Trace.run tr ~id "instrument.rewrite" (fun () -> Instrument.Rewriter.instrument obj)

(* [Pipeline.link_executable], one layer call at a time and in the same
   order (it compiles the user sources before libc), so the two must
   produce the same image. *)
let compose_exe tr ~id ~sources ~dynamic =
  let users = List.map (fun (n, s) -> front tr ~id n (Suite.Libc.header ^ s)) sources in
  let libc = front tr ~id "libc" Suite.Libc.source in
  let start = Trace.run tr ~id "linker.link" Linker.start_module in
  let objs = List.map (rewrite tr ~id) (start :: libc :: users) in
  let linked = Trace.run tr ~id "linker.link" (fun () -> Linker.link ~name:"a.out" objs) in
  if dynamic = [] then linked
  else
    let provides =
      List.concat_map
        (fun (n, s) ->
          List.filter_map
            (fun (fi : Objfile.fn_info) -> if fi.fi_defined then Some fi.fi_name else None)
            (front tr ~id n (Suite.Libc.header ^ s)).o_functions)
        dynamic
    in
    let deferred =
      List.filter (fun s -> List.mem s provides) (Objfile.undefined_symbols linked)
    in
    Trace.run tr ~id "linker.link" (fun () -> Linker.add_plt linked deferred)

let image (obj : Objfile.t) =
  match
    Asm.assemble ~base:Vmisa.Abi.code_base ~resolve_data:(fun _ -> Some 16) obj.o_items
  with
  | Ok prog -> prog.image
  | Error e -> failwith (Fmt.str "assemble: %a" Asm.pp_error e)

let code_bytes (obj : Objfile.t) = Instrument.Rewriter.size_of_items obj.o_items

(* The instrumented executable of [sources] (+ PLT entries for what
   [dynamic] modules provide).  Traced, it is composed from the layers and
   checked against [Pipeline.link_executable] outside the spans. *)
let build_exe st (p : pass) ~id ~sources ~dynamic =
  match p.tr with
  | None -> Pipeline.link_executable ~sources ~dynamic ()
  | Some _ ->
    let exe =
      Trace.run p.tr ~id "bench.build" (fun () -> compose_exe p.tr ~id ~sources ~dynamic)
    in
    invariant st
      (image exe = image (Pipeline.link_executable ~sources ~dynamic ()))
      "composed build of %s differs from Pipeline.link_executable"
      (String.concat "+" (List.map fst sources));
    exe

let build_module (p : pass) ~id name src =
  match p.tr with
  | None -> Pipeline.instrument (Pipeline.compile_module ~name (Suite.Libc.header ^ src))
  | Some _ ->
    Trace.run p.tr ~id "bench.build" (fun () ->
        rewrite p.tr ~id (front p.tr ~id name (Suite.Libc.header ^ src)))

(* ------------------------------------------------------------------ *)
(* processes and loads                                                 *)

type live = { proc : Process.t; mutable slots : int }

(* A traced pass verifies each module itself (so the verifier gets its
   own span) and loads into a process that does not verify again.  Only
   the process whose creation counts towards build_s is traced. *)
let create (p : pass) ?(traced = false) ?(instrumented = true) ~id dispatch =
  let proc =
    Trace.run (if traced then p.tr else None) ~id "process.create" (fun () ->
        Process.create ~instrumented ~verify:(instrumented && p.tr = None) ~dispatch ())
  in
  { proc; slots = 0 }

(* Lay [obj] out exactly as [Process.load] will (next 16-aligned code
   address, Bary slots re-based past the loaded ones, globals at the heap
   break) and verify it.  Returns the laid-out base and image. *)
let verify_as_loaded live (obj : Objfile.t) =
  let m = Process.machine live.proc in
  let base = (Machine.code_end m + 15) land lnot 15 in
  let slot_base = live.slots in
  let items =
    List.map
      (function
        | Asm.I (Instr.Bary_load (r, k)) -> Asm.I (Instr.Bary_load (r, k + slot_base))
        | item -> item)
      obj.o_items
  in
  let fresh = Hashtbl.create 16 in
  ignore
    (List.fold_left
       (fun brk (d : Objfile.data_def) ->
         Hashtbl.replace fresh d.d_name brk;
         brk + List.length d.d_words)
       (Machine.brk m) obj.o_data);
  let resolve_data s =
    match Process.lookup_data live.proc s with
    | Some a -> Some a
    | None -> Hashtbl.find_opt fresh s
  in
  match Asm.assemble ~base ~resolve_code:(Process.lookup_code live.proc) ~resolve_data items with
  | Error e -> failwith (Fmt.str "layout of %s: %a" obj.o_name Asm.pp_error e)
  | Ok prog -> (
    match
      Verifier.verify ~obj:{ obj with o_items = items } ~prog ~slot_base
        ~slot_count:(List.length obj.o_sites) ()
    with
    | Ok () -> (base, prog.image)
    | Error issues ->
      failwith
        (Printf.sprintf "%s failed verification: %s" obj.o_name
           (String.concat "; " (List.map (Fmt.str "%a" Verifier.pp_issue) issues))))

(* One timed [Process.load]; [true] if it succeeded. *)
let load st (p : pass) ~id live obj =
  st.attempted <- st.attempted + 1;
  let go () =
    match p.tr with
    | None ->
      Process.load live.proc obj;
      None
    | Some t ->
      Trace.run p.tr ~id "bench.load" (fun () ->
          let laid_out =
            if Process.tables live.proc = None then None
            else
              Some (Trace.run p.tr ~id "verifier.verify" (fun () -> verify_as_loaded live obj))
          in
          let c0 = Process.cfg_gen_time_ms live.proc in
          let (), idx =
            Trace.span p.tr ~id "process.load" (fun () -> Process.load live.proc obj)
          in
          Trace.add_child t ~parent:idx ~id "cfg.cfggen"
            ~dur:((Process.cfg_gen_time_ms live.proc -. c0) /. 1000.0);
          laid_out)
  in
  match timed p go with
  | exception e ->
    failure st "load of %s: %s" obj.o_name (Printexc.to_string e);
    (false, 0.0)
  | laid_out, dt ->
    (match laid_out with
    | None -> ()
    | Some (base, img) ->
      let m = Process.machine live.proc in
      let mapped = Machine.code_image m in
      let off = base - Machine.code_base m in
      invariant st
        (off + String.length img <= String.length mapped
        && String.sub mapped off (String.length img) = img)
        "%s: the verified layout is not the image the loader mapped" obj.o_name);
    live.slots <- live.slots + List.length obj.o_sites;
    (true, dt)

(* A closed-loop refresh: due when issued, so lateness is its duration. *)
let refresh st (p : pass) ~id live =
  match Process.tables live.proc with
  | None -> ()
  | Some tables ->
    st.attempted <- st.attempted + 1;
    (match timed p (fun () -> Trace.run p.tr ~id "tx.refresh" (fun () -> Tx.refresh tables)) with
    | exception e -> failure st "refresh: %s" (Printexc.to_string e)
    | _, dt ->
      p.refreshes <- dt :: p.refreshes;
      sample p "install_ms" (dt *. 1000.0))

(* ------------------------------------------------------------------ *)
(* the storm updater                                                   *)

(* One refresh schedule, for the length of one program run. *)
type job = {
  tables : Idtables.Tables.t;
  id : int;
  traced : bool;
  stop : bool Atomic.t;
  mutable result : (float list * float list * string list * Trace.t) option;
      (** lateness, duration, errors, spans *)
}

(* The updater domain lives for the whole storm run and takes one job at
   a time, so the process has the same two domains from the first pass to
   the last. *)
type updater = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable pending : job option;
  mutable quit : bool;
  mutable domain : unit Domain.t option;
}

(* Refresh [j.tables] every [storm_period] seconds from [phase] on; a late
   refresh does not move the schedule (open loop). *)
let refresh_schedule ~phase j =
  let rec_ = Trace.create () in
  let tr = if j.traced then Some rec_ else None in
  let late = ref [] and durs = ref [] and errs = ref [] in
  let t0 = now () in
  let rec loop k =
    let due = t0 +. phase +. (float_of_int k *. storm_period) in
    let wait = due -. now () in
    if wait > 0.0 && not (Atomic.get j.stop) then Unix.sleepf wait;
    if not (Atomic.get j.stop) then begin
      let s = now () in
      (match Trace.run tr ~id:j.id "tx.refresh" (fun () -> Tx.refresh j.tables) with
      | _ -> ()
      | exception e -> errs := Printexc.to_string e :: !errs);
      let e = now () in
      late := (e -. due) :: !late;
      durs := (e -. s) :: !durs;
      loop (k + 1)
    end
  in
  loop 0;
  (!late, !durs, !errs, rec_)

let with_lock u f =
  Mutex.lock u.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock u.lock) f

let start_updater ~phase =
  let u =
    { lock = Mutex.create (); cond = Condition.create (); pending = None; quit = false; domain = None }
  in
  let rec serve () =
    let job =
      with_lock u (fun () ->
          while u.pending = None && not u.quit do
            Condition.wait u.cond u.lock
          done;
          u.pending)
    in
    match job with
    | None -> ()
    | Some j ->
      let r = refresh_schedule ~phase j in
      with_lock u (fun () ->
          u.pending <- None;
          j.result <- Some r;
          Condition.broadcast u.cond);
      serve ()
  in
  u.domain <- Some (Domain.spawn serve);
  u

let stop_updater u =
  with_lock u (fun () ->
      u.quit <- true;
      Condition.broadcast u.cond);
  Option.iter Domain.join u.domain

(* Run [f] while the updater refreshes [tables]. *)
let storm_during st (p : pass) u ~id tables f =
  let j = { tables; id; traced = p.tr <> None; stop = Atomic.make false; result = None } in
  with_lock u (fun () ->
      u.pending <- Some j;
      Condition.broadcast u.cond);
  let finish () =
    Atomic.set j.stop true;
    let late, durs, errs, spans =
      with_lock u (fun () ->
          let rec wait () =
            match j.result with
            | Some r -> r
            | None ->
              Condition.wait u.cond u.lock;
              wait ()
          in
          wait ())
    in
    st.attempted <- st.attempted + List.length late + List.length errs;
    List.iter (fun e -> failure st "storm refresh: %s" e) errs;
    List.iter (fun l -> sample p "install_ms" (l *. 1000.0)) late;
    p.refreshes <- durs @ p.refreshes;
    match p.tr with Some t -> Trace.merge t spans | None -> ()
  in
  Fun.protect ~finally:finish f

(* ------------------------------------------------------------------ *)
(* running                                                             *)

type outcome = { reason : Machine.exit_reason; out : string; steps : int }

let run st (p : pass) ~id ~name ?(during = fun f -> f ()) live ~instrumented =
  st.attempted <- st.attempted + 1;
  let m = Process.machine live.proc in
  let (reason, secs), words =
    during (fun () ->
        let w0 = Gc.minor_words () in
        let r = timed p (fun () -> Trace.run p.tr ~id "machine.run" (fun () -> Process.run live.proc)) in
        (r, Gc.minor_words () -. w0))
  in
  let steps = Machine.steps m in
  let engine = Machine.dispatch m in
  p.runs <- { prog = name; engine; instrumented; secs; steps; words } :: p.runs;
  if instrumented && engine = Machine.Threaded then begin
    let ds = Machine.dispatch_stats m in
    let get k = Option.value (List.assoc_opt k ds) ~default:0 in
    let h, mi = p.hoist in
    p.hoist <- (h + get "hoist_hits", mi + get "hoist_misses")
  end;
  { reason; out = Machine.output m; steps }

(* The checks every run of one program must pass: the expected exit and
   the plain build's output.  [pairs] name runs of one build on the two
   engines, which must retire the same number of instructions. *)
let check_runs st ~name ~expected ~plain runs pairs =
  List.iter
    (fun (what, (o : outcome)) ->
      match o.reason with
      | Machine.Exited n when n = expected ->
        if o.out <> plain.out then failure st "%s %s: output differs from the plain build" name what
      | r ->
        failure st "%s %s: %s, expected exit %d" name what
          (Fmt.str "%a" Machine.pp_exit_reason r)
          expected)
    runs;
  List.iter
    (fun (what, (a : outcome), (b : outcome)) ->
      invariant st (a.steps = b.steps) "%s %s: byte and threaded engines retired %d and %d steps"
        name what a.steps b.steps)
    pairs

let ratio a b = float_of_int a /. float_of_int b

(* An exception out of one program's (or the chain's) work fails it and
   lets the pass go on. *)
let guard st what f =
  try f () with e -> failure st "%s: %s" what (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* workloads                                                           *)

let suite_pass st (p : pass) ~storm ~order =
  List.iteri
    (fun id (b : Suite.Programs.benchmark) ->
      guard st b.name @@ fun () ->
      let sources = [ (b.name, b.source) ] in
      (* each program starts on a heap without the previous one's garbage,
         as it would in its own OS process *)
      Gc.full_major ();
      p.calib <- calibrate () :: p.calib;
      (* build_s: compile, instrument, link and load; creating the
         process (zeroing its regions, a cost that follows the host's
         memory speed) is process.create_ms *)
      let exe, compile = timed p (fun () -> build_exe st p ~id ~sources ~dynamic:[]) in
      let byte = create p ~traced:true ~id Machine.Byte in
      let ok, ld = load st p ~id byte exe in
      p.builds <- (b.name, compile +. ld) :: p.builds;
      sample p "dlopen_ms" (ld *. 1000.0);
      let threaded = create p ~id Machine.Threaded in
      let ok', ld' = load st p ~id threaded exe in
      sample p "dlopen_ms" (ld' *. 1000.0);
      let plain_exe = Pipeline.link_executable ~instrumented:false ~sources () in
      let plain d =
        let l = create p ~instrumented:false ~id d in
        Process.load l.proc plain_exe;
        run st p ~id ~name:b.name l ~instrumented:false
      in
      let pb = plain Machine.Byte in
      (* storm's slowdown needs only the plain byte-engine run *)
      let pt = if storm <> None then None else Some (plain Machine.Threaded) in
      p.growth <- ratio (code_bytes exe) (code_bytes plain_exe) :: p.growth;
      p.sites <- p.sites + List.length exe.o_sites;
      p.code_bytes <- p.code_bytes + code_bytes exe;
      (match Process.cfg_stats byte.proc with
      | Some s -> p.eqcs <- p.eqcs + s.n_eqcs
      | None -> ());
      if ok && ok' then begin
        let during live f =
          match (storm, Process.tables live.proc) with
          | Some u, Some tables -> storm_during st p u ~id tables f
          | _ -> f ()
        in
        let ib = run st p ~id ~name:b.name ~during:(during byte) byte ~instrumented:true in
        let it = run st p ~id ~name:b.name ~during:(during threaded) threaded ~instrumented:true in
        check_runs st ~name:b.name ~expected:b.expected_exit ~plain:pb
          ([ ("plain/byte", pb); ("mcfi/byte", ib); ("mcfi/threaded", it) ]
          @ Option.fold pt ~none:[] ~some:(fun pt -> [ ("plain/threaded", pt) ]))
          (match pt with
          | Some pt -> [ ("plain", pb, pt); ("mcfi", ib, it) ]
          | None -> []);
        if storm = None then
          for _ = 1 to refresh_probes do
            refresh st p ~id byte
          done
      end)
    order

let dlopen_pass st (p : pass) (chain : Chain.t) =
  guard st "the chain" @@ fun () ->
  let sources = [ ("main", chain.main) ] in
  Gc.full_major ();
  p.calib <- calibrate () :: p.calib;
  let (exe, objs), compile =
    timed p (fun () ->
        let exe = build_exe st p ~id:0 ~sources ~dynamic:chain.chain in
        (exe, List.mapi (fun k (n, s) -> build_module p ~id:(k + 1) n s) chain.chain))
  in
  let byte = create p ~traced:true ~id:0 Machine.Byte in
  let ok, ld = load st p ~id:0 byte exe in
  p.builds <- ("chain", compile +. ld) :: p.builds;
  let threaded = create p ~id:0 Machine.Threaded in
  let ok', _ = load st p ~id:0 threaded exe in
  let all_ok = ref (ok && ok') in
  let oracle live what =
    match Process.oracle_check live.proc with
    | Ok () -> ()
    | Error msg ->
      all_ok := false;
      failure st "oracle after %s: %s" what msg
  in
  (* The oracle regenerates the whole CFG, so it costs more than the loads
     it checks: it runs after every load of the byte-engine process, and
     once on the threaded-engine process, which loads the same chain. *)
  List.iteri
    (fun k (obj : Objfile.t) ->
      List.iter
        (fun live ->
          let ok, dt = load st p ~id:(k + 1) live obj in
          if ok then sample p "dlopen_ms" (dt *. 1000.0) else all_ok := false)
        [ byte; threaded ];
      oracle byte ("loading " ^ obj.o_name);
      refresh st p ~id:(k + 1) byte;
      if k mod 8 = 7 then p.calib <- calibrate () :: p.calib)
    objs;
  oracle threaded "loading the chain";
  let plain_exe =
    Pipeline.link_executable ~instrumented:false ~sources:(sources @ chain.chain) ()
  in
  let pl = create p ~instrumented:false ~id:0 Machine.Byte in
  Process.load pl.proc plain_exe;
  let pb = run st p ~id:0 ~name:"chain" pl ~instrumented:false in
  let instr_bytes = List.fold_left (fun a o -> a + code_bytes o) (code_bytes exe) objs in
  p.growth <- [ ratio instr_bytes (code_bytes plain_exe) ];
  p.sites <- List.fold_left (fun a (o : Objfile.t) -> a + List.length o.o_sites) 0 (exe :: objs);
  p.code_bytes <- instr_bytes;
  (match Process.cfg_stats byte.proc with Some s -> p.eqcs <- s.n_eqcs | None -> ());
  if !all_ok then begin
    let ib = run st p ~id:0 ~name:"chain" byte ~instrumented:true in
    let it = run st p ~id:0 ~name:"chain" threaded ~instrumented:true in
    check_runs st ~name:"chain" ~expected:0 ~plain:pb
      [ ("plain/byte", pb); ("mcfi/byte", ib); ("mcfi/threaded", it) ]
      [ ("mcfi", ib, it) ]
  end

(* ------------------------------------------------------------------ *)
(* per-pass aggregation                                                *)

let record_pass st (p : pass) ~workload =
  let put k v = Hashtbl.add st.per_pass k v in
  let runs ~instrumented engine =
    List.filter (fun (r : run_record) -> r.instrumented = instrumented && r.engine = engine) p.runs
  in
  let secs l = sum (List.map (fun r -> r.secs) l) in
  let steps l = List.fold_left (fun a (r : run_record) -> a + r.steps) 0 l in
  let words l = sum (List.map (fun r -> r.words) l) in
  let ib = runs ~instrumented:true Machine.Byte in
  let it = runs ~instrumented:true Machine.Threaded in
  let pb = runs ~instrumented:false Machine.Byte in
  let traced = p.tr <> None in
  let calib = median p.calib in
  let ref_s v = v *. calib_ref /. calib in
  put "calib" calib;
  put (if traced then "busy.traced" else "busy.untraced") p.busy;
  List.iter (fun (k, v) -> Hashtbl.add st.samples k (ref_s v)) p.samples;
  if not traced then begin
    let prog metric (n, v) = Hashtbl.add st.per_program metric (n, ref_s v) in
    List.iter (prog "build_s") p.builds;
    let run_secs l = List.map (fun r -> (r.prog, r.secs)) l in
    List.iter (prog "run_s") (run_secs ib);
    List.iter (prog "run_threaded_s") (run_secs it);
    List.iter (prog "plain_s") (run_secs pb);
    put "instr_overhead"
      (geomean
         (List.filter_map
            (fun (r : run_record) ->
              List.find_opt (fun (r' : run_record) -> r'.prog = r.prog) pb
              |> Option.map (fun (r' : run_record) -> ratio r.steps r'.steps))
            ib));
    put "code_growth" (geomean p.growth)
  end;
  (* exact counts, compared across passes *)
  List.iter
    (fun (k, v) ->
      exact st k v;
      put k (float_of_int v))
    [ ("instrument.sites", p.sites); ("instrument.code_bytes", p.code_bytes); ("cfg.eqcs", p.eqcs) ];
  List.iter
    (fun (r : run_record) ->
      if (not r.instrumented) || workload <> "storm" then
        exact st
          (Printf.sprintf "steps/%s/%s/%b" r.prog (Machine.dispatch_name r.engine) r.instrumented)
          r.steps)
    p.runs;
  exact st "code_growth" (Int64.to_int (Int64.bits_of_float (geomean p.growth)));
  put "machine.steps" (float_of_int (steps ib));
  put "machine.ns_per_step.byte" (secs ib *. 1e9 /. float_of_int (steps ib));
  put "machine.ns_per_step.threaded" (secs it *. 1e9 /. float_of_int (steps it));
  put "machine.minor_words_per_step.byte" (words ib /. float_of_int (steps ib));
  put "machine.minor_words_per_step.threaded" (words it /. float_of_int (steps it));
  (let h, m = p.hoist in
   put "machine.hoist_hit_ratio" (if h + m = 0 then 0.0 else ratio h (h + m)));
  put "tx.refresh_ms" (median p.refreshes *. 1000.0);
  match p.tr with
  | None -> ()
  | Some t -> (
    match Trace.self_times (Trace.spans t) with
    | Error msg -> invariant st false "%s" msg
    | Ok selfs ->
      let root = Trace.root_of (Trace.spans t) in
      (* inside each build and load span, the self times must add up to
         the span's duration *)
      let roots = Hashtbl.create 64 in
      List.iter
        (fun ((s : Trace.span), self) ->
          let r = root s in
          if r.name = "bench.build" || r.name = "bench.load" then
            Hashtbl.replace roots r.idx
              (self +. Option.value (Hashtbl.find_opt roots r.idx) ~default:0.0))
        selfs;
      List.iter
        (fun ((s : Trace.span), _) ->
          match Hashtbl.find_opt roots s.idx with
          | Some total when s.parent < 0 ->
            invariant st
              (Float.abs (total -. Trace.dur s) < 1e-6)
              "self times in %s (id %d) add up to %.6f s, not its %.6f s" s.name s.id total
              (Trace.dur s)
          | _ -> ())
        selfs;
      let self_of name =
        sum (List.filter_map (fun ((s : Trace.span), v) -> if s.name = name then Some v else None) selfs)
      in
      let total_of name =
        sum
          (List.filter_map
             (fun ((s : Trace.span), _) -> if s.name = name then Some (Trace.dur s) else None)
             selfs)
      in
      List.iter
        (fun n -> put (n ^ "_ms") (self_of n *. 1000.0))
        [
          "minic.parse";
          "minic.typecheck";
          "compiler.codegen";
          "instrument.rewrite";
          "linker.link";
          "verifier.verify";
          "cfg.cfggen";
          "process.create";
        ];
      put "process.load_ms" (total_of "bench.load" *. 1000.0);
      put "process.load_other_ms" (self_of "process.load" *. 1000.0);
      put "trace.unattributed_ms" ((self_of "bench.build" +. self_of "bench.load") *. 1000.0))

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)

type kind = Wall | Exact | Count

let kind_name = function Wall -> "wall" | Exact -> "exact" | Count -> "count"

(* name, unit, kind; the order BENCHMARK.json lists them in *)
let end_to_end =
  [
    ("setup_s", "s", Wall);
    ("build_s", "s", Wall);
    ("run_s", "s", Wall);
    ("run_threaded_s", "s", Wall);
    ("slowdown", "x", Wall);
    ("instr_overhead", "x", Exact);
    ("code_growth", "x", Exact);
    ("dlopen_ms_p50", "ms", Wall);
    ("dlopen_ms_p90", "ms", Wall);
    ("install_ms_p50", "ms", Wall);
    ("install_ms_p90", "ms", Wall);
    ("peak_heap_mb", "MB", Count);
  ]

let per_layer =
  [
    ("minic.parse_ms", "ms", Wall);
    ("minic.typecheck_ms", "ms", Wall);
    ("compiler.codegen_ms", "ms", Wall);
    ("instrument.rewrite_ms", "ms", Wall);
    ("linker.link_ms", "ms", Wall);
    ("verifier.verify_ms", "ms", Wall);
    ("cfg.cfggen_ms", "ms", Wall);
    ("process.create_ms", "ms", Wall);
    ("process.load_ms", "ms", Wall);
    ("process.load_other_ms", "ms", Wall);
    ("trace.unattributed_ms", "ms", Wall);
    ("trace.overhead_pct", "%", Wall);
    ("instrument.sites", "count", Exact);
    ("instrument.code_bytes", "bytes", Exact);
    ("cfg.eqcs", "count", Exact);
    ("machine.steps", "count", Exact);
    ("machine.ns_per_step.byte", "ns", Wall);
    ("machine.ns_per_step.threaded", "ns", Wall);
    ("machine.minor_words_per_step.byte", "words", Count);
    ("machine.minor_words_per_step.threaded", "words", Count);
    ("machine.hoist_hit_ratio", "ratio", Count);
    ("tx.refresh_ms", "ms", Wall);
    ("tx.retries_per_mstep", "1/Mstep", Count);
    ("bench.calib_ms", "ms", Wall);
  ]

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let metric_values st ~traced ~setup ~retries =
  let pp k = median (values st.per_pass k) in
  let smp k = values st.samples k in
  let pct k q = (quantile q (smp k), List.length (smp k)) in
  let n_pass k = List.length (values st.per_pass k) in
  (* each program's median over passes, so a burst of host noise in one
     pass moves one sample of one program *)
  let prog_medians metric =
    let by = Hashtbl.create 16 in
    List.iter
      (fun (n, v) -> Hashtbl.replace by n (v :: Option.value (Hashtbl.find_opt by n) ~default:[]))
      (values st.per_program metric);
    Hashtbl.fold (fun n vs acc -> (n, median vs) :: acc) by [] |> List.sort compare
  in
  let sum_medians metric = sum (List.map snd (prog_medians metric)) in
  if not traced then
    List.map
      (fun (name, _, _) ->
        let v, n =
          match name with
          | "setup_s" -> (median setup, List.length setup)
          | "dlopen_ms_p50" -> pct "dlopen_ms" 0.5
          | "dlopen_ms_p90" -> pct "dlopen_ms" 0.9
          | "install_ms_p50" -> pct "install_ms" 0.5
          | "install_ms_p90" -> pct "install_ms" 0.9
          | "peak_heap_mb" -> (peak_heap_mb (), 1)
          | ("build_s" | "run_s" | "run_threaded_s") as k -> (sum_medians k, n_pass "busy.untraced")
          | "slowdown" ->
            let plain = prog_medians "plain_s" in
            ( geomean (List.map (fun (n, t) -> t /. List.assoc n plain) (prog_medians "run_s")),
              n_pass "busy.untraced" )
          | k -> (pp k, n_pass k)
        in
        (name, v, n))
      end_to_end
  else
    let steps = sum (values st.per_pass "machine.steps") in
    List.map
      (fun (name, _, _) ->
        let v, n =
          match name with
          | "trace.overhead_pct" ->
            let u = pp "busy.untraced" and t = pp "busy.traced" in
            (100.0 *. (t -. u) /. u, n_pass "busy.traced")
          | "tx.retries_per_mstep" -> (float_of_int retries /. (steps /. 1e6), n_pass "machine.steps")
          | "bench.calib_ms" -> (pp "calib" *. 1000.0, n_pass "calib")
          | k -> (pp k, n_pass k)
        in
        (name, v, n))
      per_layer

(* ------------------------------------------------------------------ *)
(* main                                                                *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload suite|dlopen|storm --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload [ "suite"; "dlopen"; "storm" ]) then usage ();
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let st =
    {
      attempted = 0;
      failed = 0;
      broken = false;
      problems = [];
      samples = Hashtbl.create 64;
      per_pass = Hashtbl.create 64;
      per_program = Hashtbl.create 64;
      exact = Hashtbl.create 64;
    }
  in
  (* set-up: generate the inputs and warm the toolchain on the smallest
     program; done three times, the median is setup_s *)
  let rng = Random.State.make [| 0x73756974; seed |] in
  let setup_once () =
    let t0 = now () in
    let inputs =
      match workload with
      | "dlopen" -> `Chain (Chain.generate ~seed)
      | _ ->
        let a = Array.of_list Suite.Programs.all in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x
        done;
        `Order (Array.to_list a)
    in
    let warm = Option.get (Suite.Programs.find "perlite") in
    List.iter
      (fun instrumented ->
        List.iter
          (fun dispatch ->
            let proc =
              Pipeline.build_process ~instrumented ~dispatch
                ~sources:[ (warm.name, warm.source) ]
                ()
            in
            ignore (Process.run proc))
          [ Machine.Byte; Machine.Threaded ])
      [ false; true ];
    (inputs, now () -. t0)
  in
  let setups =
    List.init 3 (fun _ ->
        let inputs, dt = setup_once () in
        (inputs, dt *. calib_ref /. calibrate ()))
  in
  let inputs = fst (List.hd setups) in
  let setup = List.map snd setups in
  let storm =
    if workload <> "storm" then None
    else
      Some
        (start_updater
           ~phase:(Random.State.float (Random.State.make [| 0x73746f72; seed |]) storm_period))
  in
  let retries0 = (Faults.Stats.snapshot ()).retries in
  let stats0 = Faults.Stats.snapshot () in
  let t_start = now () in
  let rec passes i last =
    let elapsed = now () -. t_start in
    let enough = if traced then i >= 2 else i >= 1 in
    if enough && elapsed +. last > seconds then i
    else begin
      let p0 = now () in
      let tr = if traced && i mod 2 = 1 then Some (Trace.create ()) else None in
      let p = new_pass tr in
      (match inputs with
      | `Chain chain -> dlopen_pass st p chain
      | `Order order ->
        suite_pass st p ~storm ~order);
      record_pass st p ~workload;
      passes (i + 1) (now () -. p0)
    end
  in
  let n_passes = passes 0 0.0 in
  Option.iter stop_updater storm;
  let stats = Faults.Stats.snapshot () in
  let halts = stats.halts - stats0.halts and failed_checks = stats.failed_checks - stats0.failed_checks in
  if halts > 0 then failure st "%d checks halted (Faults.Stats)" halts;
  if failed_checks > 0 then failure st "%d checks failed (Faults.Stats)" failed_checks;
  let metrics =
    metric_values st ~traced ~setup ~retries:(stats.retries - retries0)
  in
  List.iter
    (fun (name, v, _) -> invariant st (Float.is_finite v) "metric %s is not a number" name)
    metrics;
  let correct = st.failed = 0 && not st.broken in
  (* the human-readable row for this workload *)
  let table = if traced then per_layer else end_to_end in
  Printf.printf "workload %s  seed %d  passes %d%s  attempted %d  failed %d  %s\n" workload seed
    n_passes
    (if traced then Printf.sprintf " (%d traced)" (n_passes / 2) else "")
    st.attempted st.failed
    (if correct then "correct" else "INCORRECT");
  List.iter (fun m -> Printf.printf "  ! %s\n" m) (List.rev st.problems);
  let unit_kind name =
    let _, unit, kind = List.find (fun (n', _, _) -> n' = name) table in
    (* retries add instructions under storm, so these counts are not exact there *)
    let kind =
      if workload = "storm" && (name = "instr_overhead" || name = "machine.steps") then Count
      else kind
    in
    (unit, kind)
  in
  List.iter
    (fun (name, v, n) ->
      let unit, kind = unit_kind name in
      Printf.printf "  %-40s %16.6f %-8s %-6s n=%d\n" name v unit (kind_name kind) n)
    metrics;
  (* the workload's row: every metric on one line, sample counts beside
     the percentiles *)
  let is_pct name =
    let l = String.length name in
    l > 4 && (String.sub name (l - 4) 4 = "_p50" || String.sub name (l - 4) 4 = "_p90")
  in
  Printf.printf "row %s | %s\n" workload
    (String.concat " | "
       (List.map
          (fun (name, v, n) ->
            Printf.sprintf "%s %.4g %s%s" name v (fst (unit_kind name))
              (if is_pct name then Printf.sprintf " (n=%d)" n else ""))
          metrics));
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 st.attempted) st.failed
    (String.concat ", "
       (List.map
          (fun (name, v, _) ->
            let unit = fst (unit_kind name) in
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
          metrics))

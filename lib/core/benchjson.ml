module Process = Mcfi_runtime.Process

type t = Mcfi_util.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- the dlopen-chain measurement ---- *)

type link_sample = {
  ls_module : int;
  ls_full_ms : float;
  ls_incr_ms : float;
}

(* One synthetic module: [fns] int(int) functions and [fns/2]
   int(int,int) functions, all address-taken through local
   function-pointer arrays and called indirectly.  The two
   function-pointer types are the same in every module, so each load
   grows equivalence classes the earlier modules created — the carry
   (grow-entry) path of the delta install — while the module's own
   return sites add fresh slots. *)
let module_source ~fns k =
  let b = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  for i = 0 to fns - 1 do
    p "int m%d_u%d(int x) { return x + %d; }\n" k i ((i + k + 1) * 3)
  done;
  for i = 0 to (fns / 2) - 1 do
    p "int m%d_v%d(int x, int y) { return x * %d + y; }\n" k i (i + 2)
  done;
  p "int m%d_go(int n) {\n" k;
  p "  int (*fu[%d])(int);\n" fns;
  p "  int (*fv[%d])(int, int);\n" (fns / 2);
  p "  int s;\n  int i;\n";
  for i = 0 to fns - 1 do p "  fu[%d] = m%d_u%d;\n" i k i done;
  for i = 0 to (fns / 2) - 1 do p "  fv[%d] = m%d_v%d;\n" i k i done;
  p "  s = 0;\n";
  p "  for (i = 0; i < n; i = i + 1) {\n";
  p "    s = s + fu[i %% %d](i);\n" fns;
  p "    s = s + fv[i %% %d](s, i);\n" (fns / 2);
  p "  }\n  return s;\n}\n";
  Buffer.contents b

let dlopen_chain ?(modules = 16) ?(fns = 8) ?(rounds = 3) () =
  if modules < 1 then invalid_arg "Benchjson.dlopen_chain: modules < 1";
  let exe =
    Pipeline.link_executable ~sources:[ ("main", "int main() { return 0; }") ] ()
  in
  let objs =
    List.init modules (fun k ->
        Pipeline.instrument
          (Pipeline.compile_module
             ~name:(Printf.sprintf "m%d" k)
             (module_source ~fns k)))
  in
  (* verification cost is identical on both paths and dominates small
     loads; it is not what this curve measures *)
  let fresh ~incremental =
    let proc = Process.create ~incremental ~verify:false () in
    Process.load proc exe;
    proc
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let run_round () =
    let full = fresh ~incremental:false in
    let inc = fresh ~incremental:true in
    List.map
      (fun obj ->
        let f = time (fun () -> Process.load full obj) in
        let g = time (fun () -> Process.load inc obj) in
        (* the oracle runs after every incremental install, outside the
           timed window *)
        (match Process.oracle_check inc with
        | Ok () -> ()
        | Error m -> failwith ("Benchjson.dlopen_chain: oracle: " ^ m));
        (f, g))
      objs
  in
  let best =
    List.init rounds (fun _ -> run_round ())
    |> List.fold_left
         (fun acc round ->
           List.map2 (fun (f, g) (f', g') -> (Float.min f f', Float.min g g')) acc round)
         (List.init modules (fun _ -> (infinity, infinity)))
  in
  List.mapi
    (fun i (f, g) -> { ls_module = i + 1; ls_full_ms = f; ls_incr_ms = g })
    best

(* ---- report assembly and validation ---- *)

(* The schema identity.  The emitting bench derives its output file name
   from these, so bumping [schema_version] is the single change that
   moves the artifact to BENCH_<n+1>.json — no hard-coded file names. *)
let schema = "mcfi-bench"
let schema_version = 10
let output_file = Printf.sprintf "BENCH_%d.json" schema_version

let report ~samples ~torture ~telemetry ~fuzz ~fleet ~shards ~dispatch ~obs
    ~redteam =
  match List.rev samples with
  | [] -> invalid_arg "Benchjson.report: empty chain"
  | last :: _ ->
    Obj
      [
        ("schema", Str schema);
        ("schema_version", Num (float_of_int schema_version));
        ("bench", Str "incremental-linking");
        ("modules", Num (float_of_int (List.length samples)));
        ( "cfggen",
          Obj
            [
              ( "chain",
                Arr
                  (List.map
                     (fun s ->
                       Obj
                         [
                           ("module", Num (float_of_int s.ls_module));
                           ("full_ms", Num s.ls_full_ms);
                           ("incr_ms", Num s.ls_incr_ms);
                         ])
                     samples) );
              ("last_full_ms", Num last.ls_full_ms);
              ("last_incr_ms", Num last.ls_incr_ms);
              ("last_speedup", Num (last.ls_full_ms /. last.ls_incr_ms));
            ] );
        ("torture", torture);
        ("telemetry", telemetry);
        ("fuzz", fuzz);
        ("fleet", fleet);
        ("shards", shards);
        ("dispatch", dispatch);
        ("obs", obs);
        ("redteam", redteam);
      ]

let validate j =
  let open Mcfi_util.Json in
  let num = to_float in
  let check_num where p =
    match Option.bind (path p j) num with
    | Some _ -> Ok ()
    | None ->
      Error (Printf.sprintf "%s: missing or non-finite %s" where (String.concat "." p))
  in
  let ( let* ) = Result.bind in
  let* () =
    match member "schema" j with
    | Some (Str s) when s = schema -> Ok ()
    | Some (Str s) -> Error (Printf.sprintf "schema: %S, expected %S" s schema)
    | _ -> Error "schema: missing or not a string"
  in
  let* () =
    match Option.bind (member "schema_version" j) num with
    | Some v when v = float_of_int schema_version -> Ok ()
    | Some v ->
      Error
        (Printf.sprintf "schema_version: %g, expected %d" v schema_version)
    | None -> Error "schema_version: missing or not a number"
  in
  let* () = check_num "cfggen" [ "modules" ] in
  let* () = check_num "cfggen" [ "cfggen"; "last_full_ms" ] in
  let* () = check_num "cfggen" [ "cfggen"; "last_incr_ms" ] in
  let* () = check_num "cfggen" [ "cfggen"; "last_speedup" ] in
  let* () =
    match path [ "cfggen"; "chain" ] j with
    | Some (Arr (_ :: _ as rows)) ->
      List.fold_left
        (fun acc row ->
          let* () = acc in
          match
            ( Option.bind (member "module" row) num,
              Option.bind (member "full_ms" row) num,
              Option.bind (member "incr_ms" row) num )
          with
          | Some _, Some _, Some _ -> Ok ()
          | _ -> Error "cfggen.chain: row with missing or non-finite field")
        (Ok ()) rows
    | Some (Arr []) -> Error "cfggen.chain: empty"
    | _ -> Error "cfggen.chain: missing or not an array"
  in
  let* () = check_num "torture" [ "torture"; "checks_per_s" ] in
  let* () = check_num "torture" [ "torture"; "installs_per_s" ] in
  let* () = check_num "torture" [ "torture"; "checks_during_install_per_s" ] in
  let* () = check_num "telemetry" [ "telemetry"; "disabled_checks_per_s" ] in
  let* () = check_num "telemetry" [ "telemetry"; "enabled_checks_per_s" ] in
  let* () = check_num "telemetry" [ "telemetry"; "throughput_ratio" ] in
  let* () = check_num "telemetry" [ "telemetry"; "overhead_pct" ] in
  let* () = check_num "fuzz" [ "fuzz"; "iterations" ] in
  let* () = check_num "fuzz" [ "fuzz"; "iters_per_s" ] in
  let* () = check_num "fleet" [ "fleet"; "survival_rate" ] in
  let* () = check_num "fleet" [ "fleet"; "recovery_ms_p50" ] in
  let* () = check_num "fleet" [ "fleet"; "recovery_ms_p99" ] in
  let* () = check_num "fleet" [ "fleet"; "installs_served" ] in
  let* () = check_num "fleet" [ "fleet"; "installs_shed" ] in
  let* () = check_num "shards" [ "shards"; "wedged_confinement" ] in
  let* () =
    match path [ "shards"; "rows" ] j with
    | Some (Arr (_ :: _ as rows)) ->
      List.fold_left
        (fun acc row ->
          let* () = acc in
          match
            ( Option.bind (member "shards" row) num,
              Option.bind (member "installs_per_s" row) num,
              Option.bind (member "wedged_installs" row) num )
          with
          | Some _, Some _, Some _ -> Ok ()
          | _ -> Error "shards.rows: row with missing or non-finite field")
        (Ok ()) rows
    | Some (Arr []) -> Error "shards.rows: empty"
    | _ -> Error "shards.rows: missing or not an array"
  in
  let* () = check_num "dispatch" [ "dispatch"; "tight_check_byte_ns" ] in
  let* () = check_num "dispatch" [ "dispatch"; "tight_check_threaded_ns" ] in
  let* () = check_num "dispatch" [ "dispatch"; "tight_check_speedup" ] in
  let* () =
    match path [ "dispatch"; "rows" ] j with
    | Some (Arr (_ :: _ as rows)) ->
      List.fold_left
        (fun acc row ->
          let* () = acc in
          match
            ( Option.bind (member "shards" row) num,
              Option.bind (member "byte_checks_per_s" row) num,
              Option.bind (member "threaded_checks_per_s" row) num )
          with
          | Some _, Some _, Some _ -> Ok ()
          | _ -> Error "dispatch.rows: row with missing or non-finite field")
        (Ok ()) rows
    | Some (Arr []) -> Error "dispatch.rows: empty"
    | _ -> Error "dispatch.rows: missing or not an array"
  in
  let* () = check_num "obs" [ "obs"; "flightrec_off_checks_per_s" ] in
  let* () = check_num "obs" [ "obs"; "flightrec_on_checks_per_s" ] in
  let* () = check_num "obs" [ "obs"; "flightrec_ratio" ] in
  let* () = check_num "obs" [ "obs"; "snapshot_p99_ns" ] in
  let* () = check_num "obs" [ "obs"; "alert_lag_ticks" ] in
  (* redteam: the attack-surface metrics of the sabotaged exemplar (which
     must yield a chain) and the clean exemplar (which must not) *)
  let* () = check_num "redteam" [ "redteam"; "sites" ] in
  let* () = check_num "redteam" [ "redteam"; "corruptible_sites" ] in
  let* () = check_num "redteam" [ "redteam"; "forward_edges" ] in
  let* () = check_num "redteam" [ "redteam"; "backward_edges" ] in
  let* () = check_num "redteam" [ "redteam"; "sabotage_chains" ] in
  let* () = check_num "redteam" [ "redteam"; "sabotage_confirmed" ] in
  let* () = check_num "redteam" [ "redteam"; "clean_chains" ] in
  let* () =
    match path [ "redteam"; "class_histogram" ] j with
    | Some (Arr (_ :: _ as rows)) ->
      List.fold_left
        (fun acc row ->
          let* () = acc in
          match
            ( Option.bind (member "class_size" row) num,
              Option.bind (member "classes" row) num )
          with
          | Some _, Some _ -> Ok ()
          | _ ->
            Error "redteam.class_histogram: row with missing or non-finite field")
        (Ok ()) rows
    | Some (Arr []) -> Error "redteam.class_histogram: empty"
    | _ -> Error "redteam.class_histogram: missing or not an array"
  in
  Ok ()

(* The `mcfi redteam` subcommand: the attack-synthesis campaign.

   Three modes, mirroring `mcfi fuzz`:
   - campaign (default): generate programs from the fuzz generator
     (optionally sabotaged with the in-class decoy), search each for
     in-policy chains, shrink the first find with the spec-level
     shrinker, and write a replayable corpus artifact.  Exit 1 when a
     chain was found (the campaign's job is to find attacks; CI runs
     the clean campaign expecting 0 and the sabotaged one expecting 1).
   - file mode (positional sources): search one concrete program,
     render the attack-surface table, optionally write a JSON report.
   - --replay: re-run the search over a committed chain artifact's
     embedded sources; exit 0 if the chain reproduces, 1 if it
     vanished, 2 if the file is unreadable. *)

open Cmdliner
module Driver = Fuzz.Driver
module Oracle = Fuzz.Oracle
module Spec = Fuzz.Spec
module Corpus = Fuzz.Corpus
module Shrink = Fuzz.Shrink
module Json = Mcfi_util.Json
module Flightrec = Obs.Flightrec

type mode =
  | Campaign of {
      seed : int64;
      iters : int;
      budget : float;
      corpus : string;
      sabotage : bool;
      report : string option;
    }
  | File of { files : string list; dynamic : string list; report : string option }
  | Replay of string list

let seed_arg =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED"
         ~doc:"campaign seed; a found chain prints its iteration seed")

let iters_arg =
  Arg.(value & opt int 50 & info [ "iters"; "n" ] ~docv:"N"
         ~doc:"number of generated programs to search")

let budget_arg =
  Arg.(value & opt float 0. & info [ "time-budget" ] ~docv:"SECONDS"
         ~doc:"stop after this much wall-clock time (0 = no budget)")

let corpus_arg =
  Arg.(value & opt string "corpus" & info [ "corpus" ] ~docv:"DIR"
         ~doc:"directory for shrunk chain artifacts")

let sabotage_arg =
  Arg.(value & flag & info [ "sabotage" ]
         ~doc:"graft the in-class decoy module into every generated \
               program (self-test: the search must find its chain)")

let report_arg =
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE"
         ~doc:"write a JSON report of the search results to $(docv)")

let replay_arg =
  Arg.(value & opt_all string [] & info [ "replay" ] ~docv:"FILE"
         ~doc:"replay chain artifact $(docv) instead of searching \
               (repeatable)")

let files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"MiniC source modules to search (instead of a campaign)")

let dynamic_arg =
  Arg.(value & opt_all file [] & info [ "dl" ] ~docv:"FILE"
         ~doc:"module to make available for dlopen (repeatable)")

let mode_of seed iters budget corpus sabotage report replay files dynamic =
  match (replay, files) with
  | (_ :: _ as r), _ -> Replay r
  | [], (_ :: _ as f) -> File { files = f; dynamic; report }
  | [], [] -> Campaign { seed; iters; budget; corpus; sabotage; report }

let mode_term =
  Term.(const mode_of $ seed_arg $ iters_arg $ budget_arg $ corpus_arg
        $ sabotage_arg $ report_arg $ replay_arg $ files_arg $ dynamic_arg)

(* ---------- shared reporting ---------- *)

let pp_chain ppf (c : Search.chain) =
  Fmt.pf ppf "chain from slot %d (%d hop%s) -> %s@." c.Search.c_start
    (List.length c.Search.c_hops)
    (if List.length c.Search.c_hops = 1 then "" else "s")
    (Search.goal_name c.Search.c_goal);
  List.iter
    (fun (h : Search.hop) ->
      Fmt.pf ppf "  slot %d -> 0x%x%s@." h.Search.h_slot h.Search.h_target
        (if h.Search.h_diverted then "  (diverted)" else ""))
    c.Search.c_hops;
  (match c.Search.c_plan with
  | Some p -> Fmt.pf ppf "  plan: %a@." Search.pp_plan p
  | None -> Fmt.pf ppf "  plan: none derivable@.");
  if c.Search.c_exit <> "" then
    Fmt.pf ppf "  confirmation: %s (exit: %s)@."
      (if c.Search.c_confirmed then "diverted hop committed" else "NOT observed")
      c.Search.c_exit

let result_json ?seed (r : Search.result) =
  Json.Obj
    ([
       ("reach", Reach.to_json r.Search.sr_reach);
       ("chains", Json.Arr (List.map Search.chain_json r.Search.sr_chains));
       ("sites_scanned", Json.num r.Search.sr_sites_scanned);
       ("edges_checked", Json.num r.Search.sr_edges_checked);
       ("walks", Json.num r.Search.sr_walks);
     ]
    @
    match seed with
    | None -> []
    | Some s -> [ ("seed", Json.Str (Int64.to_string s)) ])

let write_report path json =
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Fmt.pr "report written to %s@." path

let chain_msg seed (c : Search.chain) =
  Printf.sprintf
    "redteam: in-policy chain seed=%Ld start-slot=%d hops=%d goal=%s%s"
    seed c.Search.c_start
    (List.length c.Search.c_hops)
    (Search.goal_name c.Search.c_goal)
    (if c.Search.c_confirmed then " (confirmed)" else "")

let record_bundle seed chain =
  ignore
    (Flightrec.record_trigger Flightrec.Redteam_chain
       ~reason:(chain_msg seed chain)
       ~extra:
         [
           ("redteam_chain", Search.chain_json chain);
           ("seed", Json.Str (Int64.to_string seed));
         ]
       ())

(* ---------- campaign mode ---------- *)

let build_of (r : Spec.rendered) () =
  Oracle.build ~instrumented:true ~static:r.Spec.r_static
    ~dynamic:r.Spec.r_dynamic ()

let render ~sabotage sp =
  if sabotage then Search.render_sabotaged sp else Spec.render sp

let search_rendered ?confirm_chains r =
  Search.run ?confirm_chains ~build:(build_of r) ()

let artifact_path ~corpus ~seed entry =
  (try Unix.mkdir corpus 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path =
    Filename.concat corpus (Printf.sprintf "chain_redteam_seed%Ld.c" seed)
  in
  let oc = open_out path in
  output_string oc (Corpus.to_string entry);
  close_out oc;
  path

let run_campaign ~seed ~iters ~budget ~corpus ~sabotage ~report =
  Fmt.pr "redteam: seed=%Ld iters=%d%s@." seed iters
    (if sabotage then " sabotage (decoy grafted: the search must find it)"
     else "");
  let t0 = Unix.gettimeofday () in
  let over_budget () = budget > 0. && Unix.gettimeofday () -. t0 > budget in
  let rec loop i =
    if i >= iters || over_budget () then begin
      Fmt.pr "redteam: %d program%s searched, no in-policy chain found@." i
        (if i = 1 then "" else "s");
      0
    end
    else begin
      let iseed = Driver.iter_seed seed i in
      let sp = Driver.spec_of iseed in
      match search_rendered (render ~sabotage sp) with
      | Error e ->
        Fmt.pr "  seed %Ld: skipped (%s)@." iseed e;
        loop (i + 1)
      | Ok r when r.Search.sr_chains = [] ->
        Search.publish r;
        loop (i + 1)
      | Ok r ->
        Search.publish r;
        Fmt.pr "redteam: FOUND at iteration %d (seed %Ld): %d chain%s, first \
                reaches %s@."
          i iseed
          (List.length r.Search.sr_chains)
          (if List.length r.Search.sr_chains = 1 then "" else "s")
          (Search.goal_name (List.hd r.Search.sr_chains).Search.c_goal);
        (* shrink the recipe while the search still finds a chain; the
           final render is re-searched with confirmation on *)
        let reproduces sp' =
          match search_rendered ~confirm_chains:false (render ~sabotage sp')
          with
          | Ok r' -> r'.Search.sr_chains <> []
          | Error _ -> false
        in
        let shrunk = Shrink.minimize ~budget:80 ~reproduces sp in
        let rendered = render ~sabotage shrunk in
        let final =
          match search_rendered rendered with
          | Ok r' when r'.Search.sr_chains <> [] -> r'
          | _ -> r
        in
        let chain = List.hd final.Search.sr_chains in
        Fmt.pr "%a" pp_chain chain;
        let msg = chain_msg iseed chain in
        let entry =
          {
            Corpus.c_seed = iseed;
            c_oracle = 7;
            c_drop_check = None;
            c_msg = msg;
            c_static = rendered.Spec.r_static;
            c_dynamic = rendered.Spec.r_dynamic;
          }
        in
        let path = artifact_path ~corpus ~seed:iseed entry in
        record_bundle iseed chain;
        Fmt.pr "  shrunk to %d MiniC lines@." (Spec.line_count rendered);
        Fmt.pr "  written to %s (replay: mcfi redteam --replay %s)@." path path;
        Option.iter
          (fun p -> write_report p (result_json ~seed:iseed final))
          report;
        1
    end
  in
  loop 0

(* ---------- file mode ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let module_name path = Filename.remove_extension (Filename.basename path)

let run_file ~files ~dynamic ~report =
  let static = List.map (fun p -> (module_name p, read_file p)) files in
  let dyn = List.map (fun p -> (module_name p, read_file p)) dynamic in
  let build () = Oracle.build ~instrumented:true ~static ~dynamic:dyn () in
  match Search.run ~build () with
  | Error e ->
    Fmt.epr "redteam: %s@." e;
    2
  | Ok r ->
    Search.publish r;
    Fmt.pr "%a" Reach.pp_table r.Search.sr_reach;
    Option.iter (fun p -> write_report p (result_json r)) report;
    if r.Search.sr_chains = [] then begin
      Fmt.pr "no in-policy chain found (%d sites scanned, %d edges checked)@."
        r.Search.sr_sites_scanned r.Search.sr_edges_checked;
      0
    end
    else begin
      List.iter (fun c -> Fmt.pr "%a" pp_chain c) r.Search.sr_chains;
      1
    end

(* ---------- replay mode ---------- *)

let replay_one path =
  match Corpus.read path with
  | Error msg ->
    Fmt.pr "%s: unreadable: %s@." path msg;
    2
  | Ok e ->
    let build () =
      Oracle.build ~instrumented:true ~static:e.Corpus.c_static
        ~dynamic:e.Corpus.c_dynamic ()
    in
    (match Search.run ~build () with
    | Error msg ->
      Fmt.pr "%s: unreadable: %s@." path msg;
      2
    | Ok r when r.Search.sr_chains <> [] ->
      let c = List.hd r.Search.sr_chains in
      Fmt.pr "%s: reproduced (%a)@." path
        (fun ppf c ->
          Fmt.pf ppf "start slot %d, %d hop%s, %s%s" c.Search.c_start
            (List.length c.Search.c_hops)
            (if List.length c.Search.c_hops = 1 then "" else "s")
            (Search.goal_name c.Search.c_goal)
            (if c.Search.c_confirmed then ", confirmed" else ""))
        c;
      0
    | Ok _ ->
      Fmt.pr "%s: chain vanished (policy closed it?)@." path;
      1)

let run_replay files =
  List.fold_left (fun acc p -> max acc (replay_one p)) 0 files

let main = function
  | Campaign { seed; iters; budget; corpus; sabotage; report } ->
    run_campaign ~seed ~iters ~budget ~corpus ~sabotage ~report
  | File { files; dynamic; report } -> run_file ~files ~dynamic ~report
  | Replay files -> run_replay files

let cmd =
  Cmd.v
    (Cmd.info "redteam"
       ~doc:"in-policy attack synthesis: enumerate the admitted attack \
             surface and search for attacker-steerable chains from \
             corruptible sites to dangerous primitives that pass every \
             MCFI check")
    Term.(const main $ mode_term)

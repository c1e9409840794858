(* The `mcfi fleet` subcommand.

   Exposed as a [Cmdliner] term (plus the pure [config_of] assembly) so
   the test suite can drive flag parsing through [Cmd.eval_value ~argv]
   without spawning a process. *)

open Cmdliner

(* a count below its minimum is a usage error, not a silent clamp;
   [mcfi torture] parses its counts with this too *)
let count ~min what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ ->
      Error
        (`Msg (Printf.sprintf "invalid %s %S, expected N >= %d" what s min))
  in
  Arg.conv (parse, Fmt.int)

let seed_arg =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED"
         ~doc:"campaign seed; the whole chaos schedule replays from it")

let tenants_arg =
  Arg.(value & opt (some (count ~min:2 "tenant count")) None
       & info [ "tenants" ] ~docv:"N"
         ~doc:"fleet size (default 64, or 16 with $(b,--smoke))")

let workers_arg =
  Arg.(value & opt (some (count ~min:1 "worker count")) None
       & info [ "workers" ] ~docv:"N"
         ~doc:"worker domains multiplexing the tenants")

let ticks_arg =
  Arg.(value & opt (some int) None & info [ "ticks" ] ~docv:"N"
         ~doc:"supervision rounds to run")

let storm_every_arg =
  Arg.(value & opt (some int) None & info [ "storm-every" ] ~docv:"N"
         ~doc:"install-storm burst every $(docv) ticks (0 = never)")

let storm_size_arg =
  Arg.(value & opt (some int) None & info [ "storm-size" ] ~docv:"N"
         ~doc:"extra installs admitted per storm tick")

let churn_every_arg =
  Arg.(value & opt (some int) None & info [ "churn-every" ] ~docv:"N"
         ~doc:"retire-and-restart a healthy tenant every $(docv) ticks \
               (0 = never)")

let loaders_arg =
  Arg.(value & opt (some int) None & info [ "loaders" ] ~docv:"N"
         ~doc:"tenants that own a real process and churn dlopens")

let kill_one_in_arg =
  Arg.(value & opt (some int) None & info [ "kill-one-in" ] ~docv:"N"
         ~doc:"each tenant slice dies mid-install with probability 1/$(docv) \
               (replaces the default chaos plans together with the other \
               chaos flags)")

let wedge_one_in_arg =
  Arg.(value & opt (some int) None & info [ "wedge-one-in" ] ~docv:"N"
         ~doc:"each tenant slice wedges its epoch reader with probability \
               1/$(docv)")

let slow_one_in_arg =
  Arg.(value & opt (some int) None & info [ "slow-one-in" ] ~docv:"N"
         ~doc:"each tenant slice turns the tenant slow with probability \
               1/$(docv)")

let smoke_arg =
  Arg.(value & flag & info [ "smoke" ]
         ~doc:"the small CI fleet: 16 tenants, a deterministic kill and \
               wedge plan, short run")

let shards_arg =
  Arg.(value & opt (some (count ~min:1 "shard count")) None
       & info [ "shards" ] ~docv:"N"
         ~doc:"split the shared tables into $(docv) independently versioned \
               shard fault domains; each tenant is homed on one (default 1)")

let shard_breaker_arg =
  Arg.(value & opt (some int) None & info [ "shard-breaker" ] ~docv:"N"
         ~doc:"quarantine a whole shard (shedding only its own tenants) \
               after $(docv) crashes attributed to it (0 = off)")

let slo_breaker_arg =
  Arg.(value & flag & info [ "slo-breaker" ]
         ~doc:"let the SLO engine's shard burn-rate alerts trip the shard \
               breaker; the quarantine transition carries the alert id")

let forensics_arg =
  Arg.(value & opt (some string) None & info [ "forensics" ] ~docv:"DIR"
         ~doc:"write every forensic bundle the flight recorder snapshots \
               to $(docv) as forensics-<id>-<trigger>.json (replayable \
               with $(b,mcfi forensics))")

let telemetry_arg =
  Arg.(value & flag & info [ "telemetry" ]
         ~doc:"enable telemetry for the run and print the stats report")

let override v o = match o with Some x -> x | None -> v

let config_of seed tenants workers ticks storm_every storm_size churn_every
    loaders kill_one_in wedge_one_in slow_one_in shards shard_breaker
    slo_breaker smoke =
  let base = if smoke then Fleet.smoke ~seed else Fleet.default ~seed in
  let chaos =
    match (kill_one_in, wedge_one_in, slow_one_in) with
    | None, None, None -> base.Fleet.fc_chaos
    | _ ->
      let plan action = function
        | Some one_in when one_in > 0 ->
          [ Faults.Tenant.Random { seed; one_in; action } ]
        | _ -> []
      in
      plan Faults.Tenant.Kill_install kill_one_in
      @ plan Faults.Tenant.Wedge_reader wedge_one_in
      @ plan Faults.Tenant.Slow_tenant slow_one_in
  in
  {
    base with
    Fleet.fc_tenants = override base.Fleet.fc_tenants tenants;
    fc_workers = override base.Fleet.fc_workers workers;
    fc_ticks = override base.Fleet.fc_ticks ticks;
    fc_storm_every = override base.Fleet.fc_storm_every storm_every;
    fc_storm_size = override base.Fleet.fc_storm_size storm_size;
    fc_churn_every = override base.Fleet.fc_churn_every churn_every;
    fc_loaders = override base.Fleet.fc_loaders loaders;
    fc_chaos = chaos;
    fc_shards = override base.Fleet.fc_shards shards;
    fc_shard_breaker = override base.Fleet.fc_shard_breaker shard_breaker;
    fc_slo_breaker = base.Fleet.fc_slo_breaker || slo_breaker;
  }

let config_term =
  Term.(const config_of $ seed_arg $ tenants_arg $ workers_arg $ ticks_arg
        $ storm_every_arg $ storm_size_arg $ churn_every_arg $ loaders_arg
        $ kill_one_in_arg $ wedge_one_in_arg $ slow_one_in_arg $ shards_arg
        $ shard_breaker_arg $ slo_breaker_arg $ smoke_arg)

let main config telemetry forensics =
  let config = Fleet.effective config in
  if telemetry then Telemetry.enable ();
  if forensics <> None then Obs.Flightrec.set_dir forensics;
  Fmt.pr "fleet: %a@." Fleet.pp_config config;
  let r = Fleet.run config in
  Fmt.pr "%a@." Fleet.pp_report r;
  if telemetry then Fmt.pr "%a@." Telemetry.Export.pp_stats ();
  if forensics <> None then
    Fmt.pr "forensics: %d bundle(s) written to %s@."
      (List.length (Obs.Flightrec.files_written ()))
      (Option.value ~default:"" forensics);
  if Fleet.ok r then begin
    Fmt.pr "fleet: OK@.";
    0
  end
  else begin
    Fmt.pr "fleet: FAILED (%d anomalies, %d unrecovered, quiesce %b)@."
      (List.length r.Fleet.fr_anomalies)
      r.Fleet.fr_unrecovered r.Fleet.fr_final_quiesce;
    1
  end

let cmd =
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"supervise a tenant fleet on shared ID tables under seeded \
             chaos: mid-install kills, wedged readers, install storms, \
             churn — validated by the epoch-history oracle")
    Term.(const main $ config_term $ telemetry_arg $ forensics_arg)

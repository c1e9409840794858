(* Tier-1 tests for the fleet supervisor: the per-tenant health state
   machine (every legal transition, restart budgets, the circuit
   breaker), the seeded-jitter backoff schedule, tenant-scoped fault
   plans, and — as the acceptance gate — a seeded chaos fleet run whose
   every check is validated by the epoch-history oracle. *)

module H = Supervisor.Health
module FT = Faults.Tenant
module Fl = Supervisor.Fleet

let state = Alcotest.testable H.pp_state ( = )

(* A small, fast policy: transitions within a handful of ticks. *)
let policy =
  {
    H.default_policy with
    p_start_ticks = 2;
    p_heal_ticks = 2;
    p_degrade_exhausted = 2;
    p_degrade_retries = 100;
    p_stall_ticks = 3;
    p_breaker_ticks = 4;
    p_restart_budget = 2;
    p_budget_window = 100;
    p_backoff_base = 2;
    p_backoff_cap = 3;
  }

(* Drive a machine with a monotone clock and an always-advancing epoch
   (so the stall detector stays quiet unless a test wants it). *)
type clock = { mutable now : int; mutable epoch : int }

let clock () = { now = 0; epoch = 0 }

let tick ?(crashed = false) ?(exhausted = 0) ?(retries = 0) ?(stall = false) c h
    =
  c.now <- c.now + 1;
  if not stall then c.epoch <- c.epoch + 1;
  H.tick h ~now:c.now
    {
      (H.quiet ~epoch:c.epoch) with
      s_crashed = crashed;
      s_exhausted = exhausted;
      s_retries = retries;
    }

(* Tick quietly until the machine reports [target] or [fuel] runs out. *)
let run_to ?(fuel = 64) c h target =
  let rec go fuel =
    if H.state h = target then ()
    else if fuel = 0 then
      Alcotest.failf "never reached %s (stuck in %s)" (H.state_name target)
        (H.state_name (H.state h))
    else begin
      ignore (tick c h);
      go (fuel - 1)
    end
  in
  go fuel

(* ---- legal transitions, one by one ---- *)

let test_starting_to_healthy () =
  let c = clock () in
  let h = H.create policy in
  Alcotest.check state "born starting" H.Starting (H.state h);
  run_to ~fuel:(policy.H.p_start_ticks + 2) c h H.Healthy;
  Alcotest.(check int) "attempt reset when healthy" 0 (H.restart_attempt h)

let test_healthy_degraded_healed () =
  let c = clock () in
  let h = H.create policy in
  run_to c h H.Healthy;
  let was, is = tick ~exhausted:policy.H.p_degrade_exhausted c h in
  Alcotest.check state "trouble degrades (from)" H.Healthy was;
  Alcotest.check state "trouble degrades (to)" H.Degraded is;
  run_to ~fuel:(policy.H.p_heal_ticks + 2) c h H.Healthy

let test_breaker_quarantines_sustained_degraded () =
  let c = clock () in
  let h = H.create policy in
  run_to c h H.Healthy;
  let rec storm fuel =
    if H.state h = H.Quarantined then fuel
    else if fuel = 0 then Alcotest.fail "breaker never tripped"
    else begin
      ignore (tick ~exhausted:policy.H.p_degrade_exhausted c h);
      storm (fuel - 1)
    end
  in
  ignore (storm (policy.H.p_breaker_ticks + 2));
  (* absorbing, bar retire: neither calm nor crash leaves it *)
  ignore (tick c h);
  Alcotest.check state "quarantine absorbs calm" H.Quarantined (H.state h);
  ignore (tick ~crashed:true c h);
  Alcotest.check state "quarantine absorbs crash" H.Quarantined (H.state h)

let test_wedge_degrades () =
  let c = clock () in
  let h = H.create policy in
  run_to c h H.Healthy;
  (* a stalled reader epoch is trouble once it persists p_stall_ticks *)
  for _ = 1 to policy.H.p_stall_ticks + 1 do
    ignore (tick ~stall:true c h)
  done;
  Alcotest.check state "stalled epoch degrades" H.Degraded (H.state h)

let test_crash_restart_cycle () =
  let c = clock () in
  let h = H.create policy in
  run_to c h H.Healthy;
  let was, is = tick ~crashed:true c h in
  Alcotest.check state "crash (from)" H.Healthy was;
  Alcotest.check state "crash (to)" H.Restarting is;
  Alcotest.(check int) "first attempt" 1 (H.restart_attempt h);
  Alcotest.(check int) "one restart in window" 1 (H.restarts_in_window h);
  let delay = H.last_restart_delay h in
  Alcotest.(check bool) "positive backoff" true (delay >= 1);
  (* waits out the backoff, then relaunches through Starting *)
  run_to ~fuel:(delay + policy.H.p_start_ticks + 3) c h H.Healthy

let test_budget_exhaustion_quarantines () =
  let c = clock () in
  let h = H.create policy in
  run_to c h H.Healthy;
  (* burn the whole window budget with back-to-back crashes *)
  let restarts = ref 0 in
  let rec crash fuel =
    if H.state h = H.Quarantined then ()
    else if fuel = 0 then Alcotest.fail "budget never exhausted"
    else begin
      (match tick ~crashed:true c h with
      | _, H.Restarting -> incr restarts
      | _ -> ());
      (* let any scheduled restart play out before crashing again *)
      let rec settle fuel =
        match H.state h with
        | H.Restarting when fuel > 0 ->
          ignore (tick c h);
          settle (fuel - 1)
        | _ -> ()
      in
      settle 32;
      crash (fuel - 1)
    end
  in
  crash 16;
  Alcotest.(check int)
    "exactly the budget was spent" policy.H.p_restart_budget !restarts

let test_budget_window_rolls () =
  let c = clock () in
  let h = H.create policy in
  run_to c h H.Healthy;
  (* spend the budget, recovering fully between crashes *)
  for _ = 1 to policy.H.p_restart_budget do
    ignore (tick ~crashed:true c h);
    run_to c h H.Healthy
  done;
  Alcotest.(check int)
    "window full" policy.H.p_restart_budget (H.restarts_in_window h);
  (* a quiet stretch longer than the window replenishes it *)
  for _ = 1 to policy.H.p_budget_window + 1 do
    ignore (tick c h)
  done;
  let _, is = tick ~crashed:true c h in
  Alcotest.check state "budget replenished" H.Restarting is

let test_retire_and_decree () =
  let h = H.create policy in
  let was, is = H.retire h in
  Alcotest.check state "retire (from)" H.Starting was;
  Alcotest.check state "retire (to)" H.Dead is;
  ignore (H.quarantine h);
  Alcotest.check state "dead absorbs decree" H.Dead (H.state h);
  let h2 = H.create policy in
  let was, is = H.quarantine h2 in
  Alcotest.check state "decree (from)" H.Starting was;
  Alcotest.check state "decree (to)" H.Quarantined is

let test_escalation_ladder () =
  let esc s = H.escalation_of s in
  List.iter
    (fun s ->
      let expected =
        match s with
        | H.Starting | H.Healthy -> Idtables.Tx.Wait_for_updater
        | _ -> Idtables.Tx.Fail_check
      in
      Alcotest.(check bool)
        (Printf.sprintf "escalation of %s" (H.state_name s))
        true
        (esc s = expected))
    H.all_states

let test_state_codes_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.check state "code roundtrip" s (H.state_of_code (H.state_code s)))
    H.all_states

(* ---- backoff schedule ---- *)

let test_backoff_schedule () =
  (* unjittered: pure capped exponential *)
  List.iter
    (fun (attempt, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "attempt %d" attempt)
        expect
        (H.restart_delay_preview policy attempt))
    [ (1, 2); (2, 4); (3, 8); (4, 16); (5, 16); (9, 16) ];
  (* jittered: deterministic per seed, bounded in [d, 2d) *)
  let schedule seed =
    let prng = Mcfi_util.Prng.create seed in
    List.init 16 (fun i -> H.restart_delay_preview policy ~prng (i + 1))
  in
  Alcotest.(check (list int))
    "same seed, same schedule" (schedule 0xBACC0FFL) (schedule 0xBACC0FFL);
  Alcotest.(check bool)
    "different seed diverges" true
    (schedule 0xBACC0FFL <> schedule 0xD1FFL);
  let prng = Mcfi_util.Prng.create 99L in
  for attempt = 1 to 12 do
    let base = H.restart_delay_preview policy attempt in
    let d = H.restart_delay_preview policy ~prng attempt in
    if d < base || d >= 2 * base then
      Alcotest.failf "attempt %d: jittered delay %d outside [%d, %d)" attempt d
        base (2 * base)
  done

(* ---- tenant-scoped fault plans ---- *)

let test_tenant_at_fires_once () =
  let armed = FT.arm [ FT.At { tenant = 3; action = Kill_install; hit = 2 } ] in
  Alcotest.(check bool)
    "other tenants never fire" true
    (List.for_all
       (fun _ -> FT.crossing armed ~tenant:5 = None)
       (List.init 8 Fun.id));
  Alcotest.(check bool) "hit 1 quiet" true (FT.crossing armed ~tenant:3 = None);
  Alcotest.(check bool)
    "hit 2 fires" true
    (FT.crossing armed ~tenant:3 = Some FT.Kill_install);
  Alcotest.(check bool)
    "one-shot" true
    (List.for_all
       (fun _ -> FT.crossing armed ~tenant:3 = None)
       (List.init 8 Fun.id))

let test_tenant_random_replays () =
  let draw () =
    let armed =
      FT.arm [ FT.Random { seed = 0xCAFEL; one_in = 5; action = Slow_tenant } ]
    in
    List.init 4 (fun tenant ->
        List.init 200 (fun _ -> FT.crossing armed ~tenant <> None))
  in
  let a = draw () and b = draw () in
  Alcotest.(check bool) "same seed replays exactly" true (a = b);
  let fired = List.concat a |> List.filter Fun.id |> List.length in
  Alcotest.(check bool)
    "plausible firing rate" true
    (fired > 0 && fired < 800);
  (* per-tenant streams differ: not every tenant sees the same pattern *)
  match a with
  | s0 :: rest ->
    Alcotest.(check bool)
      "streams are per-tenant" true
      (List.exists (fun s -> s <> s0) rest)
  | [] -> assert false

(* ---- the acceptance gate: seeded chaos fleets ---- *)

let check_fleet r =
  if not (Fl.ok r) then
    Alcotest.failf "fleet run failed:@.%a" Fl.pp_report r;
  Alcotest.(check int) "every killed tenant recovered" 0 r.Fl.fr_unrecovered;
  Alcotest.(check bool) "final quiescence reached" true r.Fl.fr_final_quiesce;
  Alcotest.(check bool)
    "oracle-validated checks ran" true
    (r.Fl.fr_checks > 0 && r.Fl.fr_passes > 0);
  Alcotest.(check bool)
    "installs were served" true
    (r.Fl.fr_served > 0)

let test_fleet_smoke () =
  let r = Fl.run (Fl.smoke ~seed:11L) in
  check_fleet r;
  (* the smoke chaos schedule is deterministic: tenant 3 is killed
     mid-install, tenant 7 wedges its reader *)
  Alcotest.(check bool) "the scripted kill fired" true (r.Fl.fr_kills >= 1);
  Alcotest.(check bool)
    "the wedged tenant was contained" true
    (r.Fl.fr_quarantined >= 1)

let test_fleet_chaos () =
  let cfg = Fl.default ~seed:0xC4A05L in
  Alcotest.(check bool) "acceptance scale" true (cfg.Fl.fc_tenants >= 64);
  let r = Fl.run cfg in
  check_fleet r;
  Alcotest.(check bool) "chaos actually killed tenants" true (r.Fl.fr_kills > 0);
  Alcotest.(check bool)
    "survival rate accounted" true
    (r.Fl.fr_survival_rate >= 0.0 && r.Fl.fr_survival_rate <= 1.0)

(* ---- sharded fleets: fault domains and the per-shard breaker ---- *)

let test_fleet_sharded () =
  let cfg = { (Fl.smoke ~seed:21L) with Fl.fc_shards = 2 } in
  let r = Fl.run cfg in
  check_fleet r;
  Alcotest.(check int) "per-shard install tallies" 2
    (Array.length r.Fl.fr_shard_installs);
  Alcotest.(check int) "per-shard served tallies" 2
    (Array.length r.Fl.fr_shard_served);
  (* tenants are homed id mod shards, so both shards carry load *)
  Array.iteri
    (fun i n -> if n < 1 then Alcotest.failf "shard %d served nothing" i)
    r.Fl.fr_shard_served;
  Alcotest.(check int) "no shard quarantined" 0 r.Fl.fr_shards_quarantined

let test_shard_breaker_confines () =
  (* hammer shard 1's tenants (ids 1, 3, 5 under 2 shards) with
     mid-install kills until the shard breaker trips; shard 0's tenants
     must keep serving, untouched by the quarantine *)
  let seed = 31L in
  let cfg =
    {
      (Fl.smoke ~seed) with
      Fl.fc_shards = 2;
      fc_shard_breaker = 3;
      fc_churn_every = 0;
      fc_chaos =
        [
          FT.At { tenant = 1; action = Kill_install; hit = 2 };
          FT.At { tenant = 3; action = Kill_install; hit = 2 };
          FT.At { tenant = 5; action = Kill_install; hit = 2 };
        ];
    }
  in
  let r = Fl.run cfg in
  if not (Fl.ok r) then Alcotest.failf "fleet run failed:@.%a" Fl.pp_report r;
  Alcotest.(check int) "three kills landed" 3 r.Fl.fr_kills;
  Alcotest.(check int) "exactly one shard quarantined" 1
    r.Fl.fr_shards_quarantined;
  (* the quarantined shard shed only its own tenants: every shard-1
     tenant is quarantined or dead, while shard 0 kept its full
     complement serving installs to the end *)
  Alcotest.(check bool) "the rotten shard's tenants were shed" true
    (r.Fl.fr_quarantined >= 1);
  Alcotest.(check bool) "the healthy shard kept serving" true
    (r.Fl.fr_shard_served.(0) > 0);
  Alcotest.(check bool) "final quiescence despite the quarantine" true
    r.Fl.fr_final_quiesce

(* ---- `mcfi fleet` flag parsing ---- *)

let fleet_cmd term = Cmdliner.Cmd.v (Cmdliner.Cmd.info "fleet") term
let argv args = Array.of_list ("fleet" :: args)
let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore

let test_cli_parsing () =
  List.iter
    (fun args ->
      Alcotest.(check int)
        (String.concat " " args ^ " is a usage error")
        Cmdliner.Cmd.Exit.cli_error
        (Cmdliner.Cmd.eval' ~err:quiet ~help:quiet ~argv:(argv args)
           (fleet_cmd
              Cmdliner.Term.(const (fun _ -> 0) $ Supervisor.Cli.config_term))))
    [
      [ "--tenants"; "1" ];
      [ "--workers"; "0" ];
      [ "--shards"; "0" ];
      [ "--dispatch"; "byte" ];
    ];
  match
    Cmdliner.Cmd.eval_value ~err:quiet ~help:quiet
      ~argv:(argv [ "--smoke"; "--shards"; "4"; "--shard-breaker"; "6" ])
      (fleet_cmd Supervisor.Cli.config_term)
  with
  | Ok (`Ok fc) ->
    Alcotest.(check bool)
      "sharded smoke config" true
      (fc = { (Fl.smoke ~seed:1L) with Fl.fc_shards = 4; fc_shard_breaker = 6 })
  | _ -> Alcotest.fail "sharded smoke flags did not parse"

(* The config `mcfi fleet` prints is the one the run uses: a loader
   count above half the tenants is clamped before it is printed, and the
   run reports the same clamped config. *)
let test_cli_prints_effective_config () =
  match
    Cmdliner.Cmd.eval_value ~err:quiet ~help:quiet
      ~argv:(argv [ "--smoke"; "--tenants"; "4"; "--loaders"; "5" ])
      (fleet_cmd Supervisor.Cli.config_term)
  with
  | Ok (`Ok fc) ->
    let eff = Fl.effective fc in
    Alcotest.(check int) "loaders clamped to half the tenants" 2
      eff.Fl.fc_loaders;
    Alcotest.(check bool) "effective is a fixpoint" true (Fl.effective eff = eff);
    Alcotest.(check bool) "printed as run" true
      (String.starts_with ~prefix:"seed=1 tenants=4 (2 loaders)"
         (Fmt.str "%a" Fl.pp_config eff));
    let r = Fl.run { fc with Fl.fc_ticks = 4 } in
    Alcotest.(check bool) "the run reports the printed config" true
      (r.Fl.fr_config = { eff with Fl.fc_ticks = 4 })
  | _ -> Alcotest.fail "smoke flags did not parse"

let () =
  Alcotest.run "supervisor"
    [
      ( "health",
        [
          Alcotest.test_case "starting to healthy" `Quick
            test_starting_to_healthy;
          Alcotest.test_case "degrade and heal" `Quick
            test_healthy_degraded_healed;
          Alcotest.test_case "breaker quarantines" `Quick
            test_breaker_quarantines_sustained_degraded;
          Alcotest.test_case "wedge degrades" `Quick test_wedge_degrades;
          Alcotest.test_case "crash restart cycle" `Quick
            test_crash_restart_cycle;
          Alcotest.test_case "budget exhaustion quarantines" `Quick
            test_budget_exhaustion_quarantines;
          Alcotest.test_case "budget window rolls" `Quick
            test_budget_window_rolls;
          Alcotest.test_case "retire and decree" `Quick test_retire_and_decree;
          Alcotest.test_case "escalation ladder" `Quick test_escalation_ladder;
          Alcotest.test_case "state codes roundtrip" `Quick
            test_state_codes_roundtrip;
        ] );
      ( "backoff",
        [ Alcotest.test_case "seeded schedule" `Quick test_backoff_schedule ] );
      ( "tenant faults",
        [
          Alcotest.test_case "At fires exactly once" `Quick
            test_tenant_at_fires_once;
          Alcotest.test_case "Random replays from seed" `Quick
            test_tenant_random_replays;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "smoke under scripted chaos" `Quick
            test_fleet_smoke;
          Alcotest.test_case "64-tenant chaos acceptance" `Slow
            test_fleet_chaos;
          Alcotest.test_case "sharded fleet" `Quick
            test_fleet_sharded;
          Alcotest.test_case "shard breaker confines the blast" `Quick
            test_shard_breaker_confines;
        ] );
      ( "cli",
        [
          Alcotest.test_case "fleet flag parsing" `Quick test_cli_parsing;
          Alcotest.test_case "prints the config it runs" `Quick
            test_cli_prints_effective_config;
        ] );
    ]

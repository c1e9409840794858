(* The `mcfi top` renderer: one ANSI frame over whatever the registries
   currently hold — time-series rings, SLO trackers and their burn
   rates, the alert log, and the flight recorder's accounting.  The
   renderer owns no state and takes no locks beyond the registries'
   own, so it can run on the main domain while a fleet runs on
   workers. *)

let esc = "\027["
let bold s = esc ^ "1m" ^ s ^ esc ^ "0m"
let dim s = esc ^ "2m" ^ s ^ esc ^ "0m"
let red s = esc ^ "31m" ^ s ^ esc ^ "0m"
let green s = esc ^ "32m" ^ s ^ esc ^ "0m"
let yellow s = esc ^ "33m" ^ s ^ esc ^ "0m"

let plain s = s

let sparks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

(* a sparkline over the raw values, self-scaled to their min/max *)
let spark values =
  match values with
  | [] -> ""
  | vs ->
    let lo = List.fold_left Float.min infinity vs in
    let hi = List.fold_left Float.max neg_infinity vs in
    let span = if hi -. lo < 1e-9 then 1.0 else hi -. lo in
    String.concat ""
      (List.map
         (fun v ->
           let k =
             int_of_float ((v -. lo) /. span *. 7.0 +. 0.5)
             |> max 0 |> min 7
           in
           sparks.(k))
         vs)

let render ?(color = true) ?(width = 30) () =
  let c f s = if color then f s else plain s in
  let b = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "%s\n"
    (c bold
       (Printf.sprintf "mcfi top — %s"
          (let t = Unix.gettimeofday () in
           let tm = Unix.localtime t in
           Printf.sprintf "%02d:%02d:%02d" tm.Unix.tm_hour tm.Unix.tm_min
             tm.Unix.tm_sec)));
  (* flight recorder *)
  let ct = Telemetry.check_totals () in
  p "%s recording=%s bundles=%d dropped=%d notes=%d\n"
    (c bold "flight recorder:")
    (if Flightrec.recording () then c green "on" else c red "OFF")
    (Flightrec.emitted ()) (Flightrec.dropped ())
    (Telemetry.events_emitted ());
  if ct.cc_checks > 0 then
    p "  checks=%d pass=%d violation=%d exhausted=%d retries=%d\n"
      ct.cc_checks ct.cc_passes ct.cc_violations ct.cc_exhausted ct.cc_retries;
  List.iter
    (fun (tr, n) ->
      if n > 0 then p "  %-22s %6d\n" (Flightrec.trigger_name tr) n)
    (Flightrec.counts ());
  (* time series *)
  let series = Timeseries.all () in
  if series <> [] then begin
    p "%s\n" (c bold "series:");
    List.iter
      (fun s ->
        let window = Timeseries.recent s width in
        let values = List.map snd window in
        let last = match Timeseries.last s with
          | Some (_, v) -> v
          | None -> 0.0
        in
        p "  %-28s %10.1f %s\n" (Timeseries.name s) last
          (c dim (spark values)))
      series
  end;
  (* SLO trackers *)
  let trackers = Slo.trackers () in
  if trackers <> [] then begin
    p "%s\n" (c bold "slo burn (fast/slow):");
    List.iter
      (fun tk ->
        let fast, slow = Slo.burns tk in
        let line =
          Printf.sprintf "  %-20s %-12s %6.2f / %-6.2f%s"
            (Slo.objective_of tk).Slo.o_name (Slo.entity tk) fast slow
            (if Slo.alerting tk then "  BURNING" else "")
        in
        p "%s\n"
          (if Slo.alerting tk then c red line
           else if fast >= 1.0 then c yellow line
           else line))
      trackers
  end;
  (* recent alerts *)
  let alerts = Slo.alerts () in
  if alerts <> [] then begin
    p "%s\n" (c bold "recent alerts:");
    let tail =
      let n = List.length alerts in
      List.filteri (fun i _ -> i >= n - 8) alerts
    in
    List.iter (fun al -> p "  %s\n" (Fmt.str "%a" Slo.pp_alert al)) tail
  end;
  Buffer.contents b

let frame ?color ?width () =
  (* home + clear-to-end keeps the frame flicker-free vs a full clear *)
  esc ^ "H" ^ esc ^ "J" ^ render ?color ?width ()

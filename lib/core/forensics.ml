(* Consumer side of the flight recorder's forensic bundles: parse the
   self-contained JSON back, check the shape the emitter guarantees, and
   replay it for a human.  Lives in the core library so both the CLI
   subcommand and the tier-1 suite can drive it without the bench
   binary. *)

module J = Mcfi_util.Json

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> J.parse s
  | exception Sys_error e -> Error e

(* ---- validation ---- *)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let field name j =
  match J.member name j with
  | Some v -> Ok v
  | None -> err "missing field %S" name

let number name j =
  let* v = field name j in
  match J.to_float v with
  | Some f when Float.is_finite f -> Ok f
  | _ -> err "field %S is not a finite number" name

let string_field name j =
  let* v = field name j in
  match v with J.Str s -> Ok s | _ -> err "field %S is not a string" name

let obj_field name j =
  let* v = field name j in
  match v with J.Obj _ -> Ok v | _ -> err "field %S is not an object" name

let validate_event i j =
  match j with
  | J.Obj _ ->
    let* _ = number "domain" j in
    let* _ = number "seq" j in
    let* _ = string_field "kind" j in
    let* _ = number "a" j in
    let* _ = number "b" j in
    let* _ = number "c" j in
    Ok ()
  | _ -> err "events[%d] is not an object" i

(* The drain orders events (domain, seq) and discards torn slots, so
   within one domain the sequence numbers of a well-formed bundle are
   strictly increasing — a duplicate or regression means the snapshot
   was corrupted (or hand-edited). *)
let validate_event_order events =
  let last : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let rec go i = function
    | [] -> Ok ()
    | e :: rest ->
      let* d = number "domain" e in
      let* s = number "seq" e in
      let d = int_of_float d and s = int_of_float s in
      (match Hashtbl.find_opt last d with
      | Some prev when s <= prev ->
        err "events[%d]: domain %d sequence went %d -> %d (not increasing)" i
          d prev s
      | _ ->
        Hashtbl.replace last d s;
        go (i + 1) rest)
  in
  go 0 events

let validate j =
  let* schema = string_field "schema" j in
  if schema <> Obs.Flightrec.schema then
    err "schema %S, expected %S" schema Obs.Flightrec.schema
  else
    let* v = number "schema_version" j in
    if int_of_float v <> Obs.Flightrec.schema_version then
      err "schema_version %g, this build reads %d" v
        Obs.Flightrec.schema_version
    else
      let* trigger = string_field "trigger" j in
      match Obs.Flightrec.trigger_of_name trigger with
      | None -> err "unknown trigger %S" trigger
      | Some _ ->
        let* _ = number "id" j in
        let* _ = string_field "reason" j in
        let* _ = number "at_ns" j in
        let* _ = obj_field "extra" j in
        let* events = field "events" j in
        let* events =
          match events with
          | J.Arr l -> Ok l
          | _ -> err "field \"events\" is not an array"
        in
        let* () =
          List.fold_left
            (fun acc (i, e) ->
              let* () = acc in
              validate_event i e)
            (Ok ())
            (List.mapi (fun i e -> (i, e)) events)
        in
        let* () = validate_event_order events in
        let* tallies = obj_field "tallies" j in
        let* () =
          List.fold_left
            (fun acc k ->
              let* () = acc in
              let* _ = number k tallies in
              Ok ())
            (Ok ())
            [ "checks"; "passes"; "violations"; "exhausted"; "retries" ]
        in
        let* counters = obj_field "counters" j in
        List.fold_left
          (fun acc k ->
            let* () = acc in
            let* _ = number k counters in
            Ok ())
          (Ok ())
          ([ "bundles"; "dropped"; "notes" ]
          @ List.map
              (fun tr -> "trigger_" ^ Obs.Flightrec.trigger_name tr)
              Obs.Flightrec.all_triggers)

(* ---- replay ---- *)

let geti name j =
  match J.member name j with
  | Some v -> ( match J.to_float v with Some f -> int_of_float f | None -> 0)
  | None -> 0

let gets name j =
  match J.member name j with Some (J.Str s) -> s | _ -> ""

let rec pp_json ppf = function
  | J.Null -> Fmt.string ppf "null"
  | J.Bool b -> Fmt.bool ppf b
  | J.Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Fmt.pf ppf "%d" (int_of_float f)
    else Fmt.float ppf f
  | J.Str s -> Fmt.pf ppf "%s" s
  | J.Arr l -> Fmt.pf ppf "[@[<hov>%a@]]" (Fmt.list ~sep:Fmt.comma pp_json) l
  | J.Obj kvs ->
    Fmt.pf ppf "@[<v>%a@]"
      (Fmt.list ~sep:Fmt.cut (fun ppf (k, v) ->
           match v with
           | J.Obj _ -> Fmt.pf ppf "%s:@;<1 2>@[<v>%a@]" k pp_json v
           | _ -> Fmt.pf ppf "%s: %a" k pp_json v))
      kvs

let pp_event ppf e =
  let ctx =
    (match J.member "shard" e with
    | Some v -> Fmt.str " shard=%g" (Option.value ~default:0. (J.to_float v))
    | None -> "")
    ^ (match J.member "dispatch" e with
      | Some (J.Str s) -> " dispatch=" ^ s
      | _ -> "")
    ^
    match J.member "alert" e with
    | Some v -> Fmt.str " alert=#%g" (Option.value ~default:0. (J.to_float v))
    | None -> ""
  in
  Fmt.pf ppf "[d%d #%d] %-16s a=%-6d b=%-8d c=%-6d%s" (geti "domain" e)
    (geti "seq" e) (gets "kind" e) (geti "a" e) (geti "b" e) (geti "c" e) ctx

let pp ppf j =
  let events = match J.member "events" j with Some (J.Arr l) -> l | _ -> [] in
  let tallies =
    Option.value ~default:(J.Obj []) (J.member "tallies" j)
  in
  let counters =
    Option.value ~default:(J.Obj []) (J.member "counters" j)
  in
  Fmt.pf ppf
    "@[<v>forensic bundle #%d: %s@,\
     reason: %s@,\
     at: %d ns@,\
     tallies: %d checks (%d pass / %d violation / %d exhausted), %d \
     retries@,\
     recorder: %d bundle(s), %d dropped, %d note(s)@,"
    (geti "id" j) (gets "trigger" j) (gets "reason" j) (geti "at_ns" j)
    (geti "checks" tallies) (geti "passes" tallies)
    (geti "violations" tallies)
    (geti "exhausted" tallies)
    (geti "retries" tallies) (geti "bundles" counters)
    (geti "dropped" counters) (geti "notes" counters);
  (match J.member "extra" j with
  | Some (J.Obj (_ :: _ as kvs)) ->
    Fmt.pf ppf "context:@;<0 2>@[<v>%a@]@," pp_json (J.Obj kvs)
  | _ -> ());
  Fmt.pf ppf "events (%d, oldest first):@,  @[<v>%a@]@]"
    (List.length events)
    (Fmt.list ~sep:Fmt.cut pp_event)
    events

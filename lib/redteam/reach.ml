(* The attack-surface map: what the installed tables let an in-policy
   attacker aim at, per corruptible site.

   Sources of truth: the live tables give the admitted sets (a target is
   admitted at a slot iff its Tary ID and the slot's Bary ID share an
   ECN — exactly the comparison Tx.check performs), and the CFG input
   view gives each slot's kind and its raw, pre-merge edge count, so
   the table also shows how much each class over-approximates the
   precise CFG ("justified" vs "admitted"). *)

module Process = Mcfi_runtime.Process
module Tables = Idtables.Tables
module Id = Idtables.Id
module Cfggen = Cfg.Cfggen
module Json = Mcfi_util.Json
module IS = Set.Make (Int)

type kind = Kreturn | Kicall | Kitail | Kjumptable | Klongjmp | Kplt

let kind_name = function
  | Kreturn -> "return"
  | Kicall -> "icall"
  | Kitail -> "itail"
  | Kjumptable -> "jumptable"
  | Klongjmp -> "longjmp"
  | Kplt -> "plt"

let corruptible = function Kjumptable -> false | _ -> true
let backward = function Kreturn -> true | _ -> false

type site = {
  s_slot : int;
  s_kind : kind;
  s_owner : string;
  s_ecn : int;
  s_admitted : int array;
  s_justified : int;
}

type t = {
  r_sites : site list;
  r_histogram : (int * int) list;
  r_corruptible : int;
  r_forward_edges : int;
  r_backward_edges : int;
}

let kind_of_site = function
  | Cfggen.Sreturn _ -> Kreturn
  | Cfggen.Sicall _ -> Kicall
  | Cfggen.Sitail _ -> Kitail
  | Cfggen.Sjumptable _ -> Kjumptable
  | Cfggen.Slongjmp _ -> Klongjmp
  | Cfggen.Splt _ -> Kplt

let owner_of_site = function
  | Cfggen.Sreturn { fn }
  | Cfggen.Sicall { fn; _ }
  | Cfggen.Sitail { fn; _ }
  | Cfggen.Sjumptable { fn; _ }
  | Cfggen.Slongjmp { fn } ->
    fn
  | Cfggen.Splt { symbol } -> "plt:" ^ symbol

let compute proc =
  match Process.tables proc with
  | None -> None
  | Some tables ->
    let input = Process.cfg_input proc in
    (* class ECN -> sorted admitted target set, from the live Tary *)
    let by_ecn = Hashtbl.create 16 in
    List.iter
      (fun (addr, id) ->
        let ecn = Id.ecn id in
        let cur = Option.value (Hashtbl.find_opt by_ecn ecn) ~default:IS.empty in
        Hashtbl.replace by_ecn ecn (IS.add addr cur))
      (Tables.tary_entries tables);
    let admitted_of ecn =
      Array.of_list
        (IS.elements (Option.value (Hashtbl.find_opt by_ecn ecn) ~default:IS.empty))
    in
    let sites =
      List.map
        (fun (slot, id) ->
          let ecn = Id.ecn id in
          let kind, owner, justified =
            if slot < Array.length input.Cfggen.sites then begin
              let s = input.Cfggen.sites.(slot) in
              ( kind_of_site s,
                owner_of_site s,
                List.length
                  (List.sort_uniq compare (Cfggen.targets_of_site input s)) )
            end
            else (Kicall, "?", 0)
          in
          {
            s_slot = slot;
            s_kind = kind;
            s_owner = owner;
            s_ecn = ecn;
            s_admitted = admitted_of ecn;
            s_justified = justified;
          })
        (List.sort compare (Tables.bary_entries tables))
    in
    let hist = Hashtbl.create 16 in
    Hashtbl.iter
      (fun _ecn targets ->
        let n = IS.cardinal targets in
        Hashtbl.replace hist n (1 + Option.value (Hashtbl.find_opt hist n) ~default:0))
      by_ecn;
    let histogram =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) hist [])
    in
    let corr = List.filter (fun s -> corruptible s.s_kind) sites in
    let edges p =
      List.fold_left
        (fun acc s -> if p s then acc + Array.length s.s_admitted else acc)
        0 corr
    in
    Some
      {
        r_sites = sites;
        r_histogram = histogram;
        r_corruptible = List.length corr;
        r_forward_edges = edges (fun s -> not (backward s.s_kind));
        r_backward_edges = edges (fun s -> backward s.s_kind);
      }

let site t slot = List.find_opt (fun s -> s.s_slot = slot) t.r_sites

let admits t ~slot ~target =
  match site t slot with
  | None -> false
  | Some s -> Array.exists (fun a -> a = target) s.s_admitted

let attack_edges t = t.r_forward_edges + t.r_backward_edges

let pp_table ppf t =
  Fmt.pf ppf "attack surface: %d sites, %d corruptible (%d forward / %d backward admitted edges)@."
    (List.length t.r_sites) t.r_corruptible t.r_forward_edges t.r_backward_edges;
  Fmt.pf ppf "%-5s %-10s %-14s %6s %9s %9s@." "slot" "kind" "owner" "ecn"
    "admitted" "justified";
  List.iter
    (fun s ->
      Fmt.pf ppf "%-5d %-10s %-14s %6d %9d %9d%s@." s.s_slot
        (kind_name s.s_kind) s.s_owner s.s_ecn (Array.length s.s_admitted)
        s.s_justified
        (if corruptible s.s_kind then "" else "  (not corruptible)"))
    t.r_sites;
  Fmt.pf ppf "class-size histogram (size: classes):";
  List.iter (fun (size, n) -> Fmt.pf ppf " %d:%d" size n) t.r_histogram;
  Fmt.pf ppf "@."

let to_json t =
  Json.Obj
    [
      ("sites", Json.num (List.length t.r_sites));
      ("corruptible_sites", Json.num t.r_corruptible);
      ("forward_edges", Json.num t.r_forward_edges);
      ("backward_edges", Json.num t.r_backward_edges);
      ( "class_histogram",
        Json.Arr
          (List.map
             (fun (size, n) -> Json.Arr [ Json.num size; Json.num n ])
             t.r_histogram) );
      ( "per_site",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("slot", Json.num s.s_slot);
                   ("kind", Json.str (kind_name s.s_kind));
                   ("owner", Json.str s.s_owner);
                   ("ecn", Json.num s.s_ecn);
                   ("admitted", Json.num (Array.length s.s_admitted));
                   ("justified", Json.num s.s_justified);
                 ])
             t.r_sites) );
    ]

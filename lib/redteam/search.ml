(* In-policy attack synthesis.

   Threat model (paper §4): the attacker runs between any two retired
   instructions and may write any writable data — but not registers,
   code, or the tables.  So the only control it has over an indirect
   branch is through the memory the branch operand transits (saved
   return address, function-pointer cell, GOT slot), and the branch
   still goes through the full Bary/Tary check: the attack surface is
   exactly the admitted in-class target sets Reach computes.

   The search asks: does any *diverted* admitted edge (in-class, passes
   the live Tx.check, never taken benignly) lead — by straight-line
   execution from the landing address — to a dangerous primitive, or to
   another corruptible site to chain through?  The walk is a small
   abstract interpreter over the decoded image: it tracks
   constant-vs-unknown register values and an abstract value stack
   (enough to resolve syscall numbers through the codegen's
   push-all/pop-all syscall sequence), forks at conditional branches,
   stops at Halt / instrumented sites / unresolvable indirect flow, and
   flags dangerous syscalls (sbrk, dlopen, dlsym, or an unresolved
   number) and stores outside the sandbox-mask idiom.

   A found chain is compiled into a concrete attacker plan for its
   first hop and re-executed for confirmation: the plan is installed as
   a Machine attacker hook (identical under both dispatch engines — the
   threaded engine defers to the byte path while an attacker is
   installed) and the diverted transfer must be observed committing. *)

module Process = Mcfi_runtime.Process
module Machine = Mcfi_runtime.Machine
module Tables = Idtables.Tables
module Tx = Idtables.Tx
module Disasm = Vmisa.Disasm
module Instr = Vmisa.Instr
module Abi = Vmisa.Abi
module Json = Mcfi_util.Json
module Spec = Fuzz.Spec
module IS = Set.Make (Int)

type goal = Gsyscall of int option | Gwrite of int

let goal_name = function
  | Gsyscall (Some n) ->
    Printf.sprintf "syscall-%s"
      (Option.value (Abi.name_of_syscall n) ~default:(string_of_int n))
  | Gsyscall None -> "syscall-unresolved"
  | Gwrite pc -> Printf.sprintf "unmasked-store@0x%x" pc

type plan =
  | Corrupt_global of { sym : string; words : int; value : int }
  | Corrupt_return of { pop_pc : int; hit : int; value : int }

let pp_plan ppf = function
  | Corrupt_global { sym; words; value } ->
    Fmt.pf ppf "corrupt-global %s[0..%d] <- 0x%x" sym (words - 1) value
  | Corrupt_return { pop_pc; hit; value } ->
    Fmt.pf ppf "corrupt-return @0x%x hit %d <- 0x%x" pop_pc hit value

let plan_json = function
  | Corrupt_global { sym; words; value } ->
    Json.Obj
      [
        ("kind", Json.str "corrupt-global");
        ("sym", Json.str sym);
        ("words", Json.num words);
        ("value", Json.num value);
      ]
  | Corrupt_return { pop_pc; hit; value } ->
    Json.Obj
      [
        ("kind", Json.str "corrupt-return");
        ("pop_pc", Json.num pop_pc);
        ("hit", Json.num hit);
        ("value", Json.num value);
      ]

type hop = { h_slot : int; h_target : int; h_diverted : bool }

type chain = {
  c_start : int;
  c_hops : hop list;
  c_goal : goal;
  c_goal_pc : int;
  c_plan : plan option;
  c_confirmed : bool;
  c_exit : string;
}

let chain_json c =
  Json.Obj
    [
      ("start_slot", Json.num c.c_start);
      ( "hops",
        Json.Arr
          (List.map
             (fun h ->
               Json.Obj
                 [
                   ("slot", Json.num h.h_slot);
                   ("target", Json.num h.h_target);
                   ("diverted", Json.Bool h.h_diverted);
                 ])
             c.c_hops) );
      ("goal", Json.str (goal_name c.c_goal));
      ("goal_pc", Json.num c.c_goal_pc);
      ( "plan",
        match c.c_plan with None -> Json.Null | Some p -> plan_json p );
      ("confirmed", Json.Bool c.c_confirmed);
      ("exit", Json.str c.c_exit);
    ]

type result = {
  sr_reach : Reach.t;
  sr_exit : Machine.exit_reason;
  sr_chains : chain list;
  sr_sites_scanned : int;
  sr_edges_checked : int;
  sr_walks : int;
}

(* ---------- site metadata from the decoded image ---------- *)

(* The rewriter's shapes are fixed (rewriter.ml): a return site is
   [Pop r12] directly before its [Bary_load], and every read block's
   committing [Call_r]/[Jmp_r] follows its [Bary_load] within a few
   instructions (Tary_load, compare, branch-to-check, alignment Nops). *)
type sitemeta = {
  sm_slot : int;
  sm_commit_pc : int option;
  sm_pop_pc : int option;
}

let decode m =
  let listing, _err =
    Disasm.disassemble ~base:(Machine.code_base m) (Machine.code_image m)
  in
  let arr = Array.of_list listing in
  let index = Hashtbl.create (Array.length arr) in
  Array.iteri (fun i (addr, _) -> Hashtbl.replace index addr i) arr;
  (arr, index)

let sitemap arr =
  let metas = Hashtbl.create 32 in
  let commits = Hashtbl.create 32 in
  Array.iteri
    (fun i (_, ins) ->
      match ins with
      | Instr.Bary_load (_, slot) ->
        let pop_pc =
          if i > 0 then
            match arr.(i - 1) with
            | pa, Instr.Pop r when r = Instr.rscratch1 -> Some pa
            | _ -> None
          else None
        in
        let commit = ref None in
        (try
           for j = i + 1 to min (i + 12) (Array.length arr - 1) do
             match arr.(j) with
             | ca, (Instr.Call_r _ | Instr.Jmp_r _) ->
               commit := Some ca;
               raise Exit
             | _, Instr.Bary_load _ -> raise Exit
             | _ -> ()
           done
         with Exit -> ());
        Hashtbl.replace metas slot
          { sm_slot = slot; sm_commit_pc = !commit; sm_pop_pc = pop_pc };
        Option.iter (fun ca -> Hashtbl.replace commits ca slot) !commit
      | _ -> ())
    arr;
  (metas, commits)

(* ---------- the abstract walker ---------- *)

type value = Const of int | Unknown

let dangerous n = n = Abi.sys_sbrk || n = Abi.sys_dlopen || n = Abi.sys_dlsym

type walk = { w_goals : (int * goal) list; w_sites : IS.t }

let walk_steps = 4000
let walk_revisits = 4

(* [walk arr index addr] explores every path from [addr].  Register
   state starts fully unknown (the attacker diverts mid-execution);
   [masked] holds the destination register of an immediately preceding
   sandbox-mask [And], which blesses the next store through it.  A
   direct [Call] is not inlined: the callee returns through its own
   instrumented epilogue, so execution resumes after the call with all
   caller-visible registers (and the abstract stack) unknown —
   conservative toward reporting, never toward missing a benign
   resolution that matters (no generated or libc code calls between a
   syscall number's push and its pop). *)
let walk arr index addr =
  let goals = ref [] and sites = ref IS.empty in
  let steps = ref 0 in
  let visits = Hashtbl.create 128 in
  let rec go i regs stack masked =
    if !steps < walk_steps && i < Array.length arr then begin
      incr steps;
      let seen = Option.value (Hashtbl.find_opt visits i) ~default:0 in
      if seen < walk_revisits then begin
        Hashtbl.replace visits i (seen + 1);
        let pc, ins = arr.(i) in
        let next () = go (i + 1) regs stack None in
        match ins with
        | Instr.Nop -> next ()
        | Instr.Halt -> ()
        | Instr.Mov_ri (r, n) ->
          regs.(r) <- Const n;
          next ()
        | Instr.Mov_rr (d, s) ->
          regs.(d) <- regs.(s);
          next ()
        | Instr.Binop (_, d, _) ->
          regs.(d) <- Unknown;
          next ()
        | Instr.Binop_i (Instr.And, d, m) when m = Abi.sandbox_mask ->
          regs.(d) <- Unknown;
          go (i + 1) regs stack (Some d)
        | Instr.Binop_i (op, d, n) ->
          (regs.(d) <-
             (match (regs.(d), op) with
             | Const v, Instr.Add -> Const (v + n)
             | Const v, Instr.Sub -> Const (v - n)
             | _ -> Unknown));
          next ()
        | Instr.Load (d, _, _) | Instr.Tary_load (d, _) ->
          regs.(d) <- Unknown;
          next ()
        | Instr.Store (rb, _, _) ->
          if rb = Instr.rsp || rb = Instr.rfp || masked = Some rb then next ()
          else goals := (pc, Gwrite pc) :: !goals
        | Instr.Push r -> go (i + 1) regs (regs.(r) :: stack) None
        | Instr.Pop r -> begin
          match stack with
          | v :: rest ->
            regs.(r) <- v;
            go (i + 1) regs rest None
          | [] ->
            regs.(r) <- Unknown;
            next ()
        end
        | Instr.Cmp_rr _ | Instr.Cmp_ri _ | Instr.Cmp_lo _ | Instr.Test_ri _
          ->
          next ()
        | Instr.Jmp a -> begin
          match Hashtbl.find_opt index a with
          | Some j -> go j regs stack None
          | None -> ()
        end
        | Instr.Jcc (_, a) ->
          (match Hashtbl.find_opt index a with
          | Some j -> go j (Array.copy regs) stack None
          | None -> ());
          next ()
        | Instr.Call _ ->
          for r = 0 to Instr.num_regs - 3 do
            regs.(r) <- Unknown
          done;
          go (i + 1) regs [] None
        | Instr.Call_r _ | Instr.Jmp_r _ | Instr.Ret -> ()
        | Instr.Syscall -> begin
          match regs.(0) with
          | Const n when n = Abi.sys_exit -> ()
          | Const n when dangerous n -> goals := (pc, Gsyscall (Some n)) :: !goals
          | Const _ ->
            regs.(0) <- Unknown;
            next ()
          | Unknown -> goals := (pc, Gsyscall None) :: !goals
        end
        | Instr.Bary_load (_, slot) -> sites := IS.add slot !sites
      end
    end
  in
  (match Hashtbl.find_opt index addr with
  | None -> ()
  | Some i -> go i (Array.make Instr.num_regs Unknown) [] None);
  { w_goals = List.rev !goals; w_sites = !sites }

(* ---------- the benign reference run ---------- *)

type built = {
  b_proc : Process.t;
  b_tables : Tables.t;
  b_exit : Machine.exit_reason;
  b_reach : Reach.t;
  b_metas : (int, sitemeta) Hashtbl.t;
  b_observed : (int, IS.t) Hashtbl.t;
  b_executed : IS.t;
  b_arr : (int * Instr.t) array;
  b_index : (int, int) Hashtbl.t;
}

let transfer_cap = 200_000

let record_transfers m =
  let transfers = ref [] and n = ref 0 in
  Machine.set_transfer_hook m
    (Some
       (fun src dst ->
         if !n < transfer_cap then begin
           incr n;
           transfers := (src, dst) :: !transfers
         end));
  transfers

let prepare ~fuel build =
  let proc = build () in
  match Process.tables proc with
  | None -> Error "redteam requires an instrumented process"
  | Some tables ->
    let m = Process.machine proc in
    let transfers = record_transfers m in
    let exit = Process.run ~fuel proc in
    Machine.set_transfer_hook m None;
    (* decode and map *after* the run, so dlopened modules are in the
       image, the tables, and the CFG view *)
    let arr, index = decode m in
    let metas, commits = sitemap arr in
    let reach =
      match Reach.compute proc with
      | Some r -> r
      | None -> assert false
    in
    let observed = Hashtbl.create 32 in
    List.iter
      (fun (src, dst) ->
        match Hashtbl.find_opt commits src with
        | None -> ()
        | Some slot ->
          let cur =
            Option.value (Hashtbl.find_opt observed slot) ~default:IS.empty
          in
          Hashtbl.replace observed slot (IS.add dst cur))
      !transfers;
    let executed =
      Hashtbl.fold (fun slot _ acc -> IS.add slot acc) observed IS.empty
    in
    Ok
      {
        b_proc = proc;
        b_tables = tables;
        b_exit = exit;
        b_reach = reach;
        b_metas = metas;
        b_observed = observed;
        b_executed = executed;
        b_arr = arr;
        b_index = index;
      }

(* ---------- plan derivation and confirmation ---------- *)

(* The write primitive behind each corruptible site kind.  An
   icall/itail operand may flow from anywhere; the one memory cell the
   generated programs materialize for it is the [gops] global
   function-pointer array, so that is what the plan corrupts (both
   entries, before the first instruction).  A return site's primitive
   is exact: overwrite the stack top at the site's [Pop].  A PLT site's
   is its GOT slot. *)
let derive_plan b slot target =
  match Reach.site b.b_reach slot with
  | None -> None
  | Some s -> begin
    match s.Reach.s_kind with
    | Reach.Kreturn -> begin
      match Hashtbl.find_opt b.b_metas slot with
      | Some { sm_pop_pc = Some pc; _ } ->
        Some (Corrupt_return { pop_pc = pc; hit = 1; value = target })
      | _ -> None
    end
    | Reach.Kicall | Reach.Kitail -> begin
      match Process.lookup_data b.b_proc "gops" with
      | Some _ -> Some (Corrupt_global { sym = "gops"; words = 2; value = target })
      | None -> None
    end
    | Reach.Kplt -> begin
      let sym =
        let o = s.Reach.s_owner in
        if String.length o > 4 && String.sub o 0 4 = "plt:" then
          String.sub o 4 (String.length o - 4)
        else o
      in
      let got = Instrument.Rewriter.got_symbol sym in
      match Process.lookup_data b.b_proc got with
      | Some _ -> Some (Corrupt_global { sym = got; words = 1; value = target })
      | None -> None
    end
    | Reach.Klongjmp | Reach.Kjumptable -> None
  end

let install_attacker proc plan =
  let m = Process.machine proc in
  match plan with
  | Corrupt_global { sym; words; value } ->
    let fired = ref false in
    Machine.set_attacker m (fun m ->
        if not !fired then
          match Process.lookup_data proc sym with
          | None -> ()
          | Some addr ->
            fired := true;
            for k = 0 to words - 1 do
              Machine.write_data m (addr + k) value
            done)
  | Corrupt_return { pop_pc; hit; value } ->
    let seen = ref 0 in
    Machine.set_attacker m (fun m ->
        if Machine.pc m = pop_pc then begin
          incr seen;
          if !seen = hit then
            Machine.write_data m (Machine.reg m Instr.rsp) value
        end)

(* Replay the plan on a fresh build and watch for a diverted transfer to
   the first hop's target actually committing.  Layout is deterministic
   across builds, so the benign run's site addresses remain valid.
   Exact-slot commit is the strong form; a global-cell plan (gops, GOT)
   may equally divert a *different* site of the same class first — any
   commit to the target along an edge the benign run never took is
   still the synthesized in-policy diversion, so it also confirms. *)
let confirm ~fuel ~observed build plan ~slot ~target =
  let proc = build () in
  let m = Process.machine proc in
  install_attacker proc plan;
  let transfers = record_transfers m in
  let exit = Process.run ~fuel proc in
  Machine.set_transfer_hook m None;
  let arr, _ = decode m in
  let _, commits = sitemap arr in
  let hit =
    List.exists
      (fun (src, dst) ->
        dst = target
        &&
        match Hashtbl.find_opt commits src with
        | Some s -> s = slot || not (IS.mem dst (observed s))
        | None -> false)
      !transfers
  in
  Process.teardown proc;
  (hit, Fmt.str "%a" Machine.pp_exit_reason exit)

(* ---------- the chain search ---------- *)

let run ?(max_depth = 4) ?(max_targets = 48) ?(fuel = 10_000_000)
    ?(confirm_chains = true) ~build () =
  match prepare ~fuel build with
  | Error e -> Error e
  | Ok b ->
    let edges_checked = ref 0 and walks = ref 0 in
    let walk_cache = Hashtbl.create 64 in
    let walk_to addr =
      match Hashtbl.find_opt walk_cache addr with
      | Some w -> w
      | None ->
        incr walks;
        let w = walk b.b_arr b.b_index addr in
        Hashtbl.replace walk_cache addr w;
        w
    in
    let passes slot target =
      incr edges_checked;
      Tx.check ~max_retries:64 b.b_tables ~bary_index:slot ~target = Tx.Pass
    in
    let observed slot =
      Option.value (Hashtbl.find_opt b.b_observed slot) ~default:IS.empty
    in
    let cap l = List.filteri (fun i _ -> i < max_targets) l in
    let corruptible_site slot =
      match Reach.site b.b_reach slot with
      | Some s when Reach.corruptible s.Reach.s_kind -> Some s
      | _ -> None
    in
    (* One BFS per corruptible executed start site; the first hop must
       be diverted, later hops may ride edges the program also takes
       benignly (the attacker has already seized control). *)
    let search_from s0 =
      let queue = Queue.create () in
      let visited = ref (IS.singleton s0.Reach.s_slot) in
      let found = ref None in
      let expand slot ~require_divert hops_rev depth =
        match corruptible_site slot with
        | None -> ()
        | Some s ->
          let obs = observed slot in
          let candidates =
            Array.to_list s.Reach.s_admitted
            |> List.filter (fun t -> not (require_divert && IS.mem t obs))
            |> cap
          in
          List.iter
            (fun t ->
              if !found = None && passes slot t then begin
                let diverted = not (IS.mem t obs) in
                let hop = { h_slot = slot; h_target = t; h_diverted = diverted }
                in
                if (not require_divert) || diverted then begin
                  let w = walk_to t in
                  match w.w_goals with
                  | (pc, g) :: _ ->
                    found := Some (List.rev (hop :: hops_rev), g, pc)
                  | [] ->
                    if depth < max_depth then
                      IS.iter
                        (fun s1 ->
                          if not (IS.mem s1 !visited) then begin
                            visited := IS.add s1 !visited;
                            Queue.add (s1, hop :: hops_rev, depth + 1) queue
                          end)
                        w.w_sites
                end
              end)
            candidates
      in
      expand s0.Reach.s_slot ~require_divert:true [] 1;
      while !found = None && not (Queue.is_empty queue) do
        let slot, hops_rev, depth = Queue.pop queue in
        expand slot ~require_divert:false hops_rev depth
      done;
      !found
    in
    let starts =
      List.filter
        (fun s ->
          Reach.corruptible s.Reach.s_kind
          && IS.mem s.Reach.s_slot b.b_executed)
        b.b_reach.Reach.r_sites
    in
    let chains =
      List.filter_map
        (fun s0 ->
          match search_from s0 with
          | None -> None
          | Some (hops, g, pc) ->
            let first = List.hd hops in
            let plan = derive_plan b first.h_slot first.h_target in
            let confirmed, exit =
              match plan with
              | Some p when confirm_chains ->
                confirm ~fuel ~observed build p ~slot:first.h_slot
                  ~target:first.h_target
              | _ -> (false, "")
            in
            Some
              {
                c_start = s0.Reach.s_slot;
                c_hops = hops;
                c_goal = g;
                c_goal_pc = pc;
                c_plan = plan;
                c_confirmed = confirmed;
                c_exit = exit;
              })
        starts
    in
    let r =
      {
        sr_reach = b.b_reach;
        sr_exit = b.b_exit;
        sr_chains = chains;
        sr_sites_scanned = List.length starts;
        sr_edges_checked = !edges_checked;
        sr_walks = !walks;
      }
    in
    Process.teardown b.b_proc;
    Ok r

let publish r =
  let add n v = Telemetry.Metrics.add (Telemetry.Metrics.counter n) v in
  add "mcfi_redteam_sites_scanned" r.sr_sites_scanned;
  add "mcfi_redteam_edges_checked" r.sr_edges_checked;
  add "mcfi_redteam_walks" r.sr_walks;
  add "mcfi_redteam_chains_found" (List.length r.sr_chains);
  add "mcfi_redteam_chains_confirmed"
    (List.length (List.filter (fun c -> c.c_confirmed) r.sr_chains))

(* ---------- the sabotage exemplar ---------- *)

(* A decoy that is in-policy by construction: address-taken with the
   same type as the [gops] workers, so type-matching CFG generation
   puts it in their equivalence class — yet never called benignly, and
   its body reaches the dlopen syscall (the code-loading primitive; the
   handler rejects the garbage name, then the decoy exits with an
   observable 70..77 code).  Appended as a static module so it is in
   the tables from startup; the rendered sources stay self-contained
   for corpus replay. *)
let decoy_src =
  "int redteam_decoy(int x) {\n\
  \  __syscall(4, x);\n\
  \  __syscall(0, 70 + (x & 7));\n\
  \  return x;\n\
   }\n\
   int (*redteam_ops[2])(int) = { redteam_decoy, redteam_decoy };\n"

let sabotage sp = { sp with Spec.sp_global_fp = true }

let render_sabotaged sp =
  let r = Spec.render (sabotage sp) in
  { r with Spec.r_static = r.Spec.r_static @ [ ("redteam0", decoy_src) ] }

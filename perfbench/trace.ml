(* Spans the benchmark records around its calls into the system's
   layers.  A recorder belongs to one domain; the storm updater keeps its
   own and the two are merged after it is joined.  Spans stay in memory
   until the benchmark ends. *)

type span = {
  idx : int;
  parent : int;  (** [idx] of the enclosing span, or -1 for a root *)
  id : int;  (** the program or module the span works on *)
  name : string;  (** "<layer>.<call>"; "bench.*" spans are glue *)
  start : float;
  stop : float;
}

type t = { mutable spans : span list; mutable stack : int list; mutable next : int }

let create () = { spans = []; stack = []; next = 0 }
let now = Unix.gettimeofday

let push t ~id ~parent name ~start ~stop =
  let idx = t.next in
  t.next <- idx + 1;
  t.spans <- { idx; parent; id; name; start; stop } :: t.spans;
  idx

(* [span tr ~id name f] runs [f], as a child of the innermost open span
   when [tr] is a recorder.  Returns the result and the span's index. *)
let span tr ~id name f =
  match tr with
  | None -> (f (), -1)
  | Some t ->
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let idx = t.next in
    t.next <- idx + 1;
    t.stack <- idx :: t.stack;
    let start = now () in
    let close () =
      t.stack <- List.tl t.stack;
      t.spans <- { idx; parent; id; name; start; stop = now () } :: t.spans
    in
    (match f () with
    | v ->
      close ();
      (v, idx)
    | exception e ->
      close ();
      raise e)

let run tr ~id name f = fst (span tr ~id name f)

(* A span for work the system does inside a call and times itself (the
   CFG generator inside [Process.load]): [dur] seconds, placed at the end
   of [parent]. *)
let add_child t ~parent ~id name ~dur =
  match List.find_opt (fun s -> s.idx = parent) t.spans with
  | None -> invalid_arg "Trace.add_child: unknown parent"
  | Some p ->
    ignore (push t ~id ~parent name ~start:(p.stop -. dur) ~stop:p.stop)

(* Adopt the spans of another domain's recorder, renumbered after ours. *)
let merge t other =
  let shift i = if i < 0 then i else i + t.next in
  t.spans <-
    List.map (fun s -> { s with idx = shift s.idx; parent = shift s.parent }) other.spans
    @ t.spans;
  t.next <- t.next + other.next
let spans t = t.spans
let dur s = s.stop -. s.start

(* Self time of every span (duration minus the time its children cover),
   after checking that each span's children lie inside it and do not
   overlap.  Returns [Error] naming the first span that breaks this. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let eps = 1e-6 in
  let rec check = function
    | [] -> Ok ()
    | s :: rest ->
      let kids =
        List.sort (fun a b -> compare a.start b.start) (Hashtbl.find_all children s.idx)
      in
      let rec disjoint last = function
        | [] -> true
        | k :: ks -> k.start >= last -. eps && k.stop <= s.stop +. eps && disjoint k.stop ks
      in
      if disjoint s.start kids then check rest
      else Error (Printf.sprintf "span %s (id %d) holds overlapping or escaping children" s.name s.id)
  in
  match check spans with
  | Error _ as e -> e
  | Ok () ->
    Ok
      (List.map
         (fun s ->
           let covered =
             List.fold_left (fun a k -> a +. dur k) 0.0 (Hashtbl.find_all children s.idx)
           in
           (s, dur s -. covered))
         spans)

(* The root span of [s]. *)
let root_of spans =
  let by_idx = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_idx s.idx s) spans;
  let rec up s = if s.parent < 0 then s else up (Hashtbl.find by_idx s.parent) in
  up

type t = {
  parent : int array;
  rank : int array;
  mutable sets : int;
}

let create n =
  { parent = Array.init n (fun i -> i); rank = Array.make n 0; sets = n }

let size t = Array.length t.parent

let check t x =
  if x < 0 || x >= size t then
    invalid_arg (Printf.sprintf "Union_find: key %d out of range [0,%d)" x (size t))

let rec find t x =
  check t x;
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let root = find t p in
    t.parent.(x) <- root;
    root
  end

let union t x y =
  let rx = find t x and ry = find t y in
  if rx = ry then rx
  else begin
    t.sets <- t.sets - 1;
    if t.rank.(rx) < t.rank.(ry) then begin
      t.parent.(rx) <- ry; ry
    end else if t.rank.(rx) > t.rank.(ry) then begin
      t.parent.(ry) <- rx; rx
    end else begin
      t.parent.(ry) <- rx;
      t.rank.(rx) <- t.rank.(rx) + 1;
      rx
    end
  end

let same t x y = find t x = find t y

let count t = t.sets

let groups t =
  let n = size t in
  let tbl = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    let r = find t i in
    let members = try Hashtbl.find tbl r with Not_found -> [] in
    Hashtbl.replace tbl r (i :: members)
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) tbl []
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

(* ---- growable variant (the incremental CFG generator's merge state:
   keys arrive one module at a time, and a merge that has to be taken
   back is undone from a trail instead of restoring a copy) ---- *)

module Dynamic = struct
  type t = {
    mutable parent : int array;
    mutable rank : int array;
    (* [next] threads every set into a cycle, so a set's keys can be
       listed without scanning the structure; [union] splices two
       cycles by swapping their roots' successors *)
    mutable next : int array;
    mutable len : int;
    mutable sets : int;
    (* undo log of array writes, recorded while a mark is open: entry
       [2k] is [3 * key + field] (0 parent, 1 rank, 2 next), [2k+1] the
       overwritten value *)
    mutable trail : int array;
    mutable trail_len : int;
    mutable marks : int;
  }

  type mark = { m_trail : int; m_len : int; m_sets : int }

  let create () =
    {
      parent = Array.make 16 0;
      rank = Array.make 16 0;
      next = Array.make 16 0;
      len = 0;
      sets = 0;
      trail = Array.make 64 0;
      trail_len = 0;
      marks = 0;
    }

  let size t = t.len
  let count t = t.sets

  let record t code old =
    if t.trail_len + 2 > Array.length t.trail then begin
      let a = Array.make (2 * Array.length t.trail) 0 in
      Array.blit t.trail 0 a 0 t.trail_len;
      t.trail <- a
    end;
    t.trail.(t.trail_len) <- code;
    t.trail.(t.trail_len + 1) <- old;
    t.trail_len <- t.trail_len + 2

  let write t field a x v =
    if t.marks > 0 then record t ((3 * x) + field) a.(x);
    a.(x) <- v

  let add t =
    if t.len = Array.length t.parent then begin
      let grow a =
        let a' = Array.make (2 * Array.length a) 0 in
        Array.blit a 0 a' 0 t.len;
        a'
      in
      t.parent <- grow t.parent;
      t.rank <- grow t.rank;
      t.next <- grow t.next
    end;
    (* keys past a mark's [len] are dropped wholesale by [undo], so a
       fresh key's initialization needs no trail entries *)
    let k = t.len in
    t.parent.(k) <- k;
    t.rank.(k) <- 0;
    t.next.(k) <- k;
    t.len <- t.len + 1;
    t.sets <- t.sets + 1;
    k

  let check t x =
    if x < 0 || x >= t.len then
      invalid_arg
        (Printf.sprintf "Union_find.Dynamic: key %d out of range [0,%d)" x t.len)

  let rec find t x =
    check t x;
    let p = t.parent.(x) in
    if p = x then x
    else begin
      let root = find t p in
      if root <> p then write t 0 t.parent x root;
      root
    end

  let root t x =
    check t x;
    let rec go x =
      let p = t.parent.(x) in
      if p = x then x else go p
    in
    go x

  let union t x y =
    let rx = find t x and ry = find t y in
    if rx = ry then rx
    else begin
      t.sets <- t.sets - 1;
      let nx = t.next.(rx) in
      write t 2 t.next rx t.next.(ry);
      write t 2 t.next ry nx;
      if t.rank.(rx) < t.rank.(ry) then begin
        write t 0 t.parent rx ry;
        ry
      end
      else if t.rank.(rx) > t.rank.(ry) then begin
        write t 0 t.parent ry rx;
        rx
      end
      else begin
        write t 0 t.parent ry rx;
        write t 1 t.rank rx (t.rank.(rx) + 1);
        rx
      end
    end

  let same t x y = find t x = find t y

  let iter_set t x f =
    check t x;
    let rec go y =
      f y;
      let z = t.next.(y) in
      if z <> x then go z
    in
    go x

  let mark t =
    t.marks <- t.marks + 1;
    { m_trail = t.trail_len; m_len = t.len; m_sets = t.sets }

  let close t =
    t.marks <- t.marks - 1;
    if t.marks = 0 then t.trail_len <- 0

  let release t m =
    if t.marks = 0 || m.m_trail > t.trail_len then
      invalid_arg "Union_find.Dynamic.release: mark is not open";
    close t

  let undo t m =
    if t.marks = 0 || m.m_trail > t.trail_len then
      invalid_arg "Union_find.Dynamic.undo: mark is not open";
    while t.trail_len > m.m_trail do
      t.trail_len <- t.trail_len - 2;
      let code = t.trail.(t.trail_len) and old = t.trail.(t.trail_len + 1) in
      let a =
        match code mod 3 with 0 -> t.parent | 1 -> t.rank | _ -> t.next
      in
      a.(code / 3) <- old
    done;
    t.len <- m.m_len;
    t.sets <- m.m_sets;
    close t
end

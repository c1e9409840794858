(* Tests for the util library: union-find and the deterministic PRNG. *)

module Uf = Mcfi_util.Union_find
module Prng = Mcfi_util.Prng

let test_uf_singletons () =
  let t = Uf.create 5 in
  Alcotest.(check int) "count" 5 (Uf.count t);
  Alcotest.(check bool) "not same" false (Uf.same t 0 1)

let test_uf_union () =
  let t = Uf.create 6 in
  ignore (Uf.union t 0 1);
  ignore (Uf.union t 2 3);
  ignore (Uf.union t 1 2);
  Alcotest.(check bool) "0~3" true (Uf.same t 0 3);
  Alcotest.(check bool) "0!~4" false (Uf.same t 0 4);
  Alcotest.(check int) "count" 3 (Uf.count t)

let test_uf_groups () =
  let t = Uf.create 4 in
  ignore (Uf.union t 0 2);
  let gs = Uf.groups t in
  Alcotest.(check int) "three groups" 3 (List.length gs);
  Alcotest.(check bool) "group [0;2]" true (List.mem [ 0; 2 ] gs)

let test_uf_out_of_range () =
  let t = Uf.create 3 in
  Alcotest.check_raises "oob"
    (Invalid_argument "Union_find: key 3 out of range [0,3)") (fun () ->
      ignore (Uf.find t 3))

let prop_uf_union_same =
  QCheck.Test.make ~name:"union makes same" ~count:300
    QCheck.(pair (int_bound 49) (int_bound 49))
    (fun (a, b) ->
      let t = Uf.create 50 in
      ignore (Uf.union t a b);
      Uf.same t a b)

let prop_uf_count_invariant =
  (* after any sequence of unions, count = number of distinct groups *)
  QCheck.Test.make ~name:"count matches groups" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 30) (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let t = Uf.create 20 in
      List.iter (fun (a, b) -> ignore (Uf.union t a b)) pairs;
      Uf.count t = List.length (Uf.groups t))

(* ---- the growable variant backing the incremental CFG merge ---- *)

let test_ufd_add_and_union () =
  let t = Uf.Dynamic.create () in
  Alcotest.(check int) "empty" 0 (Uf.Dynamic.size t);
  let a = Uf.Dynamic.add t in
  let b = Uf.Dynamic.add t in
  let c = Uf.Dynamic.add t in
  Alcotest.(check (list int)) "keys are dense" [ 0; 1; 2 ] [ a; b; c ];
  Alcotest.(check int) "three singletons" 3 (Uf.Dynamic.count t);
  ignore (Uf.Dynamic.union t a b);
  Alcotest.(check bool) "a~b" true (Uf.Dynamic.same t a b);
  Alcotest.(check bool) "a!~c" false (Uf.Dynamic.same t a c);
  Alcotest.(check int) "two sets" 2 (Uf.Dynamic.count t);
  (* keys added after a union start as singletons *)
  let d = Uf.Dynamic.add t in
  Alcotest.(check bool) "d alone" false (Uf.Dynamic.same t a d);
  Alcotest.(check int) "three sets" 3 (Uf.Dynamic.count t)

(* Undo restores the structure exactly: every key's representative, the
   set count and the size, after unions whose finds compressed paths
   that existed before the mark. *)
let test_ufd_undo_restores () =
  let t = Uf.Dynamic.create () in
  for _ = 1 to 12 do
    ignore (Uf.Dynamic.add t)
  done;
  (* two deep trees, so later finds compress pre-existing paths *)
  List.iter
    (fun (a, b) -> ignore (Uf.Dynamic.union t a b))
    [ (0, 1); (2, 3); (0, 2); (4, 5); (6, 7); (4, 6); (0, 4); (8, 9) ];
  let reps () = List.init (Uf.Dynamic.size t) (Uf.Dynamic.find t) in
  let before = reps () and count = Uf.Dynamic.count t in
  let m = Uf.Dynamic.mark t in
  let k = Uf.Dynamic.add t in
  List.iter
    (fun (a, b) -> ignore (Uf.Dynamic.union t a b))
    [ (7, 9); (10, k); (3, 11); (5, 10) ];
  ignore (reps ());
  (* a nested mark released inside the outer one is undone with it *)
  let inner = Uf.Dynamic.mark t in
  ignore (Uf.Dynamic.union t 1 k);
  Uf.Dynamic.release t inner;
  Alcotest.(check int) "one set left" 1 (Uf.Dynamic.count t);
  Uf.Dynamic.undo t m;
  Alcotest.(check int) "size" 12 (Uf.Dynamic.size t);
  Alcotest.(check int) "count" count (Uf.Dynamic.count t);
  Alcotest.(check (list int)) "representatives" before (reps ());
  (* set cycles are restored too *)
  let members x =
    let acc = ref [] in
    Uf.Dynamic.iter_set t x (fun y -> acc := y :: !acc);
    List.sort compare !acc
  in
  Alcotest.(check (list int)) "set of 0" [ 0; 1; 2; 3; 4; 5; 6; 7 ] (members 0);
  Alcotest.(check (list int)) "set of 9" [ 8; 9 ] (members 9);
  Alcotest.(check (list int)) "set of 11" [ 11 ] (members 11);
  Alcotest.check_raises "no mark open"
    (Invalid_argument "Union_find.Dynamic.undo: mark is not open") (fun () ->
      Uf.Dynamic.undo t m)

let test_ufd_unallocated_raises () =
  let t = Uf.Dynamic.create () in
  ignore (Uf.Dynamic.add t);
  Alcotest.(check bool)
    "find on unallocated raises" true
    (match Uf.Dynamic.find t 1 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let prop_ufd_matches_static =
  (* the dynamic structure grown to n keys behaves like [create n] under
     the same union sequence *)
  QCheck.Test.make ~name:"Dynamic ≡ static under same unions" ~count:200
    QCheck.(
      list_of_size (QCheck.Gen.int_bound 30) (pair (int_bound 14) (int_bound 14)))
    (fun pairs ->
      let n = 15 in
      let s = Uf.create n in
      let d = Uf.Dynamic.create () in
      for _ = 1 to n do
        ignore (Uf.Dynamic.add d)
      done;
      List.iter
        (fun (a, b) ->
          ignore (Uf.union s a b);
          ignore (Uf.Dynamic.union d a b))
        pairs;
      Uf.count s = Uf.Dynamic.count d
      && List.for_all
           (fun (a, b) -> Uf.same s a b = Uf.Dynamic.same d a b)
           (List.concat_map
              (fun a -> List.init n (fun b -> (a, b)))
              (List.init n Fun.id)))

let prop_ufd_undo =
  (* any unions after a mark, undone, leave every representative, the
     count and every set's members as they were *)
  QCheck.Test.make ~name:"undo restores sets" ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 20) (pair (int_bound 14) (int_bound 14)))
        (list_of_size (QCheck.Gen.int_bound 20) (pair (int_bound 19) (int_bound 19))))
    (fun (pre, post) ->
      let d = Uf.Dynamic.create () in
      for _ = 1 to 15 do
        ignore (Uf.Dynamic.add d)
      done;
      List.iter (fun (a, b) -> ignore (Uf.Dynamic.union d a b)) pre;
      let sets () =
        List.init 15 (fun x ->
            let acc = ref [] in
            Uf.Dynamic.iter_set d x (fun y -> acc := y :: !acc);
            (Uf.Dynamic.find d x, List.sort compare !acc))
      in
      let before = sets () and count = Uf.Dynamic.count d in
      let m = Uf.Dynamic.mark d in
      for _ = 1 to 5 do
        ignore (Uf.Dynamic.add d)
      done;
      List.iter (fun (a, b) -> ignore (Uf.Dynamic.union d a b)) post;
      Uf.Dynamic.undo d m;
      Uf.Dynamic.size d = 15 && Uf.Dynamic.count d = count && sets () = before)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  let xs = List.init 20 (fun _ -> Prng.next a) in
  let ys = List.init 20 (fun _ -> Prng.next b) in
  Alcotest.(check bool) "same stream" true (xs = ys)

let test_prng_split_independent () =
  let a = Prng.create 7L in
  let b = Prng.split a in
  Alcotest.(check bool) "diverged" true (Prng.next a <> Prng.next b)

let prop_prng_int_range =
  QCheck.Test.make ~name:"Prng.int in range" ~count:500
    QCheck.(pair int (int_range 1 1000))
    (fun (seed, bound) ->
      let t = Prng.create (Int64.of_int seed) in
      let v = Prng.int t bound in
      0 <= v && v < bound)

let prop_prng_float_range =
  QCheck.Test.make ~name:"Prng.float in [0,1)" ~count:500 QCheck.int
    (fun seed ->
      let t = Prng.create (Int64.of_int seed) in
      let v = Prng.float t in
      0.0 <= v && v < 1.0)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "union_find",
        [
          Alcotest.test_case "singletons" `Quick test_uf_singletons;
          Alcotest.test_case "union" `Quick test_uf_union;
          Alcotest.test_case "groups" `Quick test_uf_groups;
          Alcotest.test_case "out of range" `Quick test_uf_out_of_range;
        ] );
      ("union_find props", qc [ prop_uf_union_same; prop_uf_count_invariant ]);
      ( "union_find dynamic",
        [
          Alcotest.test_case "add & union" `Quick test_ufd_add_and_union;
          Alcotest.test_case "undo restores state" `Quick
            test_ufd_undo_restores;
          Alcotest.test_case "unallocated raises" `Quick
            test_ufd_unallocated_raises;
        ] );
      ("union_find dynamic props", qc [ prop_ufd_matches_static; prop_ufd_undo ]);
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
        ] );
      ("prng props", qc [ prop_prng_int_range; prop_prng_float_range ]);
    ]

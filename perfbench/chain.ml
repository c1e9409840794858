(* The dlopen workload's input: a main program plus a chain of generated
   MiniC modules, all derived from the benchmark seed.

   Every module defines [fns] small functions drawn from three shared
   function-pointer types (one, two and three int arguments) and one
   [m<k>_go] entry function that calls them through per-type pointer
   tables.
   Each type has at least two functions in every module, so every load
   grows the same three classes: the incremental CFG merge, the delta
   install and the verifier all see a chain whose tables keep growing.
   The seed picks the remaining arities and the constants; module and
   function counts are fixed, so load cost depends on the seed only
   through the class mix. *)

let modules = 64
let fns = 24

(* loop iterations of each [m<k>_go] call: about 21M retired
   instructions for the whole chain on the instrumented build, long
   enough that one run is not a single burst of host noise *)
let iters = 6000

type t = {
  main : string;  (** calls every module's entry function through the PLT *)
  chain : (string * string) list;  (** (module name, source), load order *)
}

let params = function
  | 1 -> "int"
  | 2 -> "int, int"
  | _ -> "int, int, int"

let module_source rng k =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  let arity =
    Array.init fns (fun i -> if i < 6 then 1 + (i mod 3) else 1 + Random.State.int rng 3)
  in
  let const () = 1 + Random.State.int rng 9 in
  Array.iteri
    (fun i a ->
      match a with
      | 1 -> p "int m%d_f%d(int x) { return x + %d; }\n" k i (const ())
      | 2 -> p "int m%d_f%d(int x, int y) { return x * %d + y; }\n" k i (const ())
      | _ ->
        p "int m%d_f%d(int x, int y, int z) { return (x + y * %d + z) %% 1000003; }\n"
          k i (const ()))
    arity;
  let of_arity a =
    List.filter (fun i -> arity.(i) = a) (List.init fns Fun.id)
  in
  p "int m%d_go(int n) {\n" k;
  List.iter
    (fun a -> p "  int (*t%d[%d])(%s);\n" a (List.length (of_arity a)) (params a))
    [ 1; 2; 3 ];
  p "  int s;\n  int i;\n";
  List.iter
    (fun a ->
      List.iteri (fun j i -> p "  t%d[%d] = m%d_f%d;\n" a j k i) (of_arity a))
    [ 1; 2; 3 ];
  p "  s = %d;\n" k;
  p "  for (i = 0; i < n; i = i + 1) {\n";
  p "    s = s + t1[i %% %d](i);\n" (List.length (of_arity 1));
  p "    s = s + t2[i %% %d](s, i);\n" (List.length (of_arity 2));
  p "    s = (s + t3[i %% %d](s, i, %d)) %% 1000003;\n" (List.length (of_arity 3)) k;
  p "  }\n  return s;\n}\n";
  Buffer.contents b

let main_source () =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  for k = 0 to modules - 1 do
    p "extern int m%d_go(int n);\n" k
  done;
  p "int main() {\n  int s;\n  s = 0;\n";
  for k = 0 to modules - 1 do
    p "  s = (s + m%d_go(%d)) %% 1000003;\n" k iters
  done;
  p "  print_int(s);\n  return 0;\n}\n";
  Buffer.contents b

let generate ~seed =
  let rng = Random.State.make [| 0x6d636669; seed |] in
  {
    main = main_source ();
    chain =
      List.init modules (fun k -> (Printf.sprintf "m%d" k, module_source rng k));
  }

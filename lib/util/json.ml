(* The JSON codec shared by every emitter and reader in the tree: see
   json.mli. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let num i = Num (float_of_int i)
let str s = Str s

(* ---- emitter ---- *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v ->
    if Float.is_finite v then
      if Float.is_integer v && Float.abs v < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.0f" v)
      else Buffer.add_string b (Printf.sprintf "%.6g" v)
    else Buffer.add_string b "null" (* JSON has no inf/nan *)
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        emit b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_char b '"';
        escape b k;
        Buffer.add_string b "\": ";
        emit b v)
      kvs;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  emit b j;
  Buffer.contents b

(* ---- parser (recursive descent over the string) ---- *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error fmt =
    Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "at %d: %s" !pos m))) fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else error "expected '%c'" c
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else error "bad literal"
  in
  let number () =
    let start = !pos in
    let numchar c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && numchar s.[!pos] do incr pos done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Num v
    | None -> error "bad number"
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (if !pos >= n then error "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'; incr pos
             | '\\' -> Buffer.add_char b '\\'; incr pos
             | '/' -> Buffer.add_char b '/'; incr pos
             | 'b' -> Buffer.add_char b '\b'; incr pos
             | 'f' -> Buffer.add_char b '\012'; incr pos
             | 'n' -> Buffer.add_char b '\n'; incr pos
             | 'r' -> Buffer.add_char b '\r'; incr pos
             | 't' -> Buffer.add_char b '\t'; incr pos
             | 'u' ->
               if !pos + 4 >= n then error "truncated \\u";
               let hex = String.sub s (!pos + 1) 4 in
               (match int_of_string_opt ("0x" ^ hex) with
               | Some cp when cp < 0x80 -> Buffer.add_char b (Char.chr cp)
               | Some _ -> Buffer.add_char b '?'
               | None -> error "bad \\u escape");
               pos := !pos + 5
             | c -> error "bad escape '\\%c'" c);
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin incr pos; Obj [] end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; fields ((k, v) :: acc)
          | Some '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> error "expected ',' or '}'"
        in
        fields []
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin incr pos; Arr [] end
      else begin
        let rec elems acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; elems (v :: acc)
          | Some ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> error "expected ',' or ']'"
        in
        elems []
      end
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

(* ---- accessors ---- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let path ks j =
  List.fold_left (fun j k -> Option.bind j (member k)) (Some j) ks

let to_float = function Num v when Float.is_finite v -> Some v | _ -> None

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
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
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let number f =
  if Float.is_finite f then
    (* %.17g round-trips; strip to a compact form that is still JSON *)
    let s = Printf.sprintf "%.6f" f in
    (* trim trailing zeros but keep one digit after the point *)
    let len = String.length s in
    let rec last i = if i > 0 && s.[i] = '0' then last (i - 1) else i in
    let i = last (len - 1) in
    let i = if s.[i] = '.' then i + 1 else i in
    String.sub s 0 (i + 1)
  else "0"

let obj_suffix key kvs =
  match kvs with
  | [] -> ""
  | kvs ->
      let fields =
        List.map (fun (k, v) -> Printf.sprintf "%s:%s" (escape k) (escape v)) kvs
      in
      Printf.sprintf ",%s:{%s}" (escape key) (String.concat "," fields)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of int * string

let parse (s : string) : (t, string) result =
  let len = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Fail (!pos, m))) fmt in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail "expected %c, got %c" c d
    | None -> fail "expected %c, got end of input" c
  in
  let skip_ws () =
    while
      !pos < len
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let literal word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "invalid literal"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= len then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'; advance ()
               | '\\' -> Buffer.add_char b '\\'; advance ()
               | '/' -> Buffer.add_char b '/'; advance ()
               | 'b' -> Buffer.add_char b '\b'; advance ()
               | 'f' -> Buffer.add_char b '\012'; advance ()
               | 'n' -> Buffer.add_char b '\n'; advance ()
               | 'r' -> Buffer.add_char b '\r'; advance ()
               | 't' -> Buffer.add_char b '\t'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > len then fail "truncated \\u escape";
                   let hex = String.sub s !pos 4 in
                   let code =
                     try int_of_string ("0x" ^ hex)
                     with _ -> fail "invalid \\u escape %s" hex
                   in
                   pos := !pos + 4;
                   (* encode the code point as UTF-8 (surrogates kept raw) *)
                   if code < 0x80 then Buffer.add_char b (Char.chr code)
                   else if code < 0x800 then begin
                     Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                     Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                   end
                   else begin
                     Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                     Buffer.add_char b
                       (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                   end
               | c -> fail "invalid escape \\%c" c);
            go ()
        | c when Char.code c < 0x20 -> fail "raw control character in string"
        | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < len && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = d0 then fail "malformed number"
    in
    digits ();
    if peek () = Some '.' then begin advance (); digits () end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); Arr [] end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elems (v :: acc)
            | Some ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elems []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail "unexpected character %c" c
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing content after JSON value";
    v
  with
  | v -> Ok v
  | exception Fail (p, m) -> Error (Printf.sprintf "at offset %d: %s" p m)

(* Integral values print without a fractional part; any other finite
   number prints with the fewest digits that read back to it. *)
let to_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f
  else "null"

let to_string v =
  let b = Buffer.create 1024 in
  let add = Buffer.add_string b in
  let list sep f xs =
    List.iteri (fun i x -> if i > 0 then add sep; f x) xs
  in
  let rec inline = function
    | Null -> add "null"
    | Bool x -> add (string_of_bool x)
    | Num f -> add (to_number f)
    | Str s -> add (escape s)
    | Arr vs -> add "["; list ", " inline vs; add "]"
    | Obj kvs -> add "{"; list ", " member kvs; add "}"
  and member (k, v) = add (escape k); add ": "; inline v in
  let is_container = function Arr _ | Obj _ -> true | _ -> false in
  let rec block indent = function
    | Obj (_ :: _ as kvs) ->
        let inner = indent ^ "  " in
        add "{\n";
        list ",\n"
          (fun (k, v) -> add inner; add (escape k); add ": "; block inner v)
          kvs;
        add ("\n" ^ indent ^ "}")
    | Arr vs when List.exists is_container vs ->
        let inner = indent ^ "  " in
        add "[\n";
        list ",\n" (fun v -> add inner; inline v) vs;
        add ("\n" ^ indent ^ "]")
    | v -> inline v
  in
  block "" v;
  add "\n";
  Buffer.contents b

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

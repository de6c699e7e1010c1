type t = { language : string; construct : string; args : string list }

let make ?(language = "sql") ?construct args =
  if args = [] then invalid_arg "Scheme.make: empty argument list";
  let construct =
    match construct with
    | Some c -> c
    | None -> ( match args with [ _ ] -> "table" | _ -> "column")
  in
  { language; construct; args }

let table t = make ~construct:"table" [ t ]
let column t c = make ~construct:"column" [ t; c ]
let language s = s.language
let construct s = s.construct
let args s = s.args

let compare a b =
  match String.compare a.language b.language with
  | 0 -> (
      match String.compare a.construct b.construct with
      | 0 -> List.compare String.compare a.args b.args
      | n -> n)
  | n -> n

let equal a b = compare a b = 0
let hash = Hashtbl.hash

let to_buffer buf s =
  Buffer.add_string buf "<<";
  if
    not
      (s.language = "sql"
      && (s.construct = "table" || s.construct = "column"))
  then begin
    Buffer.add_string buf s.language;
    Buffer.add_char buf ',';
    Buffer.add_string buf s.construct;
    Buffer.add_char buf ','
  end;
  Strutil.add_list buf ~enclose:("", ">>") ~sep:"," Buffer.add_string s.args

let to_string s =
  let buf = Buffer.create 32 in
  to_buffer buf s;
  Buffer.contents buf

let pp ppf s = Fmt.string ppf (to_string s)

let of_string str =
  let str = String.trim str in
  let n = String.length str in
  if n < 5 || String.sub str 0 2 <> "<<" || String.sub str (n - 2) 2 <> ">>"
  then Error (Printf.sprintf "not a scheme: %S" str)
  else
    let inner = String.sub str 2 (n - 4) in
    let parts = String.split_on_char ',' inner |> List.map String.trim in
    match parts with
    | [] | [ "" ] -> Error (Printf.sprintf "empty scheme: %S" str)
    | parts when List.exists (fun p -> p = "") parts ->
        Error (Printf.sprintf "blank component in scheme: %S" str)
    | [ t ] -> Ok (table t)
    | [ t; c ] -> Ok (column t c)
    | lang :: construct :: args when args <> [] ->
        Ok { language = lang; construct; args }
    | _ -> Error (Printf.sprintf "malformed scheme: %S" str)

let rename n s =
  match List.rev s.args with
  | [] -> s
  | _ :: rest -> { s with args = List.rev (n :: rest) }

let prefix p s =
  match s.args with
  | [] -> s
  | a :: rest -> { s with args = (p ^ ":" ^ a) :: rest }

let unprefix s =
  match s.args with
  | [] -> None
  | a :: rest -> (
      match String.index_opt a ':' with
      | None -> None
      | Some i ->
          let p = String.sub a 0 i in
          let base = String.sub a (i + 1) (String.length a - i - 1) in
          Some (p, { s with args = base :: rest }))

let is_prefixed s = unprefix s <> None

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

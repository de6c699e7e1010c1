type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Tuple of t list
  | Bag of (t * int) list

let rank = function
  | Unit -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4
  | Tuple _ -> 5
  | Bag _ -> 6

let rec compare a b =
  match (a, b) with
  | Unit, Unit -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Tuple xs, Tuple ys -> List.compare compare xs ys
  | Bag xs, Bag ys ->
      List.compare
        (fun (v1, n1) (v2, n2) ->
          match compare v1 v2 with 0 -> Int.compare n1 n2 | c -> c)
        xs ys
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Inner text of a string literal: escapes are rendered so that the
   lexer reads the exact string back (strings without quotes, backslashes
   or control characters render as themselves). *)
let plain c = c <> '\'' && c <> '\\' && c <> '\n' && c <> '\r' && c <> '\t'

let add_escaped buf s =
  if String.for_all plain s then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '\'' -> Buffer.add_string buf "\\'"
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_char buf c)
      s

let escape_string s =
  if String.for_all plain s then s
  else begin
    let buf = Buffer.create (String.length s + 4) in
    add_escaped buf s;
    Buffer.contents buf
  end

let rec to_buffer buf = function
  | Unit -> Buffer.add_string buf "()"
  | Bool b -> Buffer.add_string buf (Bool.to_string b)
  | Int i -> Buffer.add_string buf (Int.to_string i)
  | Float f -> Buffer.add_string buf (Printf.sprintf "%g" f)
  | Str s ->
      Buffer.add_char buf '\'';
      add_escaped buf s;
      Buffer.add_char buf '\''
  | Tuple vs ->
      Automed_base.Strutil.add_list buf ~enclose:("{", "}") ~sep:"," to_buffer
        vs
  | Bag b ->
      Automed_base.Strutil.add_list buf ~enclose:("[", "]") ~sep:"; "
        (fun buf (v, n) ->
          to_buffer buf v;
          if n <> 1 then begin
            Buffer.add_char buf '*';
            Buffer.add_string buf (Int.to_string n)
          end)
        b

let to_string v =
  let buf = Buffer.create 32 in
  to_buffer buf v;
  Buffer.contents buf

let pp ppf v = Fmt.string ppf (to_string v)

let rec is_canonical = function
  | Unit | Bool _ | Int _ | Float _ | Str _ -> true
  | Tuple vs -> List.for_all is_canonical vs
  | Bag b ->
      let rec sorted = function
        | [] | [ _ ] -> true
        | (v1, _) :: ((v2, _) :: _ as rest) -> compare v1 v2 < 0 && sorted rest
      in
      List.for_all (fun (v, n) -> n >= 1 && is_canonical v) b && sorted b

module Bag = struct
  type elt = t
  type nonrec t = (t * int) list

  let empty = []
  let is_empty b = b = []

  let rec add ?(count = 1) v = function
    | [] -> if count <= 0 then [] else [ (v, count) ]
    | (w, m) :: rest as b -> (
        match compare v w with
        | 0 ->
            let n = m + count in
            if n <= 0 then rest else (w, n) :: rest
        | c when c < 0 -> if count <= 0 then b else (v, count) :: b
        | _ -> (w, m) :: add ~count v rest)

  let canonical plus positive pairs =
    let sorted =
      List.stable_sort (fun (a, _) (b, _) -> compare a b) pairs
    in
    (* merge runs of equal elements, adding their weights *)
    let rec merge = function
      | [] -> []
      | (v, n) :: rest ->
          let rec take n = function
            | (v', n') :: rest when compare v v' = 0 -> take (plus n n') rest
            | rest -> (n, rest)
          in
          let total, rest = take n rest in
          if positive total then (v, total) :: merge rest else merge rest
    in
    merge sorted

  let of_weighted_list pairs = canonical ( + ) (fun n -> n > 0) pairs

  let of_list xs = of_weighted_list (List.map (fun v -> (v, 1)) xs)

  let to_list b =
    List.concat_map (fun (v, n) -> List.init n (fun _ -> v)) b

  let singleton v = [ (v, 1) ]
  let cardinal b = List.fold_left (fun acc (_, n) -> acc + n) 0 b
  let distinct_cardinal = List.length

  let rec multiplicity v = function
    | [] -> 0
    | (w, n) :: rest -> (
        match compare v w with
        | 0 -> n
        | c when c < 0 -> 0
        | _ -> multiplicity v rest)

  let mem v b = multiplicity v b > 0

  let rec merge f a b =
    match (a, b) with
    | [], [] -> []
    | (v, n) :: ra, [] -> cons v (f (Some n) None) (merge f ra [])
    | [], (v, n) :: rb -> cons v (f None (Some n)) (merge f [] rb)
    | (v1, n1) :: ra, (v2, n2) :: rb -> (
        match compare v1 v2 with
        | 0 -> cons v1 (f (Some n1) (Some n2)) (merge f ra rb)
        | c when c < 0 -> cons v1 (f (Some n1) None) (merge f ra b)
        | _ -> cons v2 (f None (Some n2)) (merge f a rb))

  and cons v w rest = match w with None -> rest | Some w -> (v, w) :: rest

  let union a b =
    merge
      (fun x y ->
        match (x, y) with
        | Some x, Some y -> Some (x + y)
        | x, None | None, x -> x)
      a b

  let monus a b =
    merge
      (fun x y ->
        match (x, y) with
        | Some x, Some y -> if x > y then Some (x - y) else None
        | x, _ -> x)
      a b

  let inter a b =
    merge
      (fun x y ->
        match (x, y) with Some x, Some y -> Some (min x y) | _ -> None)
      a b
  let distinct b = List.map (fun (v, _) -> (v, 1)) b

  let sub_bag a b =
    List.for_all (fun (v, n) -> n <= multiplicity v b) a

  let map f b =
    List.fold_left (fun acc (v, n) -> add ~count:n (f v) acc) empty b

  let filter p b = List.filter (fun (v, _) -> p v) b
  let fold f b init = List.fold_left (fun acc (v, n) -> f v n acc) init b
  let equal a b = a = b
end

let bag_of_list xs = Bag (Bag.of_list xs)
let tuple2 a b = Tuple [ a; b ]
let tuple3 a b c = Tuple [ a; b; c ]

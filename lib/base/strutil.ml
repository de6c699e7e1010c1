let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) (fun j -> j) in
    let curr = Array.make (lb + 1) 0 in
    for i = 1 to la do
      curr.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        curr.(j) <- min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit curr 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

let similarity a b =
  let a = String.lowercase_ascii a and b = String.lowercase_ascii b in
  let la = String.length a and lb = String.length b in
  if la = 0 && lb = 0 then 1.0
  else
    let d = levenshtein a b in
    1.0 -. (float_of_int d /. float_of_int (max la lb))

let is_sep c = c = '_' || c = '-' || c = ' ' || c = '.' || c = ':'
let is_upper c = c >= 'A' && c <= 'Z'

let tokens s =
  let buf = Buffer.create 8 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := String.lowercase_ascii (Buffer.contents buf) :: !out;
      Buffer.clear buf
    end
  in
  String.iteri
    (fun i c ->
      if is_sep c then flush ()
      else begin
        if is_upper c && i > 0 && not (is_upper s.[i - 1]) then flush ();
        Buffer.add_char buf c
      end)
    s;
  flush ();
  List.rev !out

module SS = Set.Make (String)

let token_overlap a b =
  let sa = SS.of_list (tokens a) and sb = SS.of_list (tokens b) in
  let inter = SS.cardinal (SS.inter sa sb) in
  let union = SS.cardinal (SS.union sa sb) in
  if union = 0 then 0.0 else float_of_int inter /. float_of_int union

let pad w s =
  let n = String.length s in
  if n >= w then s else s ^ String.make (w - n) ' '

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains_sub ~sub s =
  let ls = String.length s and lsub = String.length sub in
  if lsub = 0 then true
  else
    let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
    go 0

let add_list buf ?(enclose = ("", "")) ~sep add xs =
  Buffer.add_string buf (fst enclose);
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf sep;
      add buf x)
    xs;
  Buffer.add_string buf (snd enclose)

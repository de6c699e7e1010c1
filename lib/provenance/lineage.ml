module Scheme = Automed_base.Scheme
module Value = Automed_iql.Value

type atom = { source : string; extent : Scheme.t }

type hop = { pathway : string; steps : int }

module ASet = Set.Make (struct
  type t = atom

  let compare a b =
    match String.compare a.source b.source with
    | 0 -> Scheme.compare a.extent b.extent
    | c -> c
end)

module HSet = Set.Make (struct
  type t = hop

  (* a string and an int: structural comparison is total *)
  let compare = (Stdlib.compare : hop -> hop -> int)
end)

module SS = Set.Make (String)
module IS = Set.Make (Int)

(* [lsk] records sources skipped because they were faulty or breaker-open;
   [lev] records sources skipped because they evolved away (dropped by a
   live schema evolution).  The two are distinct skip-marker kinds: a
   faulty source may come back and the answer may then grow, an
   evolved-away source will not. *)
type t = { la : ASet.t; lh : HSet.t; lsk : SS.t; lev : SS.t; lsp : IS.t }

let empty =
  {
    la = ASet.empty;
    lh = HSet.empty;
    lsk = SS.empty;
    lev = SS.empty;
    lsp = IS.empty;
  }

let is_empty t =
  ASet.is_empty t.la && HSet.is_empty t.lh && SS.is_empty t.lsk
  && SS.is_empty t.lev && IS.is_empty t.lsp

let atom ?span ~source extent =
  {
    empty with
    la = ASet.singleton { source; extent };
    lsp = (match span with None -> IS.empty | Some id -> IS.singleton id);
  }

let skip source = { empty with lsk = SS.singleton source }
let skip_evolved source = { empty with lev = SS.singleton source }

let union a b =
  if is_empty a then b
  else if is_empty b then a
  else
    {
      la = ASet.union a.la b.la;
      lh = HSet.union a.lh b.lh;
      lsk = SS.union a.lsk b.lsk;
      lev = SS.union a.lev b.lev;
      lsp = IS.union a.lsp b.lsp;
    }

let add_hop h t = { t with lh = HSet.add h t.lh }
let only_skips t = { empty with lsk = t.lsk; lev = t.lev }
let atoms t = ASet.elements t.la
let hops t = HSet.elements t.lh
let skipped t = SS.elements (SS.union t.lsk t.lev)
let skipped_faulty t = SS.elements t.lsk
let skipped_evolved t = SS.elements t.lev
let spans t = IS.elements t.lsp

let sources t =
  SS.elements (ASet.fold (fun a acc -> SS.add a.source acc) t.la SS.empty)

let cites_source s t = ASet.exists (fun a -> String.equal a.source s) t.la
let cites_skip s t = SS.mem s t.lsk || SS.mem s t.lev

let equal a b =
  ASet.equal a.la b.la && HSet.equal a.lh b.lh && SS.equal a.lsk b.lsk
  && SS.equal a.lev b.lev && IS.equal a.lsp b.lsp

let pp_atom ppf a = Fmt.pf ppf "%s:%s" a.source (Scheme.to_string a.extent)

let pp_hop ppf h = Fmt.pf ppf "%s[%d]" h.pathway h.steps

let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma pp_atom) (atoms t);
  (match hops t with
  | [] -> ()
  | hs -> Fmt.pf ppf " via %a" Fmt.(list ~sep:comma pp_hop) hs);
  (match spans t with
  | [] -> ()
  | ids -> Fmt.pf ppf " spans %a" Fmt.(list ~sep:comma int) ids);
  (match skipped_faulty t with
  | [] -> ()
  | ss -> Fmt.pf ppf " (skipped: %a)" Fmt.(list ~sep:comma string) ss);
  match skipped_evolved t with
  | [] -> ()
  | ss -> Fmt.pf ppf " (evolved away: %a)" Fmt.(list ~sep:comma string) ss

(* -- canonical JSON ------------------------------------------------------- *)

module J = Automed_telemetry.Microjson

let to_json t =
  let b = Buffer.create 128 in
  Buffer.add_string b "{\"atoms\":[";
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"source\":%s,\"extent\":%s}" (J.escape a.source)
           (J.escape (Scheme.to_string a.extent))))
    (atoms t);
  Buffer.add_string b "],\"pathways\":[";
  List.iteri
    (fun i h ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"pathway\":%s,\"steps\":%d}" (J.escape h.pathway)
           h.steps))
    (hops t);
  Buffer.add_string b "],\"spans\":[";
  List.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int id))
    (spans t);
  Buffer.add_string b "],\"skipped\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (J.escape s))
    (skipped_faulty t);
  Buffer.add_string b "],\"evolved\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (J.escape s))
    (skipped_evolved t);
  Buffer.add_string b "]}";
  Buffer.contents b

(* -- keyed MAC ------------------------------------------------------------ *)

let fnv64 init s =
  let h = ref init in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  !h

let sign ~key value t =
  let h = fnv64 0xCBF29CE484222325L key in
  let h = fnv64 h "\x00" in
  let h = fnv64 h (Value.to_string value) in
  let h = fnv64 h "\x00" in
  let h = fnv64 h (to_json t) in
  let h = fnv64 h "\x00" in
  let h = fnv64 h key in
  Printf.sprintf "%016Lx" h

let verify ~key value t mac = String.equal (sign ~key value t) mac

(* -- lineage-annotated evaluation ------------------------------------------ *)

type bag = (Value.t * (int * t)) list * t
type value = t Automed_iql.Eval.annotated

(* skip markers flow from a generator source onto each generated element:
   a skipped source "could have affected" every tuple that went through a
   bag it should have fed *)
let instance : (t, int * t, bag, value) Automed_iql.Eval.instance =
  Annotated { none = empty; join = union; carry = only_skips }

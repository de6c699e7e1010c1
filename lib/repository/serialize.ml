module Scheme = Automed_base.Scheme
module Strutil = Automed_base.Strutil
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Parser = Automed_iql.Parser
module Types = Automed_iql.Types
module Value = Automed_iql.Value
module Transform = Automed_transform.Transform

let ( let* ) = Result.bind
let err fmt = Format.kasprintf (fun s -> Error s) fmt

(* -- rendering ----------------------------------------------------------- *)

(* Every record renders straight into one Buffer: no per-line string is
   built, and Printf is left to the floats. *)

let add = Buffer.add_string

let add_quoted buf name =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> add buf "\\\""
      | '\\' -> add buf "\\\\"
      | '\n' -> add buf "\\n"
      | '\r' -> add buf "\\r"
      | c -> Buffer.add_char buf c)
    name;
  Buffer.add_char buf '"'

(* Values rendered for exact round-tripping: floats get 17 significant
   digits (Value's %g display format would lose precision), and
   integral floats keep an explicit ".0" so they re-parse as floats
   rather than collapsing into ints. *)
let rec add_value buf = function
  | Value.Float f ->
      let s = Printf.sprintf "%.17g" f in
      add buf s;
      if String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) s then
        add buf ".0"
  | Value.Tuple vs ->
      Strutil.add_list buf ~enclose:("{", "}") ~sep:"," add_value vs
  | v -> Value.to_buffer buf v

(* a bag extent as an IQL bag literal with expanded multiplicities *)
let add_bag buf bag =
  Strutil.add_list buf ~enclose:("[", "]") ~sep:"; " add_value
    (Value.Bag.to_list bag)

(* [kind "a" -> "b"] *)
let add_header buf kind from_s to_s =
  add buf kind;
  Buffer.add_char buf ' ';
  add_quoted buf from_s;
  add buf " -> ";
  add_quoted buf to_s;
  Buffer.add_char buf '\n'

(* [<<o>>] or [<<o>> : ty] *)
let add_object buf o ty =
  Scheme.to_buffer buf o;
  match ty with
  | Some ty ->
      add buf " : ";
      Types.to_buffer buf ty
  | None -> ()

let render_schema buf s =
  add buf "schema ";
  add_quoted buf (Schema.name s);
  Buffer.add_char buf '\n';
  Schema.fold
    (fun o { Schema.extent_ty } () ->
      add buf "object ";
      add_object buf o extent_ty;
      Buffer.add_char buf '\n')
    s ()

let render_step buf (step : Transform.prim) =
  let head kind o =
    add buf "step ";
    add buf kind;
    Buffer.add_char buf ' ';
    Scheme.to_buffer buf o;
    add buf " := "
  in
  (match step with
  | Transform.Add (o, q) ->
      head "add" o;
      Ast.to_buffer buf q
  | Transform.Delete (o, q) ->
      head "delete" o;
      Ast.to_buffer buf q
  | Transform.Extend (o, ql, qu) ->
      head "extend" o;
      Ast.to_buffer buf (Ast.Range (ql, qu))
  | Transform.Contract (o, ql, qu) ->
      head "contract" o;
      Ast.to_buffer buf (Ast.Range (ql, qu))
  | Transform.Rename (a, b) ->
      head "rename" a;
      Scheme.to_buffer buf b
  | Transform.Id (a, b) ->
      head "id" a;
      Scheme.to_buffer buf b);
  Buffer.add_char buf '\n'

let render_steps buf (p : Transform.pathway) =
  List.iter (render_step buf) p.Transform.steps

(* a pathway's header and steps; the caller closes the block *)
let render_pathway_open buf head (p : Transform.pathway) =
  add_header buf head p.Transform.from_schema p.Transform.to_schema;
  render_steps buf p

let render_pathway ?(head = "pathway") buf p =
  render_pathway_open buf head p;
  add buf "end\n"

(* [kind "name"] *)
let render_named buf kind name =
  add buf kind;
  Buffer.add_char buf ' ';
  add_quoted buf name;
  Buffer.add_char buf '\n'

let render_alter buf name (alter : Repository.schema_alter) =
  add buf "alter ";
  add_quoted buf name;
  (match alter with
  | Repository.Alter_add_object (o, ty) ->
      add buf " add ";
      add_object buf o ty
  | Repository.Alter_drop_object o ->
      add buf " drop ";
      Scheme.to_buffer buf o
  | Repository.Alter_rename_object (a, b) ->
      add buf " rename ";
      Scheme.to_buffer buf a;
      add buf " := ";
      Scheme.to_buffer buf b);
  Buffer.add_char buf '\n'

let render_extent buf name o bag =
  add buf "extent ";
  add_quoted buf name;
  Buffer.add_char buf ' ';
  Scheme.to_buffer buf o;
  add buf " := ";
  add_bag buf bag;
  Buffer.add_char buf '\n'

let save ?(extents = false) repo =
  let buf = Buffer.create 65536 in
  List.iter (render_schema buf) (Repository.schemas repo);
  List.iter
    (fun p ->
      if not (Repository.is_contribution repo p) then render_pathway buf p)
    (Repository.pathways repo);
  List.iter
    (render_pathway ~head:"contribution" buf)
    (Repository.contributions repo);
  List.iter (render_named buf "retire") (Repository.retired_sources repo);
  if extents then
    List.iter
      (fun s ->
        let name = Schema.name s in
        List.iter
          (fun o ->
            match Repository.stored_extent repo ~schema:name o with
            | Some bag -> render_extent buf name o bag
            | None -> ())
          (Schema.objects s))
      (Repository.schemas repo);
  Buffer.contents buf

(* -- parsing ------------------------------------------------------------- *)

(* parses a leading quoted (escape-aware) name, returning it together
   with the unconsumed remainder of the line *)
let scan_quoted s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && (s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
  if !i >= n || s.[!i] <> '"' then err "expected a quoted name, got %S" s
  else begin
    let buf = Buffer.create 16 in
    let j = ref (!i + 1) in
    let closed = ref false in
    let error = ref None in
    while (not !closed) && !error = None do
      if !j >= n then error := Some (Printf.sprintf "unterminated quoted name in %S" s)
      else
        match s.[!j] with
        | '"' ->
            closed := true;
            incr j
        | '\\' ->
            if !j + 1 >= n then
              error := Some (Printf.sprintf "unterminated quoted name in %S" s)
            else begin
              (match s.[!j + 1] with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | c ->
                  error :=
                    Some (Printf.sprintf "unknown escape \\%c in quoted name" c));
              j := !j + 2
            end
        | c ->
            Buffer.add_char buf c;
            incr j
    done;
    match !error with
    | Some e -> Error e
    | None -> Ok (Buffer.contents buf, String.sub s !j (n - !j))
  end

let unquote s =
  let* name, rest = scan_quoted s in
  if String.trim rest = "" then Ok name
  else err "trailing input after quoted name: %S" rest

let split_on_first sep line =
  let ls = String.length sep in
  let n = String.length line in
  let rec go i =
    if i + ls > n then None
    else if String.sub line i ls = sep then
      Some (String.sub line 0 i, String.sub line (i + ls) (n - i - ls))
    else go (i + 1)
  in
  go 0

let parse_object_line rest =
  (* <<scheme>> [: ty] *)
  match split_on_first " : " rest with
  | Some (scheme_text, ty_text) ->
      let* scheme = Scheme.of_string scheme_text in
      let* ty = Types.of_string (String.trim ty_text) in
      Ok (scheme, Some ty)
  | None ->
      let* scheme = Scheme.of_string rest in
      Ok (scheme, None)

let parse_range_query kind q =
  match (q : Ast.expr) with
  | Ast.Range (ql, qu) -> Ok (ql, qu)
  | _ -> err "%s step expects a Range query" kind

let parse_step line =
  match split_on_first " := " line with
  | None -> err "malformed step: %S" line
  | Some (head, payload) -> (
      match String.split_on_char ' ' (String.trim head) with
      | [ kind; scheme_text ] -> (
          let* scheme = Scheme.of_string scheme_text in
          match kind with
          | "add" ->
              let* q = Parser.parse payload in
              Ok (Transform.Add (scheme, q))
          | "delete" ->
              let* q = Parser.parse payload in
              Ok (Transform.Delete (scheme, q))
          | "extend" ->
              let* q = Parser.parse payload in
              let* ql, qu = parse_range_query "extend" q in
              Ok (Transform.Extend (scheme, ql, qu))
          | "contract" ->
              let* q = Parser.parse payload in
              let* ql, qu = parse_range_query "contract" q in
              Ok (Transform.Contract (scheme, ql, qu))
          | "rename" ->
              let* target = Scheme.of_string (String.trim payload) in
              Ok (Transform.Rename (scheme, target))
          | "id" ->
              let* target = Scheme.of_string (String.trim payload) in
              Ok (Transform.Id (scheme, target))
          | kind -> err "unknown step kind %S" kind)
      | _ -> err "malformed step head: %S" head)

let parse_extent_payload payload =
  let* q = Parser.parse payload in
  match q with
  | Ast.EBag items ->
      let* values =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match (item : Ast.expr) with
            | Ast.Const v -> Ok (v :: acc)
            | Ast.Tuple _ -> (
                (* constant tuples evaluate without an environment *)
                match Automed_iql.Eval.eval (Automed_iql.Eval.env ()) item with
                | Ok v -> Ok (v :: acc)
                | Error _ -> err "non-constant extent element")
            | _ -> err "non-constant extent element")
          (Ok []) items
      in
      Ok (Value.Bag.of_list (List.rev values))
  | _ -> err "extent payload must be a bag literal"

let parse_alter_payload rest =
  let* name, rest = scan_quoted rest in
  match split_on_first " " (String.trim rest) with
  | Some ("add", obj_text) ->
      let* scheme, extent_ty = parse_object_line obj_text in
      Ok (name, Repository.Alter_add_object (scheme, extent_ty))
  | Some ("drop", obj_text) ->
      let* scheme = Scheme.of_string (String.trim obj_text) in
      Ok (name, Repository.Alter_drop_object scheme)
  | Some ("rename", obj_text) -> (
      match split_on_first " := " obj_text with
      | None -> err "malformed alter rename record"
      | Some (a_text, b_text) ->
          let* a = Scheme.of_string (String.trim a_text) in
          let* b = Scheme.of_string (String.trim b_text) in
          Ok (name, Repository.Alter_rename_object (a, b)))
  | _ -> err "malformed alter record: %S" rest

type parse_state = {
  repo : Repository.t;
  mutable current_schema : Schema.t option;
  mutable current_pathway :
    (string * string * Transform.prim list * bool) option;
      (* from, to, reversed steps, is-contribution *)
}

let flush_schema st =
  match st.current_schema with
  | None -> Ok ()
  | Some s ->
      st.current_schema <- None;
      Repository.add_schema st.repo s

let load text =
  let st =
    { repo = Repository.create (); current_schema = None; current_pathway = None }
  in
  let lines = String.split_on_char '\n' text in
  let process line_no line =
    let line = String.trim line in
    if line = "" then Ok ()
    else
      match (st.current_pathway, split_on_first " " line) with
      | Some (from_s, to_s, steps, contrib), _ when line = "end" ->
          st.current_pathway <- None;
          let p =
            {
              Transform.from_schema = from_s;
              to_schema = to_s;
              steps = List.rev steps;
            }
          in
          (* a stranded-but-live pathway (raw alter under it) must not
             make the whole state unloadable: fall back to the trusted
             restore and let the stranded-pathway lint repair it *)
          let checked =
            if contrib then Repository.add_contribution st.repo p
            else Repository.add_pathway st.repo p
          in
          (match checked with
          | Ok () -> Ok ()
          | Error _ ->
              Repository.restore_pathway st.repo ~contribution:contrib p)
      | Some (from_s, to_s, steps, contrib), Some ("step", rest) ->
          let* step = parse_step rest in
          st.current_pathway <- Some (from_s, to_s, step :: steps, contrib);
          Ok ()
      | Some _, _ -> err "line %d: expected a step or 'end'" line_no
      | None, Some ("schema", rest) ->
          let* () = flush_schema st in
          let* name = unquote rest in
          st.current_schema <- Some (Schema.create name);
          Ok ()
      | None, Some ("object", rest) -> (
          match st.current_schema with
          | None -> err "line %d: object outside a schema block" line_no
          | Some s ->
              let* scheme, extent_ty = parse_object_line rest in
              let* s' = Schema.add_object ?extent_ty scheme s in
              st.current_schema <- Some s';
              Ok ())
      | None, Some (("pathway" | "contribution") as head, rest) ->
          let* () = flush_schema st in
          let* from_s, rest = scan_quoted rest in
          let rest = String.trim rest in
          if not (String.length rest >= 2 && String.sub rest 0 2 = "->") then
            err "line %d: malformed %s header" line_no head
          else
            let* to_s = unquote (String.sub rest 2 (String.length rest - 2)) in
            st.current_pathway <-
              Some (from_s, to_s, [], head = "contribution");
            Ok ()
      | None, Some ("retire", rest) ->
          let* () = flush_schema st in
          let* name = unquote rest in
          Repository.retire_source st.repo name
      | None, Some ("alter", rest) ->
          let* () = flush_schema st in
          let* name, alter = parse_alter_payload rest in
          Repository.alter_schema st.repo name alter
      | None, Some ("extent", rest) -> (
          let* () = flush_schema st in
          match split_on_first " := " rest with
          | None -> err "line %d: malformed extent line" line_no
          | Some (head, payload) ->
              let* name, scheme_text = scan_quoted head in
              let* scheme = Scheme.of_string scheme_text in
              let* bag = parse_extent_payload payload in
              Repository.set_extent st.repo ~schema:name scheme bag)
      | None, _ -> err "line %d: unrecognised line %S" line_no line
  in
  let* () =
    List.fold_left
      (fun acc (line_no, line) ->
        let* () = acc in
        process line_no line)
      (Ok ())
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  let* () = flush_schema st in
  match st.current_pathway with
  | Some _ -> err "unterminated pathway block"
  | None -> Ok st.repo

(* -- single-operation codec (write-ahead journal payloads) --------------- *)

let save_op (op : Repository.op) =
  let buf = Buffer.create 256 in
  (match op with
  | Repository.Op_add_schema s -> render_schema buf s
  | Repository.Op_add_pathway p -> render_pathway buf p
  | Repository.Op_add_contribution p ->
      render_pathway ~head:"contribution" buf p
  | Repository.Op_alter_schema (name, alter) -> render_alter buf name alter
  | Repository.Op_retire_source name -> render_named buf "retire" name
  | Repository.Op_replace_pathway (p_old, p_new) ->
      add_header buf "replace pathway" p_old.Transform.from_schema
        p_old.Transform.to_schema;
      render_steps buf p_old;
      add buf "with\n";
      render_steps buf p_new;
      add buf "end\n"
  | Repository.Op_set_extent (name, o, bag) -> render_extent buf name o bag
  | Repository.Op_remove_schema name -> render_named buf "remove" name
  | Repository.Op_rename_schema (a, b) -> add_header buf "rename" a b
  | Repository.Op_remove_pathway p -> render_pathway ~head:"drop pathway" buf p
  | Repository.Op_compact_pathway (retired, shortcut, reroutes) ->
      render_pathway_open buf "compact pathway" retired;
      render_pathway_open buf "with" shortcut;
      List.iter (render_pathway_open buf "contribution") reroutes;
      add buf "end\n");
  Buffer.contents buf

let parse_schema_block name lines =
  List.fold_left
    (fun acc line ->
      let* s = acc in
      match split_on_first " " (String.trim line) with
      | Some ("object", rest) ->
          let* scheme, extent_ty = parse_object_line rest in
          Schema.add_object ?extent_ty scheme s
      | _ -> err "unexpected line in schema block: %S" line)
    (Ok (Schema.create name)) lines

let expect_arrow ctx rest k =
  let rest = String.trim rest in
  if String.length rest >= 2 && String.sub rest 0 2 = "->" then
    k (String.sub rest 2 (String.length rest - 2))
  else err "malformed %s record" ctx

let parse_pathway_block hdr lines =
  let* from_s, rest = scan_quoted hdr in
  expect_arrow "pathway" rest @@ fun to_text ->
  let* to_s = unquote to_text in
  let rec steps acc = function
    | [] -> err "unterminated pathway block in journal record"
    | [ last ] when String.trim last = "end" -> Ok (List.rev acc)
    | line :: rest -> (
        match split_on_first " " (String.trim line) with
        | Some ("step", s) ->
            let* step = parse_step s in
            steps (step :: acc) rest
        | _ -> err "unexpected line in pathway block: %S" line)
  in
  let* steps = steps [] lines in
  Ok { Transform.from_schema = from_s; to_schema = to_s; steps }

let load_op text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> err "empty journal record"
  | first :: rest -> (
      match split_on_first " " (String.trim first) with
      | Some ("schema", name_text) ->
          let* name = unquote name_text in
          let* s = parse_schema_block name rest in
          Ok (Repository.Op_add_schema s)
      | Some ("pathway", hdr) ->
          let* p = parse_pathway_block hdr rest in
          Ok (Repository.Op_add_pathway p)
      | Some ("contribution", hdr) ->
          let* p = parse_pathway_block hdr rest in
          Ok (Repository.Op_add_contribution p)
      | Some ("alter", rest_line) when rest = [] ->
          let* name, alter = parse_alter_payload rest_line in
          Ok (Repository.Op_alter_schema (name, alter))
      | Some ("retire", rest_line) when rest = [] ->
          let* name = unquote rest_line in
          Ok (Repository.Op_retire_source name)
      | Some ("replace", rest_line) -> (
          match split_on_first " " (String.trim rest_line) with
          | Some ("pathway", hdr) ->
              let* from_s, r = scan_quoted hdr in
              expect_arrow "replace" r @@ fun to_text ->
              let* to_s = unquote to_text in
              let rec split_at_with acc = function
                | [] -> err "replace record has no 'with' separator"
                | l :: tail when String.trim l = "with" -> Ok (List.rev acc, tail)
                | l :: tail -> split_at_with (l :: acc) tail
              in
              let* old_lines, new_lines = split_at_with [] rest in
              let parse_steps lines =
                let* rev =
                  List.fold_left
                    (fun acc line ->
                      let* acc = acc in
                      match split_on_first " " (String.trim line) with
                      | Some ("step", s) ->
                          let* st = parse_step s in
                          Ok (st :: acc)
                      | _ -> err "unexpected line in replace block: %S" line)
                    (Ok []) lines
                in
                Ok (List.rev rev)
              in
              let* new_lines =
                match List.rev new_lines with
                | last :: before when String.trim last = "end" ->
                    Ok (List.rev before)
                | _ -> err "unterminated replace record"
              in
              let* old_steps = parse_steps old_lines in
              let* new_steps = parse_steps new_lines in
              let pathway steps =
                { Transform.from_schema = from_s; to_schema = to_s; steps }
              in
              Ok
                (Repository.Op_replace_pathway
                   (pathway old_steps, pathway new_steps))
          | _ -> err "malformed replace record")
      | Some ("extent", rest_line) when rest = [] -> (
          match split_on_first " := " rest_line with
          | None -> err "malformed extent record"
          | Some (head, payload) ->
              let* name, scheme_text = scan_quoted head in
              let* scheme = Scheme.of_string scheme_text in
              let* bag = parse_extent_payload payload in
              Ok (Repository.Op_set_extent (name, scheme, bag)))
      | Some ("remove", rest_line) when rest = [] ->
          let* name = unquote rest_line in
          Ok (Repository.Op_remove_schema name)
      | Some ("rename", rest_line) when rest = [] ->
          let* a, r = scan_quoted rest_line in
          expect_arrow "rename" r @@ fun b_text ->
          let* b = unquote b_text in
          Ok (Repository.Op_rename_schema (a, b))
      | Some ("drop", rest_line) -> (
          match split_on_first " " (String.trim rest_line) with
          | Some ("pathway", hdr) ->
              let* p = parse_pathway_block hdr rest in
              Ok (Repository.Op_remove_pathway p)
          | _ -> err "malformed drop record")
      | Some ("compact", rest_line) -> (
          match split_on_first " " (String.trim rest_line) with
          | Some ("pathway", hdr) ->
              let* rf, r = scan_quoted hdr in
              expect_arrow "compact" r @@ fun to_text ->
              let* rt = unquote to_text in
              let* body =
                match List.rev rest with
                | last :: before when String.trim last = "end" ->
                    Ok (List.rev before)
                | _ -> err "unterminated compact record"
              in
              let parse_hdr hdr =
                let* f, r = scan_quoted hdr in
                expect_arrow "compact" r @@ fun to_text ->
                let* t = unquote to_text in
                Ok (f, t)
              in
              let finish (kind, f, t, rev_steps) =
                ( kind,
                  {
                    Transform.from_schema = f;
                    to_schema = t;
                    steps = List.rev rev_steps;
                  } )
              in
              let* sections_rev, current =
                List.fold_left
                  (fun acc line ->
                    let* done_, cur = acc in
                    match split_on_first " " (String.trim line) with
                    | Some ("step", s) ->
                        let* st = parse_step s in
                        let k, f, t, steps = cur in
                        Ok (done_, (k, f, t, st :: steps))
                    | Some ("with", hdr) ->
                        let* f, t = parse_hdr hdr in
                        Ok (finish cur :: done_, (`Shortcut, f, t, []))
                    | Some ("contribution", hdr) ->
                        let* f, t = parse_hdr hdr in
                        Ok (finish cur :: done_, (`Contribution, f, t, []))
                    | _ -> err "unexpected line in compact record: %S" line)
                  (Ok ([], (`Retired, rf, rt, [])))
                  body
              in
              let sections = List.rev (finish current :: sections_rev) in
              (match sections with
              | (`Retired, retired) :: (`Shortcut, shortcut) :: tail ->
                  let* reroutes =
                    List.fold_left
                      (fun acc sec ->
                        let* acc = acc in
                        match sec with
                        | `Contribution, p -> Ok (p :: acc)
                        | _ -> err "malformed compact record")
                      (Ok []) tail
                  in
                  Ok
                    (Repository.Op_compact_pathway
                       (retired, shortcut, List.rev reroutes))
              | _ -> err "compact record missing 'with' shortcut section")
          | _ -> err "malformed compact record")
      | _ -> err "unrecognised journal record %S" first)

let apply_op repo (op : Repository.op) =
  match op with
  | Repository.Op_add_schema s -> Repository.add_schema repo s
  | Repository.Op_add_pathway p -> Repository.add_pathway repo p
  | Repository.Op_replace_pathway (p_old, p_new) ->
      Repository.replace_pathway repo ~old:p_old p_new
  | Repository.Op_set_extent (name, o, bag) ->
      Repository.set_extent repo ~schema:name o bag
  | Repository.Op_remove_schema name -> Repository.remove_schema repo name
  | Repository.Op_rename_schema (a, b) -> Repository.rename_schema repo a b
  | Repository.Op_add_contribution p -> Repository.add_contribution repo p
  | Repository.Op_alter_schema (name, alter) ->
      Repository.alter_schema repo name alter
  | Repository.Op_retire_source name -> Repository.retire_source repo name
  | Repository.Op_remove_pathway p -> Repository.remove_pathway repo p
  | Repository.Op_compact_pathway (retired, shortcut, reroutes) ->
      Repository.compact_chain repo ~retired ~shortcut ~reroutes

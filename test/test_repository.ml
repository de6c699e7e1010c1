(* The Schemas & Transformations Repository: registration, pathway
   validation, composite pathway search, stored extents. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Value = Automed_iql.Value
module Parser = Automed_iql.Parser
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let err = function Ok _ -> Alcotest.fail "expected error" | Error _ -> ()
let q = Parser.parse_exn

let schema name objs =
  ok (Schema.of_objects name (List.map (fun o -> (o, None)) objs))

let test_schema_registry () =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (schema "a" [ Scheme.table "t" ]));
  Alcotest.(check bool) "mem" true (Repository.mem_schema repo "a");
  err (Repository.add_schema repo (schema "a" []));
  Alcotest.(check int) "count" 1 (List.length (Repository.schemas repo));
  ok (Repository.remove_schema repo "a");
  Alcotest.(check bool) "removed" false (Repository.mem_schema repo "a");
  err (Repository.remove_schema repo "a")

let test_add_pathway_derives_target () =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (schema "a" [ Scheme.table "t" ]));
  let p =
    {
      Transform.from_schema = "a";
      to_schema = "b";
      steps = [ Transform.Add (Scheme.table "u", q "[k | k <- <<t>>]") ];
    }
  in
  ok (Repository.add_pathway repo p);
  (match Repository.schema repo "b" with
  | Some b ->
      Alcotest.(check int) "derived objects" 2 (Schema.object_count b)
  | None -> Alcotest.fail "target not registered");
  (* a schema referenced by a pathway cannot be removed *)
  err (Repository.remove_schema repo "a")

let test_add_pathway_checks () =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (schema "a" [ Scheme.table "t" ]));
  (* unknown source *)
  err
    (Repository.add_pathway repo
       { Transform.from_schema = "ghost"; to_schema = "b"; steps = [] });
  (* ill-formed: query references a missing object *)
  err
    (Repository.add_pathway repo
       {
         Transform.from_schema = "a";
         to_schema = "b";
         steps = [ Transform.Add (Scheme.table "u", q "<<ghost>>") ];
       });
  (* disagreeing target *)
  ok (Repository.add_schema repo (schema "c" [ Scheme.table "other" ]));
  err
    (Repository.add_pathway repo
       { Transform.from_schema = "a"; to_schema = "c"; steps = [] })

let chain_repo () =
  (* a -> b -> c, plus an unrelated island d *)
  let repo = Repository.create () in
  ok (Repository.add_schema repo (schema "a" [ Scheme.table "t" ]));
  ok
    (Repository.add_pathway repo
       {
         Transform.from_schema = "a";
         to_schema = "b";
         steps = [ Transform.Add (Scheme.table "u", q "[k | k <- <<t>>]") ];
       });
  ok
    (Repository.add_pathway repo
       {
         Transform.from_schema = "b";
         to_schema = "c";
         steps = [ Transform.Contract (Scheme.table "t", Automed_iql.Ast.Void, Automed_iql.Ast.Any) ];
       });
  ok (Repository.add_schema repo (schema "d" [ Scheme.table "x" ]));
  repo

let test_find_path_forward () =
  let repo = chain_repo () in
  let p = ok (Repository.find_path repo ~src:"a" ~dst:"c") in
  Alcotest.(check string) "from" "a" p.Transform.from_schema;
  Alcotest.(check string) "to" "c" p.Transform.to_schema;
  Alcotest.(check int) "two steps composed" 2 (List.length p.Transform.steps)

let test_find_path_reverse () =
  let repo = chain_repo () in
  let p = ok (Repository.find_path repo ~src:"c" ~dst:"a") in
  (* reversal: the contract of t becomes an extend, the add becomes delete *)
  match p.Transform.steps with
  | [ Transform.Extend (s, _, _); Transform.Delete (u, _) ] ->
      Alcotest.(check bool) "extend t" true (Scheme.equal s (Scheme.table "t"));
      Alcotest.(check bool) "delete u" true (Scheme.equal u (Scheme.table "u"))
  | steps -> Alcotest.failf "unexpected %d steps" (List.length steps)

let test_find_path_failures () =
  let repo = chain_repo () in
  err (Repository.find_path repo ~src:"a" ~dst:"d");
  err (Repository.find_path repo ~src:"a" ~dst:"ghost");
  let self = ok (Repository.find_path repo ~src:"a" ~dst:"a") in
  Alcotest.(check int) "empty pathway to self" 0 (List.length self.Transform.steps)

let test_extents () =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (schema "a" [ Scheme.table "t" ]));
  let bag = Value.Bag.of_list [ Value.Str "k1" ] in
  ok (Repository.set_extent repo ~schema:"a" (Scheme.table "t") bag);
  (match Repository.stored_extent repo ~schema:"a" (Scheme.table "t") with
  | Some b -> Alcotest.(check int) "stored" 1 (Value.Bag.cardinal b)
  | None -> Alcotest.fail "extent lost");
  Alcotest.(check bool) "has extents" true (Repository.has_stored_extents repo "a");
  err (Repository.set_extent repo ~schema:"a" (Scheme.table "ghost") bag);
  err (Repository.set_extent repo ~schema:"ghost" (Scheme.table "t") bag);
  Alcotest.(check bool) "none elsewhere" true
    (Repository.stored_extent repo ~schema:"a" (Scheme.table "ghost") = None)

let test_pathways_listing () =
  let repo = chain_repo () in
  Alcotest.(check int) "total" 2 (List.length (Repository.pathways repo));
  Alcotest.(check int) "from a" 1 (List.length (Repository.pathways_from repo "a"));
  Alcotest.(check int) "into c" 1 (List.length (Repository.pathways_into repo "c"));
  Alcotest.(check int) "into a" 0 (List.length (Repository.pathways_into repo "a"))

(* -- a contribution names only what it exports ---------------------- *)

module Ast = Automed_iql.Ast
module Processor = Automed_query.Processor
module Analysis = Automed_analysis.Analysis
module Diagnostic = Automed_analysis.Diagnostic

(* A source "s" of [tables] (name, rows), a target "g" holding the
   prefixed [exported] tables, [s:u] when the contribution also adds it
   (the union of the first and last exported table), and the unprefixed
   [collisions]; "g" is fed only by the contribution, stated implicitly
   or with an explicit [(Void, Any)] contract of every source object it
   does not name. *)
let contribution_repo ~explicit ~tables ~exported ~add ~collisions =
  let repo = Repository.create () in
  let t = Scheme.table and p o = Scheme.prefix "s" o in
  ok
    (Repository.add_schema repo
       (schema "s" (List.map (fun (n, _) -> t n) tables)));
  List.iter
    (fun (n, rows) ->
      ok
        (Repository.set_extent repo ~schema:"s" (t n)
           (Value.Bag.of_list (List.map (fun r -> Value.Str r) rows))))
    tables;
  let u = p (t "u") in
  let adds =
    match exported with
    | first :: _ when add ->
        let last = List.nth exported (List.length exported - 1) in
        [ Transform.Add (u, q (Printf.sprintf "<<%s>> ++ <<%s>>" first last)) ]
    | _ -> []
  in
  ok
    (Repository.add_schema repo
       (schema "g"
          (List.map (fun n -> p (t n)) exported
          @ (if adds = [] then [] else [ u ])
          @ List.map t collisions)));
  let implicit =
    adds @ List.map (fun n -> Transform.Rename (t n, p (t n))) exported
  in
  let contracts =
    List.filter_map
      (fun (n, _) ->
        if List.mem n exported then None
        else Some (Transform.Contract (t n, Ast.Void, Ast.Any)))
      tables
  in
  let c =
    { Transform.from_schema = "s"; to_schema = "g";
      steps = (if explicit then contracts @ implicit else implicit) }
  in
  ok (Repository.add_contribution repo c);
  (repo, c)

type observed = {
  derived : Scheme.t list;
  extents : (Scheme.t * Value.t list) list;
  lint : int * int * int;
}

let observe (repo, c) =
  let proc = Processor.create repo in
  {
    derived =
      Schema.objects
        (ok (Transform.apply (Option.get (Repository.source_of repo c)) c));
    extents =
      List.map
        (fun o ->
          match Processor.extent_of proc ~schema:"g" o with
          | Ok b -> (o, Value.Bag.to_list b)
          | Error e -> Alcotest.failf "%a" Processor.pp_error e)
        (Schema.objects (Repository.schema_exn repo "g"));
    lint = Diagnostic.count (Analysis.lint_repository ~root:"g" repo);
  }

let gen_contribution =
  let open QCheck.Gen in
  let* n = int_range 1 5 in
  let* tables =
    flatten_l
      (List.init n (fun i ->
           let+ rows =
             list_size (int_range 0 3)
               (map (Printf.sprintf "t%d-row%d" i) (int_range 0 4))
           in
           (Printf.sprintf "t%d" i, rows)))
  in
  (* the first table is always exported: a contribution that exports
     nothing is an empty pathway, which the linter notes as such *)
  let* exported =
    flatten_l (List.mapi (fun i _ -> map (( || ) (i = 0)) bool) tables)
  in
  let* collide = flatten_l (List.map (fun _ -> bool) tables) in
  let+ add = bool in
  let pick flags =
    List.filter_map
      (fun ((n, _), f) -> if f then Some n else None)
      (List.combine tables flags)
  in
  let exported = pick exported in
  let collisions =
    List.filter (fun n -> not (List.mem n exported)) (pick collide)
  in
  (tables, exported, add, collisions)

let prop_implicit_contracts =
  QCheck.Test.make ~count:100
    ~name:"a contribution's implicit contracts act as explicit ones"
    (QCheck.make
       ~print:(fun (tables, exported, add, collisions) ->
         Printf.sprintf "%d tables, exports [%s]%s, collisions [%s]"
           (List.length tables) (String.concat "; " exported)
           (if add then " + add" else "")
           (String.concat "; " collisions))
       gen_contribution)
    (fun (tables, exported, add, collisions) ->
      let build explicit =
        observe
          (contribution_repo ~explicit ~tables ~exported ~add ~collisions)
      in
      build false = build true)

(* The target holds [b], an unprefixed name of a source object that the
   contribution does not mention: the contribution derives nothing for
   it, so it is not fed the source's [b]. *)
let test_contribution_name_collision () =
  let tables = [ ("a", [ "a1" ]); ("b", [ "b1"; "b2" ]) ] in
  let o =
    observe
      (contribution_repo ~explicit:false ~tables ~exported:[ "a" ] ~add:false
         ~collisions:[ "b" ])
  in
  Alcotest.(check (list string)) "derives only s:a" [ "<<s:a>>" ]
    (List.map Scheme.to_string o.derived);
  Alcotest.(check int) "g's b is not fed" 0
    (List.length (List.assoc (Scheme.table "b") o.extents));
  Alcotest.(check int) "g's s:a is" 1
    (List.length (List.assoc (Scheme.prefix "s" (Scheme.table "a")) o.extents))

(* [id b b] is all that makes the contribution read [b]: the rewriter
   may drop it as an identity step over the source it was given, but
   storing the rewrite would stop [b] being fed, so it is refused. *)
let test_contribution_rewrite_keeps_names () =
  let repo = Repository.create () in
  let a = Scheme.table "a" and b = Scheme.table "b" in
  let sa = Scheme.prefix "s" a in
  ok (Repository.add_schema repo (schema "s" [ a; b ]));
  ok (Repository.add_schema repo (schema "g" [ sa; b ]));
  let c =
    { Transform.from_schema = "s"; to_schema = "g";
      steps = [ Transform.Id (b, b); Transform.Rename (a, sa) ] }
  in
  ok (Repository.add_contribution repo c);
  match Analysis.simplify_stored repo c with
  | Some (`Refused _) -> ()
  | Some `Unchanged | Some (`Simplified _) | None ->
      Alcotest.fail "a rewrite that drops a named source object was kept"

let suite =
  [
    Alcotest.test_case "schema registry" `Quick test_schema_registry;
    Alcotest.test_case "pathway derives target" `Quick test_add_pathway_derives_target;
    Alcotest.test_case "pathway validation" `Quick test_add_pathway_checks;
    Alcotest.test_case "find_path forward" `Quick test_find_path_forward;
    Alcotest.test_case "find_path reverse" `Quick test_find_path_reverse;
    Alcotest.test_case "find_path failures" `Quick test_find_path_failures;
    Alcotest.test_case "stored extents" `Quick test_extents;
    Alcotest.test_case "pathway listings" `Quick test_pathways_listing;
    QCheck_alcotest.to_alcotest prop_implicit_contracts;
    Alcotest.test_case "contribution name collision" `Quick
      test_contribution_name_collision;
    Alcotest.test_case "contribution rewrite keeps its names" `Quick
      test_contribution_rewrite_keeps_names;
  ]

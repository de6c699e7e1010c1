(* The query processor: extent derivation along pathways, bag-union of
   multiple contributions, certain-answer lower bounds, reformulation. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Parser = Automed_iql.Parser
module Value = Automed_iql.Value
module Eval = Automed_iql.Eval
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Processor = Automed_query.Processor

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let ok_p = function Ok v -> v | Error e -> Alcotest.failf "%a" Processor.pp_error e
let q = Parser.parse_exn
let bag vs = Value.Bag.of_list vs
let v_str s = Value.Str s

let schema name objs =
  ok (Schema.of_objects name (List.map (fun o -> (o, None)) objs))

(* source schema with a stored extent, one derived schema on top *)
let simple_repo () =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (schema "src" [ Scheme.table "t" ]));
  ok
    (Repository.set_extent repo ~schema:"src" (Scheme.table "t")
       (bag [ v_str "a"; v_str "b" ]));
  ok
    (Repository.add_pathway repo
       {
         Transform.from_schema = "src";
         to_schema = "derived";
         steps =
           [
             Transform.Add
               (Scheme.table "tagged", q "[{'S', k} | k <- <<t>>]");
           ];
       });
  repo

let test_extent_stored () =
  let proc = Processor.create (simple_repo ()) in
  let b = ok_p (Processor.extent_of proc ~schema:"src" (Scheme.table "t")) in
  Alcotest.(check int) "stored" 2 (Value.Bag.cardinal b)

let test_extent_derived () =
  let proc = Processor.create (simple_repo ()) in
  let b = ok_p (Processor.extent_of proc ~schema:"derived" (Scheme.table "tagged")) in
  Alcotest.(check int) "derived" 2 (Value.Bag.cardinal b);
  Alcotest.(check bool) "tagged" true
    (Value.Bag.mem (Value.tuple2 (v_str "S") (v_str "a")) b);
  (* the untouched object flows through *)
  let t = ok_p (Processor.extent_of proc ~schema:"derived" (Scheme.table "t")) in
  Alcotest.(check int) "identity" 2 (Value.Bag.cardinal t)

let test_extent_missing_object () =
  let proc = Processor.create (simple_repo ()) in
  match Processor.extent_of proc ~schema:"src" (Scheme.table "nope") with
  | Ok _ -> Alcotest.fail "missing object accepted"
  | Error _ -> ()

let test_run () =
  let proc = Processor.create (simple_repo ()) in
  let v = ok_p (Processor.run_string proc ~schema:"derived"
                  "[k | {s, k} <- <<tagged>>; s = 'S']") in
  Alcotest.(check string) "answers" "['a'; 'b']" (Value.to_string v)

(* two pathways into one schema: extents must bag-union *)
let union_repo () =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (schema "s1" [ Scheme.table "t" ]));
  ok (Repository.add_schema repo (schema "s2" [ Scheme.table "t" ]));
  ok
    (Repository.set_extent repo ~schema:"s1" (Scheme.table "t")
       (bag [ v_str "a"; v_str "b" ]));
  ok
    (Repository.set_extent repo ~schema:"s2" (Scheme.table "t")
       (bag [ v_str "b"; v_str "c" ]));
  let into name =
    {
      Transform.from_schema = name;
      to_schema = "merged";
      steps = [];
    }
  in
  ok (Repository.add_pathway repo (into "s1"));
  ok (Repository.add_pathway repo (into "s2"));
  repo

let test_bag_union_of_contributions () =
  let proc = Processor.create (union_repo ()) in
  let b = ok_p (Processor.extent_of proc ~schema:"merged" (Scheme.table "t")) in
  Alcotest.(check int) "cardinal" 4 (Value.Bag.cardinal b);
  Alcotest.(check int) "b twice" 2 (Value.Bag.multiplicity (v_str "b") b)

(* extend contributes its lower bound only *)
let test_extend_lower_bound () =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (schema "src" [ Scheme.table "t" ]));
  ok
    (Repository.set_extent repo ~schema:"src" (Scheme.table "t")
       (bag [ v_str "a" ]));
  ok
    (Repository.add_pathway repo
       {
         Transform.from_schema = "src";
         to_schema = "ext";
         steps =
           [
             Transform.Extend (Scheme.table "known", q "<<t>>", Ast.Any);
             Transform.Extend (Scheme.table "unknown", Ast.Void, Ast.Any);
           ];
       });
  let proc = Processor.create repo in
  let known = ok_p (Processor.extent_of proc ~schema:"ext" (Scheme.table "known")) in
  Alcotest.(check int) "lower bound used" 1 (Value.Bag.cardinal known);
  let unknown = ok_p (Processor.extent_of proc ~schema:"ext" (Scheme.table "unknown")) in
  Alcotest.(check bool) "void lower bound" true (Value.Bag.is_empty unknown)

let test_rename_and_delete_in_pathway () =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (schema "src" [ Scheme.table "t" ]));
  ok
    (Repository.set_extent repo ~schema:"src" (Scheme.table "t")
       (bag [ v_str "a" ]));
  ok
    (Repository.add_pathway repo
       {
         Transform.from_schema = "src";
         to_schema = "r";
         steps =
           [
             Transform.Add (Scheme.table "copy", q "<<t>>");
             Transform.Delete (Scheme.table "t", q "<<copy>>");
             Transform.Rename (Scheme.table "copy", Scheme.table "final");
           ];
       });
  let proc = Processor.create repo in
  let b = ok_p (Processor.extent_of proc ~schema:"r" (Scheme.table "final")) in
  Alcotest.(check int) "renamed derivation" 1 (Value.Bag.cardinal b);
  match Processor.extent_of proc ~schema:"r" (Scheme.table "t") with
  | Ok _ -> Alcotest.fail "deleted object still has an extent in r"
  | Error _ -> ()

(* reformulation produces a source-only query with the same answers *)
let test_reformulate_equals_run () =
  let proc = Processor.create (simple_repo ()) in
  let query = q "[k | {s, k} <- <<tagged>>; s = 'S']" in
  let direct = ok_p (Processor.run proc ~schema:"derived" query) in
  let unfolded = ok_p (Processor.reformulate proc ~schema:"derived" query) in
  (* the unfolded query only references schema-qualified source objects *)
  Scheme.Set.iter
    (fun s ->
      Alcotest.(check bool) "qualified" true (Scheme.is_prefixed s))
    (Ast.schemes unfolded);
  let via_sources =
    match Eval.eval (Processor.source_env proc) unfolded with
    | Ok v -> v
    | Error e -> Alcotest.failf "eval: %a" Eval.pp_error e
  in
  Alcotest.(check bool) "same answers" true (Value.equal direct via_sources)

let test_reformulate_union () =
  let proc = Processor.create (union_repo ()) in
  let query = q "<<t>>" in
  let direct = ok_p (Processor.run proc ~schema:"merged" query) in
  let unfolded = ok_p (Processor.reformulate proc ~schema:"merged" query) in
  let via_sources =
    match Eval.eval (Processor.source_env proc) unfolded with
    | Ok v -> v
    | Error e -> Alcotest.failf "eval: %a" Eval.pp_error e
  in
  Alcotest.(check bool) "union preserved" true (Value.equal direct via_sources)

let test_answerable () =
  let proc = Processor.create (simple_repo ()) in
  Alcotest.(check bool) "yes" true
    (Processor.answerable proc ~schema:"derived" (q "count(<<tagged>>)"));
  Alcotest.(check bool) "no: missing object" false
    (Processor.answerable proc ~schema:"derived" (q "count(<<missing>>)"))

let test_invalidate () =
  let repo = simple_repo () in
  let proc = Processor.create repo in
  let before = ok_p (Processor.extent_of proc ~schema:"derived" (Scheme.table "tagged")) in
  Alcotest.(check int) "before" 2 (Value.Bag.cardinal before);
  (* change the stored extent; the cache must be refreshable *)
  ok
    (Repository.set_extent repo ~schema:"src" (Scheme.table "t")
       (bag [ v_str "a"; v_str "b"; v_str "c" ]));
  let cached = ok_p (Processor.extent_of proc ~schema:"derived" (Scheme.table "tagged")) in
  Alcotest.(check int) "cache still serves old value" 2 (Value.Bag.cardinal cached);
  Processor.invalidate proc;
  let fresh = ok_p (Processor.extent_of proc ~schema:"derived" (Scheme.table "tagged")) in
  Alcotest.(check int) "after invalidate" 3 (Value.Bag.cardinal fresh)

let test_cycle_detection () =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (schema "a" [ Scheme.table "t" ]));
  ok (Repository.add_schema repo (schema "b" [ Scheme.table "t" ]));
  ok
    (Repository.add_pathway repo
       { Transform.from_schema = "a"; to_schema = "b"; steps = [] });
  let back = { Transform.from_schema = "b"; to_schema = "a"; steps = [] } in
  ok (Repository.add_pathway repo back);
  let proc = Processor.create repo in
  let t = Scheme.table "t" and query = q "<<t>>" in
  let expect_cycle walk = function
    | Ok _ -> Alcotest.failf "%s: cycle not detected" walk
    | Error e ->
        Alcotest.(check bool) (walk ^ " mentions cycle") true
          (Automed_base.Strutil.contains_sub ~sub:"cycle"
             (Fmt.str "%a" Processor.pp_error e))
  in
  (* every walk detects the cycle ... *)
  expect_cycle "extent_of" (Processor.extent_of proc ~schema:"a" t);
  expect_cycle "run_provenance"
    (Processor.run_provenance proc ~schema:"a" query);
  expect_cycle "reformulate" (Processor.reformulate proc ~schema:"a" query);
  expect_cycle "explain_plan" (Processor.explain_plan proc ~schema:"a" query);
  (* ... and leaves the derivation stack clean: once the cycle is broken
     the same processor answers through every entry point *)
  ok (Repository.remove_pathway repo back);
  let stored = bag [ v_str "x" ] in
  ok (Repository.set_extent repo ~schema:"a" t stored);
  let expected = Value.Bag stored in
  Alcotest.(check bool) "run" true
    (Value.equal expected (ok_p (Processor.run proc ~schema:"b" query)));
  let annotated = ok_p (Processor.run_provenance proc ~schema:"b" query) in
  Alcotest.(check bool) "run_provenance" true
    (Value.equal expected annotated.Processor.result);
  let reformulated = ok_p (Processor.reformulate proc ~schema:"b" query) in
  (match Eval.eval (Processor.source_env proc) reformulated with
  | Ok v -> Alcotest.(check bool) "reformulate" true (Value.equal expected v)
  | Error e -> Alcotest.failf "%a" Eval.pp_error e);
  let ex = ok_p (Processor.explain_plan proc ~schema:"b" query) in
  Alcotest.(check int) "explain_plan" 1 (List.length ex.Processor.ex_roots)

let test_translate_down () =
  (* query on the derived schema, translated onto the source *)
  let proc = Processor.create (simple_repo ()) in
  let query = q "[k | {s, k} <- <<tagged>>; s = 'S']" in
  let translated =
    ok_p (Processor.translate proc ~from_schema:"derived" ~to_schema:"src" query)
  in
  (* the translated query references only src objects *)
  Scheme.Set.iter
    (fun s ->
      Alcotest.(check bool) "src object" true (Scheme.equal s (Scheme.table "t")))
    (Ast.schemes translated);
  (* and yields the same answers when run on src *)
  let direct = ok_p (Processor.run proc ~schema:"derived" query) in
  let via_src = ok_p (Processor.run proc ~schema:"src" translated) in
  Alcotest.(check bool) "same answers" true (Value.equal direct via_src)

let test_translate_up () =
  (* query on the source, translated onto the derived schema: the
     untouched object carries over *)
  let proc = Processor.create (simple_repo ()) in
  let query = q "count(<<t>>)" in
  let translated =
    ok_p (Processor.translate proc ~from_schema:"src" ~to_schema:"derived" query)
  in
  let direct = ok_p (Processor.run proc ~schema:"src" query) in
  let via_derived = ok_p (Processor.run proc ~schema:"derived" translated) in
  Alcotest.(check bool) "same answers" true (Value.equal direct via_derived)

let test_translate_unconnected () =
  let repo = simple_repo () in
  ok (Repository.add_schema repo (schema "island" [ Scheme.table "x" ]));
  let proc = Processor.create repo in
  match
    Processor.translate proc ~from_schema:"derived" ~to_schema:"island"
      (q "count(<<tagged>>)")
  with
  | Ok _ -> Alcotest.fail "translation across unconnected schemas accepted"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "stored extent" `Quick test_extent_stored;
    Alcotest.test_case "derived extent" `Quick test_extent_derived;
    Alcotest.test_case "missing object" `Quick test_extent_missing_object;
    Alcotest.test_case "run query" `Quick test_run;
    Alcotest.test_case "bag union of contributions" `Quick
      test_bag_union_of_contributions;
    Alcotest.test_case "extend lower bound" `Quick test_extend_lower_bound;
    Alcotest.test_case "rename and delete in pathway" `Quick
      test_rename_and_delete_in_pathway;
    Alcotest.test_case "reformulate = run" `Quick test_reformulate_equals_run;
    Alcotest.test_case "reformulate union" `Quick test_reformulate_union;
    Alcotest.test_case "answerable" `Quick test_answerable;
    Alcotest.test_case "cache invalidation" `Quick test_invalidate;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "translate down the network" `Quick test_translate_down;
    Alcotest.test_case "translate up the network" `Quick test_translate_up;
    Alcotest.test_case "translate needs a pathway" `Quick test_translate_unconnected;
  ]

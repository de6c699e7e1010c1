(* Tuple-level lineage: the annotated evaluator agrees bit-for-bit with
   the reference evaluator, lineages cite exactly the extents a tuple
   rests on (sufficiency, checked by property), MACs detect forged
   lineage, degraded runs report per-source impact, and explain_plan
   tells the pruning story. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Parser = Automed_iql.Parser
module Value = Automed_iql.Value
module Eval = Automed_iql.Eval
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Processor = Automed_query.Processor
module Workflow = Automed_integration.Workflow
module Federated = Automed_integration.Federated
module Resilience = Automed_resilience.Resilience
module Policy = Resilience.Policy
module Fault = Resilience.Fault
module Microjson = Automed_telemetry.Microjson
module Lineage = Automed_provenance.Lineage
module Peval = Automed_provenance.Peval

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let ok_p = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%a" Processor.pp_error e

let q = Parser.parse_exn
let bag vs = Value.Bag.of_list vs
let v_str s = Value.Str s

let schema name objs =
  ok (Schema.of_objects name (List.map (fun o -> (o, None)) objs))

let contains ~sub s = Automed_base.Strutil.contains_sub ~sub s

(* a policy that fails fast and never opens the breaker, so every
   injected fault surfaces as a skip (same shape as test_resilience) *)
let fail_fast =
  {
    Policy.retries = 0;
    backoff_base_ms = 0.;
    backoff_factor = 1.;
    backoff_jitter = 0.;
    timeout_ms = None;
    breaker_threshold = 0;
    breaker_cooldown_ms = 0.;
  }

(* -- lineage algebra ------------------------------------------------------ *)

let t_obj = Scheme.table "t"
let u_obj = Scheme.table "u"
let atom ?span source extent = Lineage.atom ?span ~source extent

let test_lineage_semilattice () =
  let a = atom "s1" t_obj and b = atom "s2" u_obj in
  let ab = Lineage.union a b in
  Alcotest.(check bool) "union commutes" true
    (Lineage.equal ab (Lineage.union b a));
  Alcotest.(check bool) "idempotent" true
    (Lineage.equal ab (Lineage.union ab ab));
  Alcotest.(check bool) "empty is unit" true
    (Lineage.equal a (Lineage.union a Lineage.empty));
  Alcotest.(check (list string)) "sources sorted" [ "s1"; "s2" ]
    (Lineage.sources ab);
  Alcotest.(check bool) "cites s1" true (Lineage.cites_source "s1" ab);
  Alcotest.(check bool) "no skip" false (Lineage.cites_skip "s1" ab);
  let sk = Lineage.union ab (Lineage.skip "down") in
  Alcotest.(check (list string)) "skips" [ "down" ] (Lineage.skipped sk);
  Alcotest.(check bool) "only_skips drops atoms" true
    (Lineage.equal (Lineage.only_skips sk) (Lineage.skip "down"))

let test_lineage_json_and_mac () =
  let hop =
    { Lineage.pathway = "a->b"; steps = 3; surviving = [ 1; 3 ];
      cert = Some "eq-2o-8t" }
  in
  let l = Lineage.add_hop hop (Lineage.add_span 7 (atom "s1" t_obj)) in
  let json = Lineage.to_json l in
  (match Microjson.parse json with
  | Error e -> Alcotest.failf "lineage JSON does not parse: %s" e
  | Ok j ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " member") true
            (Microjson.member k j <> None))
        [ "atoms"; "pathways"; "spans"; "skipped" ]);
  let v = v_str "x" in
  let mac = Lineage.sign ~key:"k" v l in
  Alcotest.(check int) "16 hex digits" 16 (String.length mac);
  Alcotest.(check bool) "verifies" true (Lineage.verify ~key:"k" v l mac);
  (* mutation tests: any forgery must be detected *)
  Alcotest.(check bool) "wrong key" false
    (Lineage.verify ~key:"other" v l mac);
  Alcotest.(check bool) "transplanted to another value" false
    (Lineage.verify ~key:"k" (v_str "y") l mac);
  let forged = Lineage.union l (atom "sneaky" u_obj) in
  Alcotest.(check bool) "extended lineage" false
    (Lineage.verify ~key:"k" v forged mac);
  let dropped_hop = atom ~span:7 "s1" t_obj in
  Alcotest.(check bool) "dropped hop" false
    (Lineage.verify ~key:"k" v dropped_hop mac)

(* -- annotated evaluation mirrors the reference evaluator ----------------- *)

(* binds: (object, weighted rows, lineage) *)
let peval_env binds =
  Peval.env
    ~schemes:(fun s ->
      Option.map
        (fun (rows, lin) ->
          Peval.abag
            (Peval.canon
               (List.map (fun (v, n) -> { Peval.v; n; lin }) rows))
            lin)
        (List.assoc_opt s
           (List.map (fun (o, rows, lin) -> (o, (rows, lin))) binds)))
    ()

let eval_env binds =
  Eval.env
    ~schemes:(fun s ->
      Option.map Value.Bag.of_weighted_list
        (List.assoc_opt s
           (List.map (fun (o, rows, _) -> (o, rows)) binds)))
    ()

let check_agrees binds text =
  let e = q text in
  let reference =
    match Eval.eval (eval_env binds) e with
    | Ok v -> Ok v
    | Error err -> Error err.Eval.message
  in
  let annotated =
    match Peval.eval (peval_env binds) e with
    | Ok av -> Ok (Peval.value_of av)
    | Error err -> Error err.Peval.message
  in
  match (reference, annotated) with
  | Ok v1, Ok v2 ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: same value" text)
        true (Value.equal v1 v2)
  | Error _, Error _ -> () (* both reject; messages may differ in detail *)
  | Ok v, Error e ->
      Alcotest.failf "%s: reference %s but annotated fails with %s" text
        (Value.to_string v) e
  | Error e, Ok v ->
      Alcotest.failf "%s: annotated %s but reference fails with %s" text
        (Value.to_string v) e

let std_binds =
  [
    (t_obj, [ (v_str "a", 2); (v_str "b", 1) ], atom "s1" t_obj);
    (u_obj, [ (v_str "b", 1); (v_str "c", 3) ], atom "s2" u_obj);
  ]

let test_peval_agrees_with_eval () =
  List.iter (check_agrees std_binds)
    [
      "<<t>>";
      "<<t>> ++ <<u>>";
      "<<t>> -- <<u>>";
      "count(<<t>>)";
      "sum([1 | x <- <<t>>])";
      "distinct(<<t>> ++ <<u>>)";
      "[x | x <- <<t>>; x = 'a']";
      "[{x, y} | x <- <<t>>; y <- <<u>>; x = y]";
      "flatten([[x; x] | x <- <<t>>])";
      "group([{x, 1} | x <- <<t>> ++ <<u>>])";
      "max([1; 2] ++ [0])";
      "avg([1.0; 2.0; 3.0])";
      "if count(<<t>>) > 2 then 'big' else 'small'";
      "let n = count(<<t>>) in n * n";
      "count(<<t>>) > 2 and count(<<u>>) > 0";
      "count(<<t>>) = 3 or 1 / 0 = 0" (* short-circuit preserved *);
      "- count(<<t>>)";
      "not (count(<<t>>) = 0)";
      "[x | x <- <<t>> -- <<u>>]";
      "member('b', <<u>>)";
      "1 / 0" (* both must reject *);
      "sum(['a'])" (* both must reject *);
    ]

let weighted_rows rows =
  List.fold_left
    (fun b (k, n) ->
      Value.Bag.add ~count:n (v_str (Printf.sprintf "r%d" k)) b)
    Value.Bag.empty rows

let test_peval_qcheck_agrees =
  (* random small bags under a fixed query pool: the annotated
     evaluator's value projection must match the reference evaluator *)
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 5) (pair (int_range 0 3) (int_range 1 3)))
        (list_size (int_range 0 5) (pair (int_range 0 3) (int_range 1 3))))
  in
  let print (a, b) =
    let side rows =
      String.concat ","
        (List.map (fun (k, n) -> Printf.sprintf "r%d x%d" k n) rows)
    in
    side a ^ " | " ^ side b
  in
  QCheck.Test.make ~count:100 ~name:"peval agrees with eval (random bags)"
    (QCheck.make ~print gen)
    (fun (rows1, rows2) ->
      let binds =
        [
          (t_obj, weighted_rows rows1, atom "s1" t_obj);
          (u_obj, weighted_rows rows2, atom "s2" u_obj);
        ]
      in
      List.iter (check_agrees binds)
        [
          "<<t>> ++ <<u>>";
          "<<t>> -- <<u>>";
          "distinct(<<t>>)";
          "count(<<t>>) + count(<<u>>)";
          "[{x, y} | x <- <<t>>; y <- <<u>>; x = y]";
          "group([{x, x} | x <- <<t>> ++ <<u>>])";
        ];
      true)

(* -- end-to-end provenance through the processor -------------------------- *)

(* two sources contributing to one merged schema through pathways *)
let union_repo () =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (schema "s1" [ t_obj ]));
  ok (Repository.add_schema repo (schema "s2" [ t_obj ]));
  ok
    (Repository.set_extent repo ~schema:"s1" t_obj
       (bag [ v_str "a"; v_str "b" ]));
  ok
    (Repository.set_extent repo ~schema:"s2" t_obj
       (bag [ v_str "b"; v_str "c" ]));
  let into name =
    { Transform.from_schema = name; to_schema = "merged"; steps = [] }
  in
  ok (Repository.add_pathway repo (into "s1"));
  ok (Repository.add_pathway repo (into "s2"));
  repo

let test_run_provenance_end_to_end () =
  let repo = union_repo () in
  let proc = Processor.create repo in
  let query = q "<<t>>" in
  let plain = ok_p (Processor.run proc ~schema:"merged" query) in
  let ann = ok_p (Processor.run_provenance proc ~schema:"merged" query) in
  (* the answer is bit-identical to the plain run *)
  Alcotest.(check bool) "bit-identical" true
    (Value.equal plain ann.Processor.result);
  let tuple v =
    match
      List.find_opt
        (fun (tp : Processor.annotated_tuple) -> Value.equal tp.value v)
        ann.Processor.tuples
    with
    | Some tp -> tp
    | None -> Alcotest.failf "no tuple for %s" (Value.to_string v)
  in
  (* per-tuple lineage: 'a' rests on s1 only, 'b' on both *)
  let a = tuple (v_str "a") and b = tuple (v_str "b") in
  Alcotest.(check (list string)) "a cites s1" [ "s1" ]
    (Lineage.sources a.Processor.lineage);
  Alcotest.(check int) "a count" 1 a.Processor.count;
  Alcotest.(check (list string)) "b cites both" [ "s1"; "s2" ]
    (Lineage.sources b.Processor.lineage);
  Alcotest.(check int) "b count (bag union)" 2 b.Processor.count;
  (* the pathway hop is stamped *)
  Alcotest.(check bool) "hop s1->merged" true
    (List.exists
       (fun (h : Lineage.hop) -> h.pathway = "s1->merged")
       (Lineage.hops a.Processor.lineage));
  (* tamper evidence: the shipped MAC verifies, a forged lineage fails *)
  List.iter
    (fun (tp : Processor.annotated_tuple) ->
      Alcotest.(check bool) "mac verifies" true
        (Lineage.verify ~key:Processor.default_mac_key tp.value tp.lineage
           tp.mac);
      Alcotest.(check bool) "forged lineage detected" false
        (Lineage.verify ~key:Processor.default_mac_key tp.value
           (Lineage.union tp.lineage (atom "forged" u_obj))
           tp.mac))
    ann.Processor.tuples

let test_provenance_cache_interleaving () =
  (* plain and annotated runs interleave without cross-contamination *)
  let repo = union_repo () in
  let proc = Processor.create repo in
  let query = q "count(<<t>>)" in
  let p1 = ok_p (Processor.run proc ~schema:"merged" query) in
  let a1 = ok_p (Processor.run_provenance proc ~schema:"merged" query) in
  let a2 = ok_p (Processor.run_provenance proc ~schema:"merged" query) in
  let p2 = ok_p (Processor.run proc ~schema:"merged" query) in
  Alcotest.(check bool) "plain stable" true (Value.equal p1 p2);
  Alcotest.(check bool) "annotated stable" true
    (Value.equal a1.Processor.result a2.Processor.result);
  Alcotest.(check bool) "agree" true (Value.equal p1 a1.Processor.result);
  (* lineage survives the pcache round-trip *)
  Alcotest.(check bool) "cached lineage intact" true
    (Lineage.equal a1.Processor.lineage a2.Processor.lineage)

let test_aggregate_cites_empty_extent () =
  (* an aggregate over a cited-but-empty extent still cites it: the
     ambient lineage carries the atom *)
  let repo = Repository.create () in
  ok (Repository.add_schema repo (schema "src" [ t_obj ]));
  ok (Repository.set_extent repo ~schema:"src" t_obj Value.Bag.empty);
  let proc = Processor.create repo in
  let ann =
    ok_p (Processor.run_provenance proc ~schema:"src" (q "count(<<t>>)"))
  in
  Alcotest.(check string) "count 0" "0"
    (Value.to_string ann.Processor.result);
  match ann.Processor.tuples with
  | [ tp ] ->
      Alcotest.(check (list string)) "cites the empty extent" [ "src" ]
        (Lineage.sources tp.Processor.lineage)
  | tps -> Alcotest.failf "expected one tuple, got %d" (List.length tps)

(* -- sufficiency ---------------------------------------------------------- *)

(* union_repo with each stored extent kept or emptied *)
let partial_union_repo ~keep_s1 ~keep_s2 =
  let repo = Repository.create () in
  List.iter
    (fun (name, keep, rows) ->
      ok (Repository.add_schema repo (schema name [ t_obj ]));
      ok
        (Repository.set_extent repo ~schema:name t_obj
           (if keep then bag (List.map v_str rows) else Value.Bag.empty)))
    [ ("s1", keep_s1, [ "a"; "b" ]); ("s2", keep_s2, [ "b"; "c" ]) ];
  let into name =
    { Transform.from_schema = name; to_schema = "merged"; steps = [] }
  in
  ok (Repository.add_pathway repo (into "s1"));
  ok (Repository.add_pathway repo (into "s2"));
  repo

let positive_queries =
  [
    "<<t>>";
    "distinct(<<t>>)";
    "<<t>> ++ <<t>>";
    "[x | x <- <<t>>; x = 'b']";
    "[{x, y} | x <- <<t>>; y <- <<t>>; x = y]";
    "count(<<t>>)";
  ]

let test_sufficiency () =
  (* re-evaluating restricted to exactly the extents a tuple cites
     reproduces that tuple with its multiplicity (positive fragment) *)
  let proc = Processor.create (union_repo ()) in
  List.iter
    (fun text ->
      let query = q text in
      let ann =
        ok_p (Processor.run_provenance proc ~schema:"merged" query)
      in
      List.iter
        (fun (tp : Processor.annotated_tuple) ->
          let cited source =
            List.exists
              (fun (a : Lineage.atom) -> a.source = source)
              (Lineage.atoms tp.lineage)
          in
          let restricted =
            Processor.create
              (partial_union_repo ~keep_s1:(cited "s1")
                 ~keep_s2:(cited "s2"))
          in
          match ok_p (Processor.run restricted ~schema:"merged" query) with
          | Value.Bag b ->
              Alcotest.(check int)
                (Printf.sprintf "%s: %s reproduced exactly" text
                   (Value.to_string tp.value))
                tp.count
                (Value.Bag.multiplicity tp.value b)
          | v ->
              (* scalar answer: must be reproduced verbatim *)
              Alcotest.(check bool)
                (Printf.sprintf "%s: scalar reproduced" text)
                true (Value.equal v tp.value))
        ann.Processor.tuples)
    positive_queries

let test_sufficiency_qcheck =
  (* the same property under random extents *)
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 5) (int_range 0 3))
        (list_size (int_range 0 5) (int_range 0 3)))
  in
  let print (a, b) =
    Printf.sprintf "s1=[%s] s2=[%s]"
      (String.concat ";" (List.map string_of_int a))
      (String.concat ";" (List.map string_of_int b))
  in
  QCheck.Test.make ~count:60 ~name:"lineage sufficiency (random extents)"
    (QCheck.make ~print gen)
    (fun (rows1, rows2) ->
      let row k = v_str (Printf.sprintf "r%d" k) in
      let build s1 s2 =
        let repo = Repository.create () in
        List.iter
          (fun (name, rows) ->
            ok (Repository.add_schema repo (schema name [ t_obj ]));
            ok (Repository.set_extent repo ~schema:name t_obj (bag rows)))
          [ ("s1", s1); ("s2", s2) ];
        let into name =
          { Transform.from_schema = name; to_schema = "merged"; steps = [] }
        in
        ok (Repository.add_pathway repo (into "s1"));
        ok (Repository.add_pathway repo (into "s2"));
        repo
      in
      let b1 = List.map row rows1 and b2 = List.map row rows2 in
      let proc = Processor.create (build b1 b2) in
      List.for_all
        (fun text ->
          let query = q text in
          let ann =
            ok_p (Processor.run_provenance proc ~schema:"merged" query)
          in
          List.for_all
            (fun (tp : Processor.annotated_tuple) ->
              let cited source =
                List.exists
                  (fun (a : Lineage.atom) -> a.source = source)
                  (Lineage.atoms tp.lineage)
              in
              let restricted =
                Processor.create
                  (build
                     (if cited "s1" then b1 else [])
                     (if cited "s2" then b2 else []))
              in
              match
                ok_p (Processor.run restricted ~schema:"merged" query)
              with
              | Value.Bag b -> Value.Bag.multiplicity tp.value b = tp.count
              | v -> Value.equal v tp.value)
            ann.Processor.tuples)
        [ "<<t>>"; "distinct(<<t>>)"; "[x | x <- <<t>>; x = 'r1']" ])

(* -- degraded provenance: per-source impact ------------------------------- *)

let test_degraded_provenance_impact () =
  let repo = union_repo () in
  let res = Resilience.create ~policy:fail_fast () in
  Resilience.register res "s1";
  Resilience.register res "s2";
  Resilience.inject res ~source:"s2" (Fault.rate 1.0);
  let proc = Processor.create ~resilience:res repo in
  (* a comprehension, so generator ambient skips land on each tuple *)
  let query = q "[x | x <- <<t>>]" in
  let ann, c =
    ok_p (Processor.run_degraded_provenance proc ~schema:"merged" query)
  in
  Alcotest.(check bool) "incomplete" false c.Processor.complete;
  Alcotest.(check (list string)) "s2 skipped" [ "s2" ]
    (List.map fst c.Processor.sources_skipped);
  (* both of s1's tuples flowed through the bag s2 should have fed *)
  Alcotest.(check int) "impact counts affected tuples" 2
    (match List.assoc_opt "s2" c.Processor.source_impact with
    | Some n -> n
    | None -> Alcotest.fail "no impact entry for s2");
  List.iter
    (fun (tp : Processor.annotated_tuple) ->
      Alcotest.(check bool) "tuple carries the skip marker" true
        (Lineage.cites_skip "s2" tp.Processor.lineage))
    ann.Processor.tuples;
  (* recovery: a fresh run is complete and drops the markers *)
  Resilience.inject res ~source:"s2" Fault.none;
  let ann, c =
    ok_p (Processor.run_degraded_provenance proc ~schema:"merged" query)
  in
  Alcotest.(check bool) "complete after recovery" true c.Processor.complete;
  Alcotest.(check (list (pair string int))) "no impact when complete" []
    c.Processor.source_impact;
  Alcotest.(check int) "full answer" 4
    (match ann.Processor.result with
    | Value.Bag b -> Value.Bag.cardinal b
    | _ -> -1);
  List.iter
    (fun (tp : Processor.annotated_tuple) ->
      Alcotest.(check bool) "no stale skip marker" false
        (Lineage.cites_skip "s2" tp.Processor.lineage))
    ann.Processor.tuples

(* -- explain_plan --------------------------------------------------------- *)

let test_explain_plan () =
  let repo = union_repo () in
  (* a provably-dead pathway: its only definition is an empty bound *)
  ok (Repository.add_schema repo (schema "dead" []));
  ok
    (Repository.add_pathway repo
       {
         Transform.from_schema = "dead";
         to_schema = "merged";
         steps = [ Transform.Extend (t_obj, Ast.Void, Ast.Any) ];
       });
  let proc = Processor.create repo in
  let ex = ok_p (Processor.explain_plan proc ~schema:"merged" (q "<<t>>")) in
  Alcotest.(check string) "schema" "merged" ex.Processor.ex_schema;
  let root =
    match ex.Processor.ex_roots with
    | [ r ] -> r
    | rs -> Alcotest.failf "expected one root, got %d" (List.length rs)
  in
  Alcotest.(check bool) "root object" true
    (Scheme.equal t_obj root.Processor.en_object);
  Alcotest.(check bool) "not stored on merged" false root.Processor.en_stored;
  Alcotest.(check bool) "cold before any run" true
    (root.Processor.en_cached = Processor.Cache_cold);
  let decision from =
    match
      List.find_opt
        (fun (p : Processor.explain_pathway) -> p.ep_from = from)
        root.Processor.en_pathways
    with
    | Some p -> p.Processor.ep_decision
    | None -> Alcotest.failf "no pathway from %s" from
  in
  (* live pathways are applied, with stored leaves underneath *)
  (match decision "s1" with
  | Processor.Applied [ child ] ->
      Alcotest.(check string) "child schema" "s1" child.Processor.en_schema;
      Alcotest.(check bool) "child stored" true child.Processor.en_stored;
      Alcotest.(check (option int)) "child rows" (Some 2)
        child.Processor.en_rows
  | _ -> Alcotest.fail "s1 should be applied with one child");
  (* the dead pathway is pruned, with a reachability reason *)
  (match decision "dead" with
  | Processor.Pruned reason ->
      Alcotest.(check bool) "mentions reachability" true
        (contains ~sub:"reachability" reason)
  | _ -> Alcotest.fail "dead pathway should be pruned");
  (* after a provenance run, the cache state flips to hit *)
  let _ = ok_p (Processor.run_provenance proc ~schema:"merged" (q "<<t>>")) in
  let ex2 = ok_p (Processor.explain_plan proc ~schema:"merged" (q "<<t>>")) in
  (match ex2.Processor.ex_roots with
  | [ r ] ->
      Alcotest.(check bool) "cached after run" true
        (r.Processor.en_cached = Processor.Cache_hit)
  | _ -> Alcotest.fail "one root expected");
  (* the text rendering mentions the key facts *)
  let txt = Fmt.str "%a" Processor.pp_explain ex in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " in rendering") true
        (contains ~sub txt))
    [ "merged"; "PRUNED"; "applied"; "stored(2 rows)" ]

(* -- the workflow surface over the paper's case study --------------------- *)

let test_ispider_provenance_and_explain () =
  (* acceptance: all 7 case-study queries run with per-tuple lineage,
     bit-identical to the plain run, reformulate onto the sources with
     the same answer, and explain_plan tells the story without filling
     any cache *)
  let module Sources = Automed_ispider.Sources in
  let module Queries = Automed_ispider.Queries in
  let module Intersection_run = Automed_ispider.Intersection_run in
  let repo = Repository.create () in
  ok (Sources.wrap_all repo (Sources.generate ()));
  let run = ok (Intersection_run.execute repo) in
  let wf = run.Intersection_run.workflow in
  List.iter
    (fun (query : Queries.query) ->
      let text = query.Queries.global_text in
      let plain = ok_p (Workflow.run_query wf text) in
      let ann = ok_p (Workflow.run_query_provenance wf text) in
      Alcotest.(check bool)
        (Printf.sprintf "Q%d bit-identical" query.Queries.number)
        true
        (Value.equal plain ann.Processor.result);
      List.iter
        (fun (tp : Processor.annotated_tuple) ->
          Alcotest.(check bool) "tuple cites at least one source" true
            (Lineage.sources tp.Processor.lineage <> []);
          Alcotest.(check bool) "mac verifies" true
            (Lineage.verify ~key:Processor.default_mac_key tp.Processor.value
               tp.Processor.lineage tp.Processor.mac))
        ann.Processor.tuples;
      let ex = ok_p (Workflow.explain_query wf text) in
      Alcotest.(check bool) "explain has roots" true
        (ex.Processor.ex_roots <> []);
      let p = Workflow.processor wf and schema = Workflow.global_name wf in
      let reformulated = ok_p (Processor.reformulate p ~schema (q text)) in
      (match Eval.eval (Processor.source_env p) reformulated with
      | Ok v ->
          Alcotest.(check bool)
            (Printf.sprintf "Q%d reformulate = run" query.Queries.number)
            true (Value.equal plain v)
      | Error e -> Alcotest.failf "%a" Eval.pp_error e);
      let fresh = Processor.create repo in
      ignore (ok_p (Processor.explain_plan fresh ~schema (q text)));
      let again = ok_p (Processor.explain_plan fresh ~schema (q text)) in
      List.iter
        (fun (n : Processor.explain_node) ->
          Alcotest.(check bool) "explain leaves the caches cold" true
            (n.Processor.en_cached = Processor.Cache_cold))
        again.Processor.ex_roots)
    Queries.all

(* -- federated member report ---------------------------------------------- *)

let test_member_report () =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (schema "left" [ t_obj ]));
  ok (Repository.add_schema repo (schema "right" [ u_obj ]));
  ok (Repository.set_extent repo ~schema:"left" t_obj (bag [ v_str "a" ]));
  ok (Repository.set_extent repo ~schema:"right" u_obj (bag [ v_str "b" ]));
  let _ =
    ok (Federated.create repo ~name:"fed" ~members:[ "left"; "right" ])
  in
  let query = q "count(<<left:t>>)" in
  let report = ok (Federated.member_report repo ~federation:"fed" query) in
  let verdict m =
    match List.assoc_opt m report with
    | Some v -> v
    | None -> Alcotest.failf "no verdict for %s" m
  in
  (match verdict "left" with
  | Federated.Relevant why ->
      Alcotest.(check bool) "names the fed object" true
        (contains ~sub:"left:t" why)
  | Federated.Irrelevant why ->
      Alcotest.failf "left should be relevant, got: %s" why);
  (match verdict "right" with
  | Federated.Irrelevant _ -> ()
  | Federated.Relevant why ->
      Alcotest.failf "right should be irrelevant, got: %s" why);
  (* and the verdicts agree with relevant_members *)
  Alcotest.(check (list string)) "consistent with relevant_members"
    [ "left" ]
    (ok (Federated.relevant_members repo ~federation:"fed" query))

let suite =
  [
    Alcotest.test_case "lineage semilattice" `Quick test_lineage_semilattice;
    Alcotest.test_case "lineage json + mac forgery" `Quick
      test_lineage_json_and_mac;
    Alcotest.test_case "peval agrees with eval" `Quick
      test_peval_agrees_with_eval;
    QCheck_alcotest.to_alcotest test_peval_qcheck_agrees;
    Alcotest.test_case "run_provenance end to end" `Quick
      test_run_provenance_end_to_end;
    Alcotest.test_case "plain/annotated cache interleaving" `Quick
      test_provenance_cache_interleaving;
    Alcotest.test_case "aggregate cites empty extent" `Quick
      test_aggregate_cites_empty_extent;
    Alcotest.test_case "sufficiency on fixed queries" `Quick test_sufficiency;
    QCheck_alcotest.to_alcotest test_sufficiency_qcheck;
    Alcotest.test_case "degraded provenance impact" `Quick
      test_degraded_provenance_impact;
    Alcotest.test_case "explain plan" `Quick test_explain_plan;
    Alcotest.test_case "ispider provenance + explain (7 queries)" `Quick
      test_ispider_provenance_and_explain;
    Alcotest.test_case "federated member report" `Quick test_member_report;
  ]

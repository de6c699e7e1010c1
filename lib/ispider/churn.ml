module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Value = Automed_iql.Value
module Repository = Automed_repository.Repository
module Evolution = Automed_evolution.Evolution

let delta i =
  let k = string_of_int (i / 5) in
  match i mod 5 with
  | 0 ->
      let name = "sat" ^ k in
      let table = Scheme.table ("s" ^ k) in
      let schema =
        match Schema.of_objects name [ (table, None) ] with
        | Ok s -> s
        | Error e -> invalid_arg e
      in
      let rows =
        Value.Bag.of_list
          [ Value.Str (name ^ "-r1"); Value.Str (name ^ "-r2") ]
      in
      Evolution.Add_source (schema, [ (table, rows) ])
  | 1 ->
      Evolution.Alter
        ( Sources.pedro_name,
          [ Repository.Alter_add_object (Scheme.table ("tmp" ^ k), None) ] )
  | 2 ->
      Evolution.Alter
        ( Sources.pedro_name,
          [
            Repository.Alter_add_object
              (Scheme.column ("tmp" ^ k) "note", None);
          ] )
  | 3 ->
      Evolution.Alter
        ( Sources.pedro_name,
          [
            Repository.Alter_drop_object (Scheme.column ("tmp" ^ k) "note");
            Repository.Alter_rename_object
              (Scheme.table ("tmp" ^ k), Scheme.table ("kept" ^ k));
          ] )
  | _ -> Evolution.Drop_source ("sat" ^ k)

(* The deterministic source-churn script of the evolution and maintenance
   experiments (E-E1, E-M1): cycle [i] belongs to block [i/5] and plays
   one of five phases — a satellite source appears, pedro gains a scratch
   table, the table gains a column, the column is dropped and the table
   renamed, the satellite evolves away.  Each block leaves one renamed
   table behind, so the repository grows while every delta stays
   constant-sized.  No delta touches an object the seven priority queries
   read, so their ground truth holds at every cycle. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Value = Automed_iql.Value
module Repository = Automed_repository.Repository
module Evolution = Automed_evolution.Evolution
module Sources = Automed_ispider.Sources

let delta i =
  let k = string_of_int (i / 5) in
  match i mod 5 with
  | 0 ->
      let name = "sat" ^ k in
      let table = Scheme.table ("s" ^ k) in
      let schema =
        match Schema.of_objects name [ (table, None) ] with
        | Ok s -> s
        | Error e -> failwith e
      in
      let rows =
        Value.Bag.of_list [ Value.Str (name ^ "-r1"); Value.Str (name ^ "-r2") ]
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

let kind = function
  | Evolution.Add_source _ -> "add_source"
  | Evolution.Alter _ -> "alter"
  | Evolution.Drop_source _ -> "drop_source"

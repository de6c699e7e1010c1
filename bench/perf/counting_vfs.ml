(* A counting, timing decorator over [Vfs.t]: every call into the store
   is counted, its bytes summed and its wall time accumulated per kind of
   operation, so the benchmark can report what the journal costs without
   touching the durable layer itself. *)

module Vfs = Automed_durable.Vfs

type op = { mutable calls : int; mutable bytes : int; mutable ms : float }

type t = {
  vfs : Vfs.t;  (** the decorated store; hand this to [Durable] *)
  read : op;
  write : op;
  append : op;
  sync : op;
  rename : op;
}

let wrap (inner : Vfs.t) =
  let op () = { calls = 0; bytes = 0; ms = 0.0 } in
  let read = op () and write = op () and append = op () in
  let sync = op () and rename = op () in
  let timed o bytes f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    o.ms <- o.ms +. ((Unix.gettimeofday () -. t0) *. 1000.0);
    o.calls <- o.calls + 1;
    o.bytes <- o.bytes + bytes r;
    r
  in
  let none _ = 0 in
  let vfs =
    {
      inner with
      Vfs.read =
        (fun name ->
          timed read
            (function Ok s -> String.length s | Error _ -> 0)
            (fun () -> inner.Vfs.read name));
      write =
        (fun name data ->
          timed write
            (fun _ -> String.length data)
            (fun () -> inner.Vfs.write name data));
      append =
        (fun name data ->
          timed append
            (fun _ -> String.length data)
            (fun () -> inner.Vfs.append name data));
      sync = (fun name -> timed sync none (fun () -> inner.Vfs.sync name));
      rename =
        (fun ~old_name ~new_name ->
          timed rename none (fun () -> inner.Vfs.rename ~old_name ~new_name));
    }
  in
  { vfs; read; write; append; sync; rename }

(* An in-memory store keeping each file as its list of appended chunks.
   [Vfs.memory] grows a buffer by doubling, so the heap it holds jumps
   by half a megabyte when a journal crosses 512 KiB; here the heap held
   is the bytes stored, and the live-heap metric does not depend on which
   side of a power of two the seed's journal lands. *)
let memory () : Vfs.t =
  let files : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let missing name = Error (name ^ ": no such file") in
  {
    label = "memory";
    read =
      (fun name ->
        match Hashtbl.find_opt files name with
        | Some chunks -> Ok (String.concat "" (List.rev chunks))
        | None -> missing name);
    write = (fun name data -> Ok (Hashtbl.replace files name [ data ]));
    append =
      (fun name data ->
        let chunks = Option.value ~default:[] (Hashtbl.find_opt files name) in
        Ok (Hashtbl.replace files name (data :: chunks)));
    rename =
      (fun ~old_name ~new_name ->
        match Hashtbl.find_opt files old_name with
        | Some chunks ->
            Hashtbl.remove files old_name;
            Ok (Hashtbl.replace files new_name chunks)
        | None -> missing old_name);
    exists = Hashtbl.mem files;
    remove = (fun name -> Ok (Hashtbl.remove files name));
    sync = (fun _ -> Ok ());
  }

let bytes_written t = t.write.bytes + t.append.bytes

let ms t = t.read.ms +. t.write.ms +. t.append.ms +. t.sync.ms +. t.rename.ms

(* Slicing-by-8 over plain [int]s: [table.(k * 256 + n)] is the CRC of
   byte [n] followed by [k] zero bytes, so one step folds eight input
   bytes with eight lookups.  The running CRC never leaves the low 32
   bits of an [int]; [Int32] appears only at the interface. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* every index is masked to a byte within its slice *)
let lookup k n = Array.unsafe_get table ((k lsl 8) lor (n land 0xff))

let u32_le s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let digest ?(crc = 0l) s =
  let n = String.length s in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  let i = ref 0 in
  while !i + 8 <= n do
    let lo = !c lxor u32_le s !i and hi = u32_le s (!i + 4) in
    c :=
      lookup 7 lo
      lxor lookup 6 (lo lsr 8)
      lxor lookup 5 (lo lsr 16)
      lxor lookup 4 (lo lsr 24)
      lxor lookup 3 hi
      lxor lookup 2 (hi lsr 8)
      lxor lookup 1 (hi lsr 16)
      lxor lookup 0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < n do
    c := lookup 0 (!c lxor Char.code (String.unsafe_get s !i)) lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let to_hex crc = Printf.sprintf "%08lx" crc

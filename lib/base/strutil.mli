(** Small string utilities shared across the libraries. *)

val levenshtein : string -> string -> int
(** Edit distance with unit costs. *)

val similarity : string -> string -> float
(** Normalised similarity in [\[0, 1\]]: [1.0] for equal strings (after
    case-folding), decreasing with edit distance. *)

val tokens : string -> string list
(** Splits an identifier into lowercase word tokens at [_], [-], spaces and
    lower/upper camel-case boundaries: ["dbSearch_id"] is
    [["db"; "search"; "id"]]. *)

val token_overlap : string -> string -> float
(** Jaccard coefficient of the two identifiers' token sets. *)

val pad : int -> string -> string
(** [pad w s] right-pads [s] with spaces to width [w] (no truncation). *)

val starts_with : prefix:string -> string -> bool
val contains_sub : sub:string -> string -> bool

val add_list :
  Buffer.t ->
  ?enclose:string * string ->
  sep:string ->
  (Buffer.t -> 'a -> unit) ->
  'a list ->
  unit
(** [add_list buf ~enclose:(l, r) ~sep add xs] appends [l], each element
    of [xs] with [add] and [sep] between consecutive ones, then [r]
    ([enclose] defaults to nothing). *)

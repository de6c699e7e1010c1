(** A minimal JSON emitter/parser so the telemetry layer stays
    dependency-free.  The emitter side covers what the sinks and the
    Chrome-trace exporter need (escaped strings, finite numbers) plus one
    printer for whole documents, {!to_string}; the parser side is a complete RFC 8259 reader used to validate
    emitted traces and in tests. *)

val escape : string -> string
(** [escape s] is [s] as a quoted JSON string literal (quotes included). *)

val number : float -> string
(** A finite float as a valid JSON number ([nan]/[inf] become [0]). *)

val obj_suffix : string -> (string * string) list -> string
(** [obj_suffix key kvs] renders [,"key":{...}] from string pairs, or
    [""] when [kvs] is empty — for appending an optional attribute
    object to a hand-built JSON line. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parses a complete JSON document; trailing garbage is an error.
    Error messages carry a character offset. *)

val to_string : t -> string
(** [to_string v] prints [v] in one fixed, line-oriented layout: an
    object has one member per line, an array holding an array or object
    has one element per line, and everything else (every such element
    included) is on one line.  Integral numbers print without a fraction,
    other numbers with the fewest digits that parse back to them, and
    non-finite ones as [null].  The text ends with a newline and parses
    back to [v] whenever [v] has only finite numbers. *)

val member : string -> t -> t option
(** Object field lookup ([None] on non-objects too). *)

(** The typed metrics catalog: single source of truth for every
    counter and histogram name a probe emits.

    Every [Telemetry.count]/[Telemetry.observe] site in the tree must
    use a name declared here — with its kind, unit and a one-line
    description — and every declared name must still have an emit site.
    The [automed metrics check] runtest rule enforces both directions by
    scanning the sources with {!scan} and {!check}, so a probe rename
    that forgets the catalog (or a catalog entry whose probe died) fails
    the build instead of silently orphaning dashboards built on the
    name.  [automed metrics catalog] dumps the table. *)

type kind = Counter | Histogram

type decl = {
  name : string;
  kind : kind;
  unit_ : string;  (** what one increment/observation measures *)
  description : string;
  dynamic : bool;
      (** emitted through a computed name (e.g. the per-prim counters of
          [Transform.apply_prim]), so no string literal appears at the
          emit site; exempt from the orphan check *)
}

val all : decl list
(** Sorted by name; no duplicates (enforced by a test). *)

val find : string -> decl option

val kind_label : kind -> string
(** ["counter"] or ["histogram"]. *)

val to_text : unit -> string
(** Human-readable table of {!all}. *)

val to_json : unit -> Automed_telemetry.Microjson.t
(** [{"metrics":[{"name":..,"kind":..,"unit":..,"description":..},..]}] *)

(** {1 Source scanning} *)

type site = {
  s_file : string;
  s_line : int;  (** 1-based line of the [Telemetry.] token *)
  s_kind : kind;  (** [count] sites are counters, [observe] histograms *)
  s_name : string option;  (** [None] when the name is computed *)
}

val scan : file:string -> string -> site list
(** Extracts every [Telemetry.count]/[Telemetry.observe] probe site from
    OCaml source text.  Tolerates an interleaved [~by:] argument
    (identifier or parenthesised expression, possibly spanning lines);
    a site whose name argument is not a string literal is returned with
    [s_name = None]. *)

type issue =
  | Undeclared of site * string  (** emit site uses an uncatalogued name *)
  | Orphaned of decl  (** catalogue entry with no remaining emit site *)
  | Kind_mismatch of site * string * decl
      (** a [count] site on a histogram name, or [observe] on a counter *)

val pp_issue : issue Fmt.t

val check : (string * string) list -> issue list
(** [check files] scans every [(path, contents)] pair and validates the
    sites against {!all} in both directions.  Empty means clean. *)

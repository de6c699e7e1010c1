(** The deterministic evolution churn script the CLI's [maintain] and
    [compact] commands, the E-E1/E-M1 benches and the tests replay
    against the integrated iSpider dataspace.

    Cycle [i] is phase [i mod 5] of block [k = i / 5]: add a satellite
    source [satk] with one two-row table, add a scratch table [tmpk] on
    pedro, give it a [note] column, drop the column and rename the table
    to [keptk], then drop [satk] again.  Each block leaves one renamed
    table and one retired source behind, so repair debt accrues at a
    constant rate per block.  No delta touches an object the seven
    priority queries read. *)

val delta : int -> Automed_evolution.Evolution.delta

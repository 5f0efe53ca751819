(** Named fault-injection sites.

    A failpoint is a named place in production code (e.g. ["mcmf.solve"],
    ["flow3d.flow_pass"]) where a test can force a failure or a simulated
    timeout.  Sites are compiled in permanently: an un-armed {!fire} is a
    single hashtable miss on an empty table, so the hooks cost nothing in
    normal operation.

    The tests' arming API (seeded corruption, standard site names) lives
    in [test/fault.ml]; this module is only the registry, kept in
    [Tdf_util] so the low-level solvers can consult it without depending
    on the robustness layer. *)

val reset : unit -> unit
(** Disarm every site. *)

val arm : ?times:int -> ?after:int -> string -> unit
(** [arm ?times ?after site] makes calls of {!fire} on [site] return
    [true] [times] times (default 1), after first letting [after]
    (default 0) fires pass un-triggered.  The skip count lets a test or
    the chaos harness aim at e.g. {e the Kth journal append} rather than
    the next one. *)

val armed : string -> bool
(** Whether the site would fire (without consuming a charge). *)

val fire : string -> bool
(** [fire site] consumes one armed charge and returns [true], or returns
    [false] when the site is not armed. *)

val fired : string -> int
(** How many times the site has fired since the last {!reset} (armed
    charges that were consumed). *)

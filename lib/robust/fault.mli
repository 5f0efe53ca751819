(** Fault injection for exercising the resilient pipeline.

    Two kinds of faults:

    - {e forced solver failures} — arm a named {!Tdf_util.Failpoint} site
      so the next solver call errors out ([force_failure]) or exhausts its
      budget ([force_timeout]).  Sites currently honored by the solvers:
      ["mcmf.solve"], ["mcmf.timeout"], ["flow3d.flow_pass"],
      ["flow3d.timeout"].
    - {e input corruption} — [corrupt] derives a broken copy of a design
      (NaN [gp_z], positions flung outside the die window, degenerate
      nets) from a seeded {!Tdf_util.Prng} stream, for preflight tests.

    Everything is deterministic; nothing here touches global randomness.
    Call [reset] between test cases. *)

val reset : unit -> unit
(** Disarm every failpoint and clear fire counts. *)

val force_failure : ?times:int -> string -> unit
(** [force_failure site] arms [site] so its next [times] (default 1)
    executions fail with a typed error. *)

val force_timeout : ?times:int -> string -> unit
(** [force_timeout site] arms the ["<site>.timeout"] failpoint so the
    solver's budget reads as exhausted at that site, yielding a
    best-effort partial result rather than an error. *)

val fired : string -> int
(** How many injected faults actually triggered at [site]. *)

type corruption =
  | Nan_gp_z of int  (** cell id whose [gp_z] became NaN *)
  | Out_of_window of int  (** cell id thrown far outside the die window *)
  | Degenerate_net of int  (** net id reduced to a single pin *)

val corrupt :
  seed:int ->
  ?n_faults:int ->
  Tdf_netlist.Design.t ->
  Tdf_netlist.Design.t * corruption list
(** [corrupt ~seed d] is a copy of [d] with [n_faults] (default 3)
    seeded corruptions applied, plus the list of what was broken.
    Requires a design with at least one cell. *)

(** Structured errors of the resilient legalization pipeline.

    Every fatal condition that used to escape as a bare
    [assert]/[invalid_arg]/[failwith] deep inside the stack is reported as
    a value of this one type: which phase failed, which entity (cell,
    die) was involved, and a human-readable detail string.  The
    pipeline logs these, the CLI prints them as one-line diagnostics, and
    the fallback chain dispatches on them — nothing crashes mid-flow. *)

type phase =
  | Preflight  (** design validation before any solver runs *)
  | Flow  (** the 3D-Flow legalizer ({!Tdf_legalizer.Flow3d.run}) *)

val phase_name : phase -> string

type t = {
  phase : phase;
  code : string;  (** stable machine-readable slug, e.g. ["no-segment"] *)
  cell : int option;
  die : int option;
  detail : string;
}

val make : ?cell:int -> ?die:int -> phase -> code:string -> string -> t

val to_string : t -> string
(** One line: ["<phase>/<code>: <detail> (cell 12, die 0)"]. *)

val of_flow3d : Tdf_legalizer.Flow3d.error -> t

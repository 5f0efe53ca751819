(** LEF-lite: the library half of the DEF/LEF interchange
    ({!Def} is the design half).

    A pragmatic reader/writer for the LEF subset a legalization flow
    needs — placement sites and macro footprints — so designs exchanged
    as DEF against a LEF library (the OpenLane/OpenROAD open-flow
    contract) can be imported.  Grammar accepted:

    {v
    VERSION <v> ;                      (skipped)
    NAMESCASESENSITIVE <w> ;           (skipped)
    BUSBITCHARS <s> ;  DIVIDERCHAR <s> ;  MANUFACTURINGGRID <g> ;  (skipped)
    UNITS ... END UNITS                (skipped)
    PROPERTYDEFINITIONS ... END PROPERTYDEFINITIONS   (skipped)
    SITE <name>
      CLASS <class> ;  SIZE <w> BY <h> ;  SYMMETRY ... ;
    END <name>
    MACRO <name>
      CLASS <class> ;  SIZE <w> BY <h> ;
      ORIGIN ... ;  FOREIGN ... ;  SYMMETRY ... ;  SITE ... ;
      PIN <p> ... END <p>              (skipped)
      OBS ... END                      (skipped)
    END <name>
    END LIBRARY
    v}

    [#] starts a comment.  One extension comment is understood:
    [# tdflow.widths <macro> <w0> <w1> ...] gives a macro a distinct
    width per die (heterogeneous stacks); without it a macro is its
    SIZE x wide on every die.  SIZE values are integers in the same
    database units the paired DEF uses.

    Parse errors are typed ([Error "line %d: ..."]), never exceptions —
    the PR 2 error discipline shared by every reader in [lib/io]. *)

type site = {
  s_name : string;
  s_class : string;  (** e.g. ["CORE"] *)
  s_w : int;  (** SIZE x: the site width of dies placed on this site *)
  s_h : int;  (** SIZE y: the row height of dies placed on this site *)
}

type macro = {
  m_name : string;
  m_class : string;  (** ["CORE"] for cells, ["BLOCK"] for fixed macros *)
  m_w : int;  (** SIZE x *)
  m_h : int;  (** SIZE y *)
  m_widths : int array option;
      (** per-die widths from [# tdflow.widths]; [None] in a foreign LEF
          (the macro is then [m_w] wide on every die) *)
}

type t = { sites : site list; macros : macro list }

val read : string -> (t, string) result
(** Parse LEF-lite text; [Error "line %d: ..."] on malformed input. *)

val to_string : t -> string
(** Canonical form: sites then macros, each as
    [SITE/MACRO name / CLASS / SIZE / END name], a [tdflow.widths]
    comment inside every macro that carries one.  Deterministic: equal
    values render byte-identically. *)

val load : string -> (t, string) result

val save : string -> t -> unit
(** {!to_string} written to a file path with one [output]. *)

val find_site : t -> string -> site option

val find_macro : t -> string -> macro option

val read_exn : string -> t
(** Raising variant of {!read} ([Failure] with the parser diagnostic). *)

val load_exn : string -> t
(** Raising variant of {!load}; the message is prefixed with the path. *)

(** Loading a design whose dialect is not known in advance, and the
    parser-diagnostic shape every file-reading front end reports.  The CLI
    and the serve daemon both load designs through here. *)

val design : ?path:string -> string -> (Tdf_netlist.Design.t, string) result
(** Parse design text in either the native format ({!Text}) or the
    contest dialect ({!Contest}).  The first keyword that is not on a
    blank or [#] comment line decides: [NumTechnologies], [Tech] or
    [DieSize] mean the contest dialect, anything else the native format.
    An error is rewritten by {!diagnostic} with [path]. *)

val diagnostic : ?path:string -> string -> string
(** [diagnostic ~path msg] puts a parser's ["line N: ..."] message into
    the conventional ["path:N: ..."] shape editors and CI logs jump to,
    and any other message into ["path: msg"].  Without [path] the message
    is returned unchanged. *)

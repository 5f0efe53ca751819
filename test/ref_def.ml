(* Reference DEF/LEF import for the differential tests: verbatim copies
   of the token cursor, the two readers and the converter as they were
   before the cursor matched tokens in place and [Def.to_design] built
   arrays, kept only under test/ so the current ones can be checked for
   the same [Ok] value or the same [Error] string.  The LEF result and the
   design and placement are the library's own types; the DEF value keeps
   its list-of-records shape here, and [Def.of_flat] renders the
   library's flat, index-keyed value in it, so a reader is compared
   through [of_flat] and the converter is fed [of_flat] of what the
   library read.  Two changes from the verbatim copies, both made in
   the current reader too: [int_of] and [float_of] reject what is not a
   DEF decimal ({!Lex.def_int}, {!Lex.def_number}) before the stdlib
   conversion (the stdlib alone took [0x10], [1_000], [+8] and [nan]);
   and the numbers of a point, a LEF SIZE, a ROW and a [tdflow.gp] are
   converted in source order, so an error names the first bad one (a
   tuple's components are evaluated right to left). *)

module Lex : sig
    exception Parse of string
    (** Internal to {!Lef.read} / {!Def.read}; both catch it and return
        [Error] with the carried diagnostic. *)

    val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
    (** Raise {!Parse} with a formatted diagnostic. *)

    type tok = { line : int; word : string }

    (** A read position in the input, with its lookahead token and the
        extension comments passed so far. *)
    type cursor

    val cursor : string -> cursor

    val peek : cursor -> tok option
    (** [None] at end of input. *)

    val next : cursor -> string -> tok
    (** Consume one token; fails with ["unexpected end of file (in <what>)"]
        when exhausted. *)

    val expect : cursor -> string -> unit
    (** Consume one token and require it to equal the given word; at end of
        input fails with ["unexpected end of file (in \"<word>\")"]. *)

    val skip_statement : cursor -> unit
    (** Consume tokens up to and including the next [;] (for statements the
        subset recognizes but does not interpret). *)

    val extensions : cursor -> (int * string list) list
    (** Read the rest of the input and return every extension comment of the
        whole input in order: one [(line, words)] entry per comment whose
        first word starts with ["tdflow."], the ["#"] itself stripped and the
        words split like tokens. *)

    val def_int : string -> bool
    (** [-?digits] *)

    val def_number : string -> bool
    (** [-?digits[.digits][(e|E)[+-]digits]] *)

    val int_of : line:int -> string -> int
    val float_of : line:int -> string -> float
end = struct
  exception Parse of string

  let fail fmt = Format.kasprintf (fun s -> raise (Parse s)) fmt

  type tok = { line : int; word : string }

  type cursor = {
    text : string;
    mutable pos : int;  (* next unread byte *)
    mutable line : int;  (* line of text.[pos] *)
    mutable ahead : tok option;  (* a token peeked but not consumed *)
    mutable exts : (int * string list) list;  (* reversed *)
  }

  let cursor text = { text; pos = 0; line = 1; ahead = None; exts = [] }

  (* Byte classes.  Blanks are space, tab and carriage return, plus the
     newline, which also counts lines.  `(`, `)` and `;` are tokens of their
     own even when glued to a neighbour, so `(24 32)` lexes like
     `( 24 32 )`.  '#' starts a comment in code and is an ordinary byte
     inside one. *)
  let word_byte = 'w' and blank = 'b' and newline = 'n' and punct = 'p' and hash = 'h'

  let classes =
    String.init 256 (fun i ->
        match Char.chr i with
        | ' ' | '\t' | '\r' -> blank
        | '\n' -> newline
        | '(' | ')' | ';' -> punct
        | '#' -> hash
        | _ -> word_byte)

  let class_of c = String.unsafe_get classes (Char.code c)

  let punct_word = function '(' -> "(" | ')' -> ")" | _ -> ";"

  (* End of the word starting at i: the next byte of another class, or
     [stop]. *)
  let word_end text i stop ~in_comment =
    let j = ref i in
    while
      !j < stop
      &&
      let k = class_of (String.unsafe_get text !j) in
      k = word_byte || (in_comment && k = hash)
    do
      incr j
    done;
    !j

  (* The words of the comment body text.[i, stop), split like code. *)
  let comment_words text i stop =
    let rec go acc i =
      if i >= stop then List.rev acc
      else
        let k = class_of text.[i] in
        if k = blank then go acc (i + 1)
        else if k = punct then go (punct_word text.[i] :: acc) (i + 1)
        else
          let j = word_end text i stop ~in_comment:true in
          go (String.sub text i (j - i) :: acc) j
    in
    go [] i

  let is_ext text i stop = i + 7 <= stop && String.sub text i 7 = "tdflow."

  (* Consume the comment whose '#' is at [cur.pos], up to the end of its
     line, recording it when its first word starts with "tdflow.". *)
  let comment cur =
    let text = cur.text in
    let stop =
      match String.index_from_opt text cur.pos '\n' with
      | Some j -> j
      | None -> String.length text
    in
    let first = ref (cur.pos + 1) in
    while !first < stop && class_of text.[!first] = blank do
      incr first
    done;
    if is_ext text !first stop then
      cur.exts <- (cur.line, comment_words text !first stop) :: cur.exts;
    cur.pos <- stop

  let rec scan cur =
    let text = cur.text and i = cur.pos in
    if i >= String.length text then None
    else
      let c = String.unsafe_get text i in
      let k = class_of c in
      if k = blank then begin
        cur.pos <- i + 1;
        scan cur
      end
      else if k = newline then begin
        cur.line <- cur.line + 1;
        cur.pos <- i + 1;
        scan cur
      end
      else if k = hash then begin
        comment cur;
        scan cur
      end
      else if k = punct then begin
        cur.pos <- i + 1;
        Some { line = cur.line; word = punct_word c }
      end
      else
        let j = word_end text i (String.length text) ~in_comment:false in
        cur.pos <- j;
        Some { line = cur.line; word = String.sub text i (j - i) }

  let peek cur =
    match cur.ahead with
    | Some _ as t -> t
    | None ->
      let t = scan cur in
      cur.ahead <- t;
      t

  let next cur what =
    match peek cur with
    | Some t ->
      cur.ahead <- None;
      t
    | None -> fail "unexpected end of file (in %s)" what

  (* The diagnostic is formatted only on failure: [expect] runs for most
     punctuation tokens of a file. *)
  let expect cur w =
    match peek cur with
    | Some t ->
      cur.ahead <- None;
      if t.word <> w then fail "line %d: expected %S, got %S" t.line w t.word
    | None -> fail "unexpected end of file (in %S)" w

  let rec skip_statement cur =
    let t = next cur "statement" in
    if t.word <> ";" then skip_statement cur

  let extensions cur =
    let rec drain () = match scan cur with Some _ -> drain () | None -> () in
    drain ();
    cur.ahead <- None;
    List.rev cur.exts

  (* end of the run of digits starting at [i] *)
  let rec digits s i =
    if i < String.length s && s.[i] >= '0' && s.[i] <= '9' then digits s (i + 1)
    else i

  let sign s = if s <> "" && s.[0] = '-' then 1 else 0

  let def_int s =
    let i = sign s in
    let j = digits s i in
    j > i && j = String.length s

  let def_number s =
    let n = String.length s and i = sign s in
    let j = digits s i in
    (* past the fraction, or -1 when the form is already wrong *)
    let j =
      if j = i then -1
      else if j < n && s.[j] = '.' then
        let k = digits s (j + 1) in
        if k > j + 1 then k else -1
      else j
    in
    if j < 0 then false
    else if j < n && (s.[j] = 'e' || s.[j] = 'E') then
      let k = if j + 1 < n && (s.[j + 1] = '+' || s.[j + 1] = '-') then j + 2 else j + 1 in
      let l = digits s k in
      l > k && l = n
    else j = n

  let int_of ~line s =
    match if def_int s then int_of_string_opt s else None with
    | Some v -> v
    | None -> fail "line %d: expected integer, got %S" line s

  let float_of ~line s =
    match if def_number s then float_of_string_opt s else None with
    | Some v -> v
    | None -> fail "line %d: expected number, got %S" line s
end

module Lef = struct
  open Lex

  type site = Tdf_def_lef.Lef.site = {
    s_name : string;
    s_class : string;
    s_w : int;
    s_h : int;
  }

  type macro = Tdf_def_lef.Lef.macro = {
    m_name : string;
    m_class : string;
    m_w : int;
    m_h : int;
    m_widths : int array option;
  }

  type t = Tdf_def_lef.Lef.t = { sites : site list; macros : macro list }

  (* SIZE <w> BY <h> ; *)
  let parse_size cur =
    let w = next cur "SIZE" in
    expect cur "BY";
    let h = next cur "SIZE" in
    expect cur ";";
    let w = int_of ~line:w.line w.word in
    let h = int_of ~line:h.line h.word in
    (w, h)

  (* Body shared by SITE and MACRO up to END <name>; returns (class, size).
     [skip_blocks] enables the MACRO-only nested PIN/OBS constructs. *)
  let parse_body cur ~what ~name ~skip_blocks =
    let cls = ref "" and size = ref None in
    let rec loop () =
      let t = next cur what in
      match t.word with
      | "END" ->
        let e = next cur "END" in
        if e.word <> name then
          fail "line %d: END %s does not close %s %s" e.line e.word what name
      | "CLASS" ->
        let c = next cur "CLASS" in
        expect cur ";";
        cls := c.word;
        loop ()
      | "SIZE" ->
        size := Some (parse_size cur);
        loop ()
      | "SYMMETRY" | "ORIGIN" | "FOREIGN" | "SITE" ->
        skip_statement cur;
        loop ()
      | "PIN" when skip_blocks ->
        (* PIN <p> ... END <p> *)
        let p = next cur "PIN" in
        let rec skip_pin () =
          let t = next cur "PIN block" in
          if t.word = "END" then begin
            let e = next cur "END" in
            if e.word <> p.word then skip_pin ()
          end
          else skip_pin ()
        in
        skip_pin ();
        loop ()
      | "OBS" when skip_blocks ->
        let rec skip_obs () =
          let t = next cur "OBS block" in
          if t.word <> "END" then skip_obs ()
        in
        skip_obs ();
        loop ()
      | w -> fail "line %d: unrecognized %s statement %S" t.line what w
    in
    loop ();
    match !size with
    | Some (w, h) -> (!cls, w, h)
    | None -> fail "%s %s: missing SIZE" what name

  let parse cur exts =
    let sites = ref [] and macros = ref [] in
    let widths_of = Hashtbl.create 8 in
    List.iter
      (fun (line, ws) ->
        match ws with
        | "tdflow.widths" :: name :: (_ :: _ as rest) ->
          Hashtbl.replace widths_of name
            (Array.of_list (List.map (int_of ~line) rest))
        | "tdflow.widths" :: _ ->
          fail "line %d: tdflow.widths needs a macro name and widths" line
        | kw :: _ -> fail "line %d: unknown extension comment %S" line kw
        | [] -> ())
      exts;
    let rec loop () =
      let t = next cur "library" in
      match t.word with
      | "END" ->
        expect cur "LIBRARY";
        (match peek cur with
        | Some t -> fail "line %d: trailing tokens after END LIBRARY" t.line
        | None -> ())
      | "VERSION" | "NAMESCASESENSITIVE" | "BUSBITCHARS" | "DIVIDERCHAR"
      | "MANUFACTURINGGRID" ->
        skip_statement cur;
        loop ()
      | "UNITS" ->
        let rec skip () =
          let t = next cur "UNITS block" in
          if t.word = "END" then expect cur "UNITS" else skip ()
        in
        skip ();
        loop ()
      | "PROPERTYDEFINITIONS" ->
        let rec skip () =
          let t = next cur "PROPERTYDEFINITIONS block" in
          if t.word = "END" then expect cur "PROPERTYDEFINITIONS" else skip ()
        in
        skip ();
        loop ()
      | "SITE" ->
        let name = (next cur "SITE").word in
        let s_class, s_w, s_h =
          parse_body cur ~what:"SITE" ~name ~skip_blocks:false
        in
        if s_w <= 0 || s_h <= 0 then
          fail "line %d: SITE %s has a non-positive SIZE" t.line name;
        sites := { s_name = name; s_class; s_w; s_h } :: !sites;
        loop ()
      | "MACRO" ->
        let name = (next cur "MACRO").word in
        let m_class, m_w, m_h =
          parse_body cur ~what:"MACRO" ~name ~skip_blocks:true
        in
        if m_w <= 0 || m_h <= 0 then
          fail "line %d: MACRO %s has a non-positive SIZE" t.line name;
        macros :=
          {
            m_name = name;
            m_class;
            m_w;
            m_h;
            m_widths = Hashtbl.find_opt widths_of name;
          }
          :: !macros;
        loop ()
      | w -> fail "line %d: unrecognized library statement %S" t.line w
    in
    loop ();
    (* A widths comment naming an absent macro is a typo worth catching. *)
    Hashtbl.iter
      (fun name _ ->
        if not (List.exists (fun m -> m.m_name = name) !macros) then
          fail "tdflow.widths names unknown macro %S" name)
      widths_of;
    List.iter
      (fun m ->
        match m.m_widths with
        | Some ws when Array.exists (fun w -> w <= 0) ws ->
          fail "macro %s: tdflow.widths must be positive" m.m_name
        | _ -> ())
      !macros;
    { sites = List.rev !sites; macros = List.rev !macros }

  (* The widths comments are read before the body, so an extension error
     is reported ahead of a body error wherever the two sit in the file. *)
  let read text =
    try
      let exts = extensions (cursor text) in
      Ok (parse (cursor text) exts)
    with Parse msg -> Error msg

  let find_site t name = List.find_opt (fun s -> s.s_name = name) t.sites

  let find_macro t name = List.find_opt (fun m -> m.m_name = name) t.macros
end

module Def = struct
  open Lex
  module Rect = Tdf_geometry.Rect
  module Die = Tdf_netlist.Die
  module Cell = Tdf_netlist.Cell
  module Blockage = Tdf_netlist.Blockage
  module Net = Tdf_netlist.Net
  module Design = Tdf_netlist.Design
  module Placement = Tdf_netlist.Placement

  type status = Tdf_def_lef.Def.status = Placed | Fixed | Unplaced

  type component = {
    c_name : string;
    c_macro : string;
    c_status : status;
    c_x : int;
    c_y : int;
    c_orient : string;
  }

  type pin = Tdf_def_lef.Def.pin = {
    p_name : string;
    p_net : string;
    p_dir : string;
    p_use : string;
    p_status : status;
    p_x : int;
    p_y : int;
    p_orient : string;
  }

  type pin_ref = Comp of string * string | External of string

  type net = { n_name : string; n_pins : pin_ref list }

  type row = Tdf_def_lef.Def.row = {
    r_name : string;
    r_site : string;
    r_x : int;
    r_y : int;
    r_orient : string;
    r_count : int;
    r_step : int;
  }

  type t = {
    design : string;
    units : int;
    diearea : Rect.t;
    rows : row list;
    components : component list;
    pins : pin list;
    nets : net list;
    blockages : Rect.t list;
    die : int option;
    n_dies : int option;
    max_util : float option;
    gp : (string * (int * int * float * float)) list;
  }

  (* ( <x> <y> ) *)
  let parse_point cur =
    expect cur "(";
    let x = next cur "point" in
    let y = next cur "point" in
    expect cur ")";
    let x = int_of ~line:x.line x.word in
    let y = int_of ~line:y.line y.word in
    (x, y)

  (* PLACED/FIXED ( x y ) <orient>, or UNPLACED. *)
  let parse_status cur t =
    match t.word with
    | "PLACED" | "FIXED" ->
      let x, y = parse_point cur in
      let o = next cur "orientation" in
      ((if t.word = "FIXED" then Fixed else Placed), x, y, o.word)
    | "UNPLACED" -> (Unplaced, 0, 0, "N")
    | w -> fail "line %d: expected PLACED, FIXED or UNPLACED, got %S" t.line w

  let check_count ~line what declared found =
    if declared <> found then
      fail "line %d: %s declared %d entries, found %d" line what declared found

  let parse_components cur ~line n =
    let comps = ref [] in
    let rec loop () =
      let t = next cur "COMPONENTS" in
      match t.word with
      | "END" -> expect cur "COMPONENTS"
      | "-" ->
        let name = (next cur "component name").word in
        let mac = (next cur "component macro").word in
        let t2 = next cur "component" in
        let status, x, y, orient =
          match t2.word with
          | ";" -> (Unplaced, 0, 0, "N")
          | "+" ->
            let r = parse_status cur (next cur "placement status") in
            expect cur ";";
            r
          | w ->
            fail "line %d: expected + or ; in component %s, got %S" t2.line name
              w
        in
        comps :=
          {
            c_name = name;
            c_macro = mac;
            c_status = status;
            c_x = x;
            c_y = y;
            c_orient = orient;
          }
          :: !comps;
        loop ()
      | w -> fail "line %d: expected - or END COMPONENTS, got %S" t.line w
    in
    loop ();
    let comps = List.rev !comps in
    check_count ~line "COMPONENTS" n (List.length comps);
    comps

  let parse_pins cur ~line n =
    let pins = ref [] in
    let rec entry p =
      let t = next cur "PINS" in
      match t.word with
      | ";" -> p
      | "+" -> (
        let k = next cur "pin option" in
        match k.word with
        | "NET" -> entry { p with p_net = (next cur "NET").word }
        | "DIRECTION" -> entry { p with p_dir = (next cur "DIRECTION").word }
        | "USE" -> entry { p with p_use = (next cur "USE").word }
        | "PLACED" | "FIXED" ->
          let x, y = parse_point cur in
          let o = next cur "orientation" in
          entry
            {
              p with
              p_status = (if k.word = "FIXED" then Fixed else Placed);
              p_x = x;
              p_y = y;
              p_orient = o.word;
            }
        | "LAYER" ->
          (* + LAYER <name> ( x y ) ( x y ): not modeled; skip the group. *)
          let rec skip () =
            match peek cur with
            | Some t when t.word <> "+" && t.word <> ";" ->
              ignore (next cur "LAYER");
              skip ()
            | Some _ -> ()
            | None -> fail "unexpected end of file (in PINS)"
          in
          skip ();
          entry p
        | w -> fail "line %d: unrecognized pin option %S" k.line w)
      | w -> fail "line %d: expected + or ; in pin %s, got %S" t.line p.p_name w
    in
    let rec loop () =
      let t = next cur "PINS" in
      match t.word with
      | "END" -> expect cur "PINS"
      | "-" ->
        let name = (next cur "pin name").word in
        pins :=
          entry
            {
              p_name = name;
              p_net = "";
              p_dir = "";
              p_use = "";
              p_status = Unplaced;
              p_x = 0;
              p_y = 0;
              p_orient = "N";
            }
          :: !pins;
        loop ()
      | w -> fail "line %d: expected - or END PINS, got %S" t.line w
    in
    loop ();
    let pins = List.rev !pins in
    check_count ~line "PINS" n (List.length pins);
    pins

  let parse_nets cur ~line n =
    let nets = ref [] in
    let rec pins_of acc =
      let t = next cur "NETS" in
      match t.word with
      | ";" -> List.rev acc
      | "(" ->
        let a = next cur "net pin" in
        let r =
          if a.word = "PIN" then External (next cur "net pin").word
          else Comp (a.word, (next cur "net pin").word)
        in
        expect cur ")";
        pins_of (r :: acc)
      | w -> fail "line %d: expected ( or ; in net, got %S" t.line w
    in
    let rec loop () =
      let t = next cur "NETS" in
      match t.word with
      | "END" -> expect cur "NETS"
      | "-" ->
        let name = (next cur "net name").word in
        nets := { n_name = name; n_pins = pins_of [] } :: !nets;
        loop ()
      | w -> fail "line %d: expected - or END NETS, got %S" t.line w
    in
    loop ();
    let nets = List.rev !nets in
    check_count ~line "NETS" n (List.length nets);
    nets

  let parse_blockages cur ~line n =
    let rects = ref [] and entries = ref 0 in
    let rec rects_of () =
      let t = next cur "BLOCKAGES" in
      match t.word with
      | ";" -> ()
      | "RECT" ->
        let x1, y1 = parse_point cur in
        let x2, y2 = parse_point cur in
        if x2 <= x1 || y2 <= y1 then
          fail "line %d: blockage RECT is not a positive box" t.line;
        rects := Rect.make ~x:x1 ~y:y1 ~w:(x2 - x1) ~h:(y2 - y1) :: !rects;
        rects_of ()
      | w -> fail "line %d: expected RECT or ; in blockage, got %S" t.line w
    in
    let rec loop () =
      let t = next cur "BLOCKAGES" in
      match t.word with
      | "END" -> expect cur "BLOCKAGES"
      | "-" ->
        expect cur "PLACEMENT";
        incr entries;
        rects_of ();
        loop ()
      | w -> fail "line %d: expected - or END BLOCKAGES, got %S" t.line w
    in
    loop ();
    check_count ~line "BLOCKAGES" n !entries;
    List.rev !rects

  let parse cur =
    let design = ref None
    and units = ref None
    and diearea = ref None
    and rows = ref []
    and comps = ref None
    and pins = ref None
    and nets = ref None
    and blocks = ref None in
    let section what stored parse_fn t =
      let nt = next cur what in
      let n = int_of ~line:nt.line nt.word in
      expect cur ";";
      if !stored <> None then fail "line %d: duplicate %s section" t.line what;
      stored := Some (parse_fn cur ~line:t.line n)
    in
    let rec loop () =
      let t = next cur "design" in
      match t.word with
      | "VERSION" | "DIVIDERCHAR" | "BUSBITCHARS" ->
        skip_statement cur;
        loop ()
      | "DESIGN" ->
        let n = next cur "DESIGN" in
        expect cur ";";
        if !design <> None then fail "line %d: duplicate DESIGN" t.line;
        design := Some n.word;
        loop ()
      | "UNITS" ->
        expect cur "DISTANCE";
        expect cur "MICRONS";
        let u = next cur "UNITS" in
        expect cur ";";
        units := Some (int_of ~line:u.line u.word);
        loop ()
      | "DIEAREA" ->
        let x1, y1 = parse_point cur in
        let x2, y2 = parse_point cur in
        expect cur ";";
        if x2 <= x1 || y2 <= y1 then
          fail "line %d: DIEAREA is not a positive two-point box" t.line;
        diearea := Some (Rect.make ~x:x1 ~y:y1 ~w:(x2 - x1) ~h:(y2 - y1));
        loop ()
      | "ROW" ->
        let name = (next cur "ROW name").word in
        let site = (next cur "ROW site").word in
        let xt = next cur "ROW" in
        let yt = next cur "ROW" in
        let orient = (next cur "ROW orientation").word in
        expect cur "DO";
        let ct = next cur "ROW count" in
        expect cur "BY";
        let bt = next cur "ROW" in
        let x = int_of ~line:xt.line xt.word in
        let y = int_of ~line:yt.line yt.word in
        let count = int_of ~line:ct.line ct.word in
        if int_of ~line:bt.line bt.word <> 1 then
          fail "line %d: ROW %s: only DO <n> BY 1 rows are in the subset"
            t.line name;
        let step =
          match peek cur with
          | Some { word = "STEP"; _ } ->
            ignore (next cur "STEP");
            let sx = next cur "STEP" in
            let _sy = next cur "STEP" in
            int_of ~line:sx.line sx.word
          | _ -> 0
        in
        expect cur ";";
        rows :=
          {
            r_name = name;
            r_site = site;
            r_x = x;
            r_y = y;
            r_orient = orient;
            r_count = count;
            r_step = step;
          }
          :: !rows;
        loop ()
      | "COMPONENTS" ->
        section "COMPONENTS" comps parse_components t;
        loop ()
      | "PINS" ->
        section "PINS" pins parse_pins t;
        loop ()
      | "NETS" ->
        section "NETS" nets parse_nets t;
        loop ()
      | "BLOCKAGES" ->
        section "BLOCKAGES" blocks parse_blockages t;
        loop ()
      | "END" ->
        expect cur "DESIGN";
        (match peek cur with
        | Some t -> fail "line %d: trailing tokens after END DESIGN" t.line
        | None -> ())
      | w ->
        fail
          "line %d: unrecognized design statement %S (outside the DEF-lite \
           subset; see lib/io/def_lef/def.mli)"
          t.line w
    in
    loop ();
    (* Extension comments are checked after the body and its trailing-token
       check, so a body error is reported ahead of an extension error. *)
    let die = ref None
    and n_dies = ref None
    and max_util = ref None
    and gp = ref [] in
    List.iter
      (fun (line, ws) ->
        match ws with
        | [ "tdflow.die"; i; "of"; n ] ->
          die := Some (int_of ~line i);
          n_dies := Some (int_of ~line n)
        | "tdflow.die" :: _ ->
          fail "line %d: tdflow.die wants '# tdflow.die <i> of <n>'" line
        | [ "tdflow.max_util"; u ] -> max_util := Some (float_of ~line u)
        | "tdflow.max_util" :: _ ->
          fail "line %d: tdflow.max_util wants one number" line
        | [ "tdflow.gp"; name; x; y; z ] ->
          let x = int_of ~line x in
          let y = int_of ~line y in
          let z = float_of ~line z in
          gp := (name, (x, y, z, 1.0)) :: !gp
        | [ "tdflow.gp"; name; x; y; z; w ] ->
          let x = int_of ~line x in
          let y = int_of ~line y in
          let z = float_of ~line z in
          let w = float_of ~line w in
          gp := (name, (x, y, z, w)) :: !gp
        | "tdflow.gp" :: _ ->
          fail "line %d: tdflow.gp wants '<comp> <x> <y> <z> [<weight>]'" line
        | kw :: _ -> fail "line %d: unknown extension comment %S" line kw
        | [] -> ())
      (extensions cur);
    {
      design =
        (match !design with
        | Some d -> d
        | None -> fail "missing DESIGN statement");
      units = Option.value !units ~default:1000;
      diearea =
        (match !diearea with
        | Some a -> a
        | None -> fail "missing DIEAREA statement");
      rows = List.rev !rows;
      components = Option.value !comps ~default:[];
      pins = Option.value !pins ~default:[];
      nets = Option.value !nets ~default:[];
      blockages = Option.value !blocks ~default:[];
      die = !die;
      n_dies = !n_dies;
      max_util = !max_util;
      gp = List.rev !gp;
    }

  let read text = try Ok (parse (cursor text)) with Parse msg -> Error msg

  (* The library's flat value in this module's shape, for comparing the
     two readers and for feeding this converter what the library read. *)
  let of_flat (d : Tdf_def_lef.Def.t) =
    let module F = Tdf_def_lef.Def in
    let name k = d.F.names.(k) in
    {
      design = d.F.design;
      units = d.F.units;
      diearea = d.F.diearea;
      rows = d.F.rows;
      components =
        List.init (Array.length d.F.comp_name) (fun j ->
            {
              c_name = name d.F.comp_name.(j);
              c_macro = name d.F.comp_macro.(j);
              c_status = d.F.comp_status.(j);
              c_x = d.F.comp_x.(j);
              c_y = d.F.comp_y.(j);
              c_orient = (if d.F.comp_orient.(j) < 0 then "N" else name d.F.comp_orient.(j));
            });
      pins = d.F.pins;
      nets =
        List.init (Array.length d.F.net_name) (fun k ->
            {
              n_name = name d.F.net_name.(k);
              n_pins =
                List.init
                  (d.F.net_start.(k + 1) - d.F.net_start.(k))
                  (fun q ->
                    let e = d.F.net_start.(k) + q in
                    if d.F.net_comp.(e) < 0 then External (name d.F.net_pin.(e))
                    else Comp (name d.F.net_comp.(e), name d.F.net_pin.(e)));
            });
      blockages = d.F.blockages;
      die = d.F.die;
      n_dies = d.F.n_dies;
      max_util = d.F.max_util;
      gp =
        List.init (Array.length d.F.gp_comp) (fun g ->
            ( name d.F.gp_comp.(g),
              (d.F.gp_x.(g), d.F.gp_y.(g), d.F.gp_z.(g), d.F.gp_w.(g)) ));
    }

  let to_design ~lef defs =
    try
      if defs = [] then fail "no DEF files to import";
      let n = List.length defs in
      (* Die pairing: tdflow.die tags (all files or none), else list order. *)
      let tagged = List.length (List.filter (fun d -> d.die <> None) defs) in
      let indexed =
        if tagged = 0 then List.mapi (fun i d -> (i, d)) defs
        else if tagged = n then List.map (fun d -> (Option.get d.die, d)) defs
        else fail "a tdflow.die tag is present in some DEF files but not all"
      in
      let seen = Array.make n false in
      List.iter
        (fun (i, d) ->
          if i < 0 || i >= n then
            fail "%s: tdflow.die %d out of range for %d DEF files" d.design i n;
          if seen.(i) then fail "two DEF files claim die %d" i;
          seen.(i) <- true;
          match d.n_dies with
          | Some m when m <> n ->
            fail "%s: tdflow.die says %d dies but %d DEF files were given"
              d.design m n
          | _ -> ())
        indexed;
      let indexed = List.sort (fun (a, _) (b, _) -> compare a b) indexed in
      let d0 = snd (List.hd indexed) in
      List.iter
        (fun (_, d) ->
          if d.units <> d0.units then
            fail "DEF files disagree on UNITS (%d vs %d)" d0.units d.units;
          if d.design <> d0.design then
            fail "DEF files disagree on DESIGN (%s vs %s)" d0.design d.design)
        (List.tl indexed);
      let dies =
        indexed
        |> List.map (fun (i, d) ->
               let site =
                 match d.rows with
                 | [] ->
                   fail "die %d: no ROW statement; cannot derive row geometry"
                     i
                 | r0 :: rest ->
                   List.iter
                     (fun r ->
                       if r.r_site <> r0.r_site then
                         fail "die %d: rows reference different sites (%s vs %s)"
                           i r0.r_site r.r_site)
                     rest;
                   (match Lef.find_site lef r0.r_site with
                   | Some s -> s
                   | None -> fail "die %d: site %s is not in the LEF" i r0.r_site)
               in
               List.iter
                 (fun r ->
                   if r.r_step > 0 && r.r_step <> site.Lef.s_w then
                     fail "die %d: ROW %s STEP %d does not match site %s width %d"
                       i r.r_name r.r_step site.Lef.s_name site.Lef.s_w)
                 d.rows;
               let max_util = Option.value d.max_util ~default:1.0 in
               if not (max_util > 0. && max_util <= 1.0) then
                 fail "die %d: max_util %g outside (0, 1]" i max_util;
               Die.make ~index:i ~outline:d.diearea ~row_height:site.Lef.s_h
                 ~site_width:site.Lef.s_w ~max_util ())
        |> Array.of_list
      in
      let gp_of = Hashtbl.create 256 in
      List.iter
        (fun (_, d) ->
          List.iter
            (fun (name, g) ->
              if Hashtbl.mem gp_of name then
                fail "duplicate tdflow.gp for component %S" name;
              Hashtbl.replace gp_of name g)
            d.gp)
        indexed;
      (* Components: PLACED/UNPLACED become cells (ids in die-then-file
         order), FIXED become blockages; the PLACEMENT blockage rects of
         every file follow the fixed components. *)
      let cells = ref [] and blocks = ref [] in
      let name_to_id = Hashtbl.create 256 in
      let next_cell = ref 0 in
      List.iter
        (fun (i, d) ->
          let die = dies.(i) in
          let o = die.Die.outline in
          List.iter
            (fun c ->
              if Hashtbl.mem name_to_id c.c_name then
                fail "component %S appears more than once across the DEF files"
                  c.c_name;
              let m =
                match Lef.find_macro lef c.c_macro with
                | Some m -> m
                | None ->
                  fail "component %s: macro %s is not in the LEF" c.c_name
                    c.c_macro
              in
              match c.c_status with
              | Fixed ->
                (* pre-placed macros are blockages for the legalizer (§II-B) *)
                Hashtbl.replace name_to_id c.c_name (-1);
                blocks :=
                  ( i,
                    c.c_name,
                    Rect.make ~x:c.c_x ~y:c.c_y ~w:m.Lef.m_w ~h:m.Lef.m_h )
                  :: !blocks
              | Placed | Unplaced ->
                if m.Lef.m_class = "BLOCK" then
                  fail "component %s: BLOCK macro %s must be FIXED" c.c_name
                    c.c_macro;
                let widths =
                  match m.Lef.m_widths with
                  | Some ws ->
                    if Array.length ws <> n then
                      fail "macro %s: tdflow.widths has %d entries for %d dies"
                        c.c_macro (Array.length ws) n;
                    Array.copy ws
                  | None ->
                    if m.Lef.m_h <> die.Die.row_height then
                      fail
                        "component %s: macro %s height %d does not match die \
                         %d row height %d"
                        c.c_name c.c_macro m.Lef.m_h i die.Die.row_height;
                    Array.make n m.Lef.m_w
                in
                let gp = Hashtbl.find_opt gp_of c.c_name in
                let cx, cy =
                  match (c.c_status, gp) with
                  | Placed, _ -> (c.c_x, c.c_y)
                  | Unplaced, Some (gx, gy, _, _) -> (gx, gy)
                  | Unplaced, None ->
                    (o.Rect.x + (o.Rect.w / 2), o.Rect.y + (o.Rect.h / 2))
                  | Fixed, _ -> assert false
                in
                let gp_x, gp_y, gp_z, weight =
                  match gp with
                  | Some g -> g
                  | None -> (cx, cy, float_of_int i, 1.0)
                in
                let id = !next_cell in
                incr next_cell;
                Hashtbl.replace name_to_id c.c_name id;
                cells :=
                  (id, c.c_name, widths, gp_x, gp_y, gp_z, weight, cx, cy, i)
                  :: !cells)
            d.components)
        indexed;
      Hashtbl.iter
        (fun name _ ->
          match Hashtbl.find_opt name_to_id name with
          | Some id when id >= 0 -> ()
          | Some _ -> fail "tdflow.gp names fixed component %S" name
          | None -> fail "tdflow.gp names unknown component %S" name)
        gp_of;
      List.iter
        (fun (i, d) ->
          List.iteri
            (fun j r -> blocks := (i, Printf.sprintf "blk_d%d_%d" i j, r) :: !blocks)
            d.blockages)
        indexed;
      let macros =
        List.rev !blocks
        |> List.mapi (fun id (die, name, rect) ->
               Blockage.make ~id ~name ~die ~rect ())
        |> Array.of_list
      in
      (* Nets merge across files by name (first appearance fixes the id);
         connections to external pins or fixed macros carry no movable
         cell and are dropped, as are nets left with no pin at all. *)
      let net_tbl = Hashtbl.create 64 and net_order = ref [] in
      List.iter
        (fun (_, d) ->
          List.iter
            (fun nt ->
              let resolved =
                List.filter_map
                  (function
                    | Comp (comp, _) -> (
                      match Hashtbl.find_opt name_to_id comp with
                      | Some id when id >= 0 -> Some id
                      | Some _ -> None
                      | None ->
                        fail "net %s references unknown component %s" nt.n_name
                          comp)
                    | External _ -> None)
                  nt.n_pins
              in
              match Hashtbl.find_opt net_tbl nt.n_name with
              | Some prev -> Hashtbl.replace net_tbl nt.n_name (prev @ resolved)
              | None ->
                net_order := nt.n_name :: !net_order;
                Hashtbl.replace net_tbl nt.n_name resolved)
            d.nets)
        indexed;
      let nets =
        List.rev !net_order
        |> List.filter_map (fun name ->
               match Hashtbl.find net_tbl name with
               | [] -> None
               | pins -> Some (name, Array.of_list pins))
        |> List.mapi (fun id (name, pins) -> Net.make ~id ~name ~pins ())
        |> Array.of_list
      in
      let cells_l = List.rev !cells in
      let cells_a =
        cells_l
        |> List.map (fun (id, name, widths, gx, gy, gz, wt, _, _, _) ->
               Cell.make ~id ~name ~weight:wt ~widths ~gp_x:gx ~gp_y:gy ~gp_z:gz
                 ())
        |> Array.of_list
      in
      let design =
        Design.make ~name:d0.design ~dies ~cells:cells_a ~macros ~nets ()
      in
      let nc = Array.length cells_a in
      let px = Array.make nc 0 and py = Array.make nc 0 and pd = Array.make nc 0 in
      List.iter
        (fun (id, _, _, _, _, _, _, cx, cy, die) ->
          px.(id) <- cx;
          py.(id) <- cy;
          pd.(id) <- die)
        cells_l;
      let placement = { Placement.x = px; y = py; die = pd } in
      match Design.validate design with
      | Ok () -> Ok (design, placement)
      | Error (e :: _) -> Error e
      | Error [] -> Ok (design, placement)
    with
    | Parse msg -> Error msg
    | Assert_failure _ -> Error "invalid field value (assertion)"
end

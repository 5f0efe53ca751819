(* LEF-lite reader/writer; see the grammar in lef.mli.  The reader is a
   recursive descent over a Lex cursor: strict about the subset it
   claims (unknown keywords are typed errors, not silent skips) but
   tolerant of the statements real libraries carry around the footprint
   data (PIN/OBS blocks, SYMMETRY, UNITS...), which it skips by
   structure. *)

open Lex

type site = { s_name : string; s_class : string; s_w : int; s_h : int }

type macro = {
  m_name : string;
  m_class : string;
  m_w : int;
  m_h : int;
  m_widths : int array option;
}

type t = { sites : site list; macros : macro list }

(* SIZE <w> BY <h> ; *)
let parse_size cur =
  let w = next cur "SIZE" in
  expect cur "BY";
  let h = next cur "SIZE" in
  expect cur ";";
  (* In source order: tuple components are evaluated right to left. *)
  let w = int cur w in
  let h = int cur h in
  (w, h)

(* Body shared by SITE and MACRO up to END <name>; returns (class, size).
   [skip_blocks] enables the MACRO-only nested PIN/OBS constructs. *)
let parse_body cur ~what ~name ~skip_blocks =
  let cls = ref "" and size = ref None in
  let rec loop () =
    let t = next cur what in
    if equal cur t "END" then begin
      let e = next cur "END" in
      if not (equal cur e name) then
        fail "line %d: END %s does not close %s %s" (line_of cur e) (word cur e)
          what name
    end
    else if equal cur t "CLASS" then begin
      let c = next cur "CLASS" in
      expect cur ";";
      cls := word cur c;
      loop ()
    end
    else if equal cur t "SIZE" then begin
      size := Some (parse_size cur);
      loop ()
    end
    else if
      equal cur t "SYMMETRY" || equal cur t "ORIGIN" || equal cur t "FOREIGN"
      || equal cur t "SITE"
    then begin
      skip_statement cur;
      loop ()
    end
    else if skip_blocks && equal cur t "PIN" then begin
      (* PIN <p> ... END <p> *)
      let p = word cur (next cur "PIN") in
      let rec skip_pin () =
        let t = next cur "PIN block" in
        if equal cur t "END" then begin
          let e = next cur "END" in
          if not (equal cur e p) then skip_pin ()
        end
        else skip_pin ()
      in
      skip_pin ();
      loop ()
    end
    else if skip_blocks && equal cur t "OBS" then begin
      let rec skip_obs () =
        let t = next cur "OBS block" in
        if not (equal cur t "END") then skip_obs ()
      in
      skip_obs ();
      loop ()
    end
    else fail "line %d: unrecognized %s statement %S" (line_of cur t) what (word cur t)
  in
  loop ();
  match !size with
  | Some (w, h) -> (!cls, w, h)
  | None -> fail "%s %s: missing SIZE" what name

(* Skip a block up to END <keyword>. *)
let rec skip_block cur what keyword =
  let t = next cur what in
  if equal cur t "END" then expect cur keyword else skip_block cur what keyword

(* The [tdflow.widths] comments of the whole input, by macro name. *)
let widths text =
  let widths_of = Hashtbl.create 8 in
  extensions (cursor text) (fun line c ->
      let kw = next c "extension" in
      if equal c kw "tdflow.widths" then begin
        let rec rest acc = if at_end c then List.rev acc else rest (next c "" :: acc) in
        match rest [] with
        | name :: (_ :: _ as ws) ->
          Hashtbl.replace widths_of (word c name)
            (Array.of_list (List.map (int c) ws))
        | _ -> fail "line %d: tdflow.widths needs a macro name and widths" line
      end
      else fail "line %d: unknown extension comment %S" line (word c kw));
  widths_of

let parse cur widths_of =
  let sites = ref [] and macros = ref [] in
  let rec loop () =
    let t = next cur "library" in
    if equal cur t "END" then begin
      expect cur "LIBRARY";
      if not (at_end cur) then
        fail "line %d: trailing tokens after END LIBRARY" (line cur)
    end
    else if
      equal cur t "VERSION" || equal cur t "NAMESCASESENSITIVE"
      || equal cur t "BUSBITCHARS" || equal cur t "DIVIDERCHAR"
      || equal cur t "MANUFACTURINGGRID"
    then begin
      skip_statement cur;
      loop ()
    end
    else if equal cur t "UNITS" then begin
      skip_block cur "UNITS block" "UNITS";
      loop ()
    end
    else if equal cur t "PROPERTYDEFINITIONS" then begin
      skip_block cur "PROPERTYDEFINITIONS block" "PROPERTYDEFINITIONS";
      loop ()
    end
    else if equal cur t "SITE" then begin
      let name = word cur (next cur "SITE") in
      let s_class, s_w, s_h =
        parse_body cur ~what:"SITE" ~name ~skip_blocks:false
      in
      if s_w <= 0 || s_h <= 0 then
        fail "line %d: SITE %s has a non-positive SIZE" (line_of cur t) name;
      sites := { s_name = name; s_class; s_w; s_h } :: !sites;
      loop ()
    end
    else if equal cur t "MACRO" then begin
      let name = word cur (next cur "MACRO") in
      let m_class, m_w, m_h =
        parse_body cur ~what:"MACRO" ~name ~skip_blocks:true
      in
      if m_w <= 0 || m_h <= 0 then
        fail "line %d: MACRO %s has a non-positive SIZE" (line_of cur t) name;
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
    end
    else fail "line %d: unrecognized library statement %S" (line_of cur t) (word cur t)
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
    let widths_of = widths text in
    Ok (parse (cursor text) widths_of)
  with Parse msg -> Error msg

let render (t : t) =
  let b = Buffer.create (64 * (List.length t.sites + List.length t.macros + 1)) in
  let str = Buffer.add_string b and nl () = Buffer.add_char b '\n' in
  let int v = Buffer.add_char b ' '; Tdf_util.Decimal.add_int b v in
  let body name cls w h =
    str name;
    str "\n  CLASS ";
    str cls;
    str " ;\n  SIZE";
    int w;
    str " BY";
    int h;
    str " ;\n"
  in
  str "VERSION 5.8 ;\n";
  List.iter
    (fun s ->
      str "SITE ";
      body s.s_name s.s_class s.s_w s.s_h;
      str "END ";
      str s.s_name;
      nl ())
    t.sites;
  List.iter
    (fun m ->
      str "MACRO ";
      body m.m_name m.m_class m.m_w m.m_h;
      Option.iter
        (fun ws ->
          str "  # tdflow.widths ";
          str m.m_name;
          Array.iter int ws;
          nl ())
        m.m_widths;
      str "END ";
      str m.m_name;
      nl ())
    t.macros;
  str "END LIBRARY\n";
  b

let to_string t = Buffer.contents (render t)

let load path = read (In_channel.with_open_text path In_channel.input_all)

let save path t =
  let b = render t in
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b)

let find_site t name = List.find_opt (fun s -> s.s_name = name) t.sites

let find_macro t name = List.find_opt (fun m -> m.m_name = name) t.macros

let read_exn text =
  match read text with Ok v -> v | Error msg -> failwith ("Lef.read: " ^ msg)

let load_exn path =
  match load path with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

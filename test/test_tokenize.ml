(* The one-pass tokenizers against their whole-file references
   (ref_lex.ml), and the text decoders under the four fuzz properties the
   DEF/LEF readers already face in test_def_lef.ml.

   Differential: on random byte soup drawn from the separator-heavy
   alphabet and on line-mutated corpus files, the streaming DEF/LEF
   cursor and the shared line iterator produce exactly the reference
   (line, word) streams and extension comments.  Each reader then gives
   the same [Ok] value or the same [Error] string on the raw input as on
   the reference tokenizer's rendering of it, which holds only if the
   reader sees the reference stream.

   Fuzz (text design, placement, delta, contest): truncation and line
   noise yield [Ok] or a typed [Error], never an escaping exception;
   comment injection and space/tab mangling leave the parse identical. *)

module Lex = Tdf_def_lef.Lex
module Def = Tdf_def_lef.Def
module Lef = Tdf_def_lef.Lef
module Text = Tdf_io.Text
module Delta = Tdf_io.Delta
module Contest = Tdf_io.Contest
module Lines = Tdf_io.Lines
module Placement = Tdf_netlist.Placement
module Prng = Tdf_util.Prng

let read_file path = In_channel.with_open_bin path In_channel.input_all

let pick rng a = a.(Prng.int_in rng 0 (Array.length a - 1))

(* ---- inputs -------------------------------------------------------- *)

let design0 = lazy (Fixtures.random ~with_macros:true 5)

let corpus =
  lazy
    (let d = Lazy.force design0 in
     let lef, defs = Def.of_design d in
     let example f = read_file ("../examples/open_design/" ^ f) in
     let delta =
       [
         Delta.Move { cell = 3; x = 40; y = 10; die = 1 };
         Delta.Resize { cell = 7; widths = [| 3; 5 |] };
         Delta.Add { name = "n1"; x = 5; y = 20; die = 0; widths = [| 4; 4 |] };
         Delta.Remove { cell = 2 };
         Delta.Add_macro { name = "m1"; die = 1; x = 60; y = 0; w = 10; h = 20 };
       ]
     in
     [|
       (`Def, example "small.d0.def");
       (`Def, Def.to_string (List.hd defs));
       (`Lef, example "small.lef");
       (`Lef, Lef.to_string lef);
       (`Design, Text.design_to_string d);
       (`Placement, Text.placement_to_string d (Placement.initial d));
       (`Delta, Delta.to_string delta);
       (`Contest, Contest.to_string ~terminal:{ Contest.t_size = 2; t_spacing = 1 } d);
     |])

(* Pieces weighted toward the bytes the tokenizers treat specially. *)
let pieces =
  [|
    " "; " "; "\t"; "\r"; "\n"; "\n"; "#"; "#"; "("; ")"; ";"; "\012"; "0";
    "7"; "42"; "-3"; "1.5"; "tdflow."; "tdflow.gp"; "tdflow.widths";
    "tdflow.die"; "a"; "END"; "place"; "x/P1";
  |]

let soup rng n =
  String.concat "" (List.init n (fun _ -> pick rng pieces))

(* A corpus file with a few lines replaced by, or spliced with, soup. *)
let mutate rng text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  for _ = 1 to Prng.int_in rng 1 4 do
    let i = Prng.int_in rng 0 (n - 1) in
    let l = lines.(i) in
    lines.(i) <-
      (match Prng.int_in rng 0 2 with
      | 0 -> soup rng (Prng.int_in rng 0 12)
      | _ ->
        let k = Prng.int_in rng 0 (String.length l) in
        String.sub l 0 k ^ soup rng (Prng.int_in rng 1 6)
        ^ String.sub l k (String.length l - k))
  done;
  String.concat "\n" (Array.to_list lines)

let input seed =
  let rng = Prng.create seed in
  if Prng.int_in rng 0 2 = 0 then soup rng (Prng.int_in rng 0 160)
  else mutate rng (snd (pick rng (Lazy.force corpus)))

(* ---- streams ------------------------------------------------------- *)

let drain cur =
  let rec go acc =
    if Lex.at_end cur then List.rev acc
    else
      let t = Lex.next cur "token" in
      go ((Lex.line_of cur t, Lex.word cur t) :: acc)
  in
  go []

let cursor_stream text =
  let cur = Lex.cursor text in
  let toks = drain cur in
  let exts = ref [] in
  Lex.extensions cur (fun line c -> exts := (line, List.map snd (drain c)) :: !exts);
  (toks, List.rev !exts)

let lines_stream text =
  let cur = Lines.cursor text and acc = ref [] in
  while Lines.next cur do
    acc := (Lines.line cur, List.init (Lines.words cur) (Lines.word cur)) :: !acc
  done;
  List.rev !acc

(* The reference streams rendered back to text on the same line numbers:
   the tokens of a line joined by spaces, then its extension comment. *)
let render_lex text =
  let toks, exts = Ref_lex.lex text in
  let n = List.length (String.split_on_char '\n' text) in
  let code = Array.make (n + 1) [] and comment = Array.make (n + 1) "" in
  List.iter (fun (l, w) -> code.(l) <- w :: code.(l)) toks;
  List.iter (fun (l, ws) -> comment.(l) <- " # " ^ String.concat " " ws) exts;
  List.init n (fun i -> String.concat " " (List.rev code.(i + 1)) ^ comment.(i + 1))
  |> String.concat "\n"

let render_lines text =
  let n = List.length (String.split_on_char '\n' text) in
  let line = Array.make (n + 1) "" in
  List.iter (fun (l, ws) -> line.(l) <- String.concat " " ws) (Ref_lex.tokenize text);
  String.concat "\n" (List.init n (fun i -> line.(i + 1)))

let same a b = compare a b = 0

(* The reader for [kind] gives the same result on [a] as on [b]. *)
let agree kind a b =
  let d = Lazy.force design0 in
  match kind with
  | `Def -> same (Def.read a) (Def.read b)
  | `Lef -> same (Lef.read a) (Lef.read b)
  | `Design -> same (Text.read_design a) (Text.read_design b)
  | `Placement -> same (Text.read_placement d a) (Text.read_placement d b)
  | `Delta -> same (Delta.read a) (Delta.read b)
  | `Contest -> same (Contest.read a) (Contest.read b)

let readers_agree raw =
  let canon_lex = render_lex raw and canon_lines = render_lines raw in
  List.for_all (fun k -> agree k raw canon_lex) [ `Def; `Lef ]
  && List.for_all
       (fun k -> agree k raw canon_lines)
       [ `Design; `Placement; `Delta; `Contest ]

let seeds = Props.int_range 0 1_000_000

let prop_cursor =
  Props.test "cursor: same tokens and extensions as the reference lexer"
    ~count:400 seeds (fun seed ->
      let text = input seed in
      same (cursor_stream text) (Ref_lex.lex text))

let prop_lines =
  Props.test "lines: same records as the reference tokenizer" ~count:400 seeds
    (fun seed ->
      let text = input seed in
      same (lines_stream text) (Ref_lex.tokenize text))

let prop_readers =
  Props.test "readers: raw input parses like its reference token stream"
    ~count:300 seeds (fun seed ->
      readers_agree (input seed))

(* Equal down to the bits of every float (so -0.0 differs from 0.0) and
   blind to sharing. *)
let identical a b =
  Marshal.to_string a [ Marshal.No_sharing ] = Marshal.to_string b [ Marshal.No_sharing ]

(* [Def.read] against the reference reader, through the reference's view
   of the flat value. *)
let same_def text =
  identical (Result.map Ref_def.Def.of_flat (Def.read text)) (Ref_def.Def.read text)

let prop_reference_readers =
  Props.test "readers: same value or error as the reference readers" ~count:400
    seeds (fun seed ->
      let text = input seed in
      same_def text && identical (Lef.read text) (Ref_def.Lef.read text))

(* Inputs with several faults, where the order of the checks decides the
   message: every one against the reference readers. *)
let test_reference_error_order () =
  let def_body = "DESIGN d ;\nDIEAREA ( 0 0 ) ( 9 9 ) ;\n" in
  let defs =
    [
      "DESIGN d ;\nDIEAREA ( a b ) ( c d ) ;\nEND DESIGN";
      "DESIGN d ;\nDIEAREA ( a b";
      def_body ^ "ROW r s x y N DO c BY 1 ;\nEND DESIGN";
      def_body ^ "ROW r s x y N DO c BY 2 STEP u v ;\nEND DESIGN";
      def_body ^ "ROW r s 0 0 N DO 4 BY 1 STEP u v ;\nEND DESIGN";
      def_body ^ "COMPONENTS x ;\n- a m + PLACED ( p q ) N ;\nEND COMPONENTS\nEND DESIGN";
      def_body ^ "COMPONENTS 2 ;\n- a m + PLACED ( p q ) N ;\nEND COMPONENTS\nEND DESIGN";
      def_body ^ "BLOCKAGES 1 ;\n- PLACEMENT RECT ( 5 5 ) ( 1 1 ) ;\nEND BLOCKAGES\nEND DESIGN";
      def_body ^ "PINS 1 ;\n- p + NET n + FIXED ( a b ) N + LAYER m1 ( 0 0 ) ;\nEND PINS\nEND DESIGN";
      def_body ^ "COMPONENTS 1 ;\n- a m ;\nEND COMPONENTS\nCOMPONENTS 1 ;\nEND DESIGN";
      def_body ^ "END DESIGN\n# tdflow.gp a x y z\n";
      def_body ^ "END DESIGN\n# tdflow.gp a x y z w\n";
      def_body ^ "END DESIGN\n# tdflow.gp a 1 2 0.5 w\n# tdflow.die x of y\n";
      def_body ^ "END DESIGN\n# tdflow.die x of y\n";
      def_body ^ "END DESIGN\n# tdflow.die 0 to 2\n";
      def_body ^ "END DESIGN\n# tdflow.max_util 0.5 0.6\n";
      def_body ^ "END DESIGN\n# tdflow.max_util -0.000000\n# tdflow.gp a -0 -0 -0.0\n";
      def_body ^ "END DESIGN\n#tdflow.gp#x 1 2 0.5 #w\n";
    ]
  in
  List.iter
    (fun text ->
      Alcotest.(check bool) (Printf.sprintf "Def.read %S" text) true
        (same_def text))
    defs;
  let lefs =
    [
      "SITE s\nSIZE a BY b ;\nEND s\nEND LIBRARY";
      "MACRO m\nSIZE 0 BY b ;\nEND x\nEND LIBRARY";
      "# tdflow.widths m a b\nMACRO m\nSIZE 1 BY 1 ;\nEND m\nEND LIBRARY";
      "# tdflow.widths m 1 -2\n# tdflow.widths n 3\nMACRO m\nSIZE 1 BY 1 ;\nEND m\nEND LIBRARY";
      "MACRO m\nPIN a\nEND b\nEND a\nSIZE 1 BY 1 ;\nEND m\nEND LIBRARY";
      "SITE s\nPIN a\nEND a\nEND s\nEND LIBRARY";
    ]
  in
  List.iter
    (fun text ->
      Alcotest.(check bool) (Printf.sprintf "Lef.read %S" text) true
        (identical (Lef.read text) (Ref_def.Lef.read text)))
    lefs

(* A name (a word with a letter and a digit) replaced by a name from
   elsewhere in the file: the file still parses, and the converter meets
   duplicate, unknown and misplaced names. *)
let swap_names rng text =
  let is_name w =
    String.exists (fun c -> c >= '0' && c <= '9') w
    && String.exists (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) w
  in
  let lines = Array.map (fun l -> Array.of_list (String.split_on_char ' ' l))
      (Array.of_list (String.split_on_char '\n' text)) in
  let spots = ref [] in
  Array.iteri (fun i ws -> Array.iteri (fun j w -> if is_name w then spots := (i, j) :: !spots) ws) lines;
  let spots = Array.of_list !spots in
  if spots <> [||] then
    for _ = 1 to Prng.int_in rng 1 3 do
      let i, j = pick rng spots and si, sj = pick rng spots in
      lines.(i).(j) <- lines.(si).(sj)
    done;
  String.concat "\n" (Array.to_list (Array.map (fun ws -> String.concat " " (Array.to_list ws)) lines))

(* LEF and per-die DEF texts: a canonical export and the example pair. *)
let imports =
  lazy
    (let lef, defs = Def.of_design (Lazy.force design0) in
     let example f = read_file ("../examples/open_design/" ^ f) in
     [|
       Lef.to_string lef :: List.map Def.to_string defs;
       List.map example [ "small.lef"; "small.d0.def"; "small.d1.def" ];
     |])

(* A LEF and its DEFs: each DEF read like the reference reader, and the
   set converted like the reference converter. *)
let import_agrees = function
  | [] -> true
  | lef :: defs -> (
    List.for_all same_def defs
    &&
    match (Lef.read lef, List.map Def.read defs) with
    | Ok lef, defs when List.for_all Result.is_ok defs ->
      let defs = List.map Result.get_ok defs in
      identical (Def.to_design ~lef defs)
        (Ref_def.Def.to_design ~lef (List.map Ref_def.Def.of_flat defs))
    | _ -> true)

(* Half the inputs are the cross-file and name-table cases of
   [Def_cases]; the other half a name swapped or lines mutated in one
   file of an export or the example pair. *)
let prop_reference_converter =
  Props.test "to_design: same value or error as the reference converter"
    ~count:600 seeds (fun seed ->
      let rng = Prng.create seed in
      if Prng.int_in rng 0 1 = 0 then import_agrees (Def_cases.import_set rng)
      else
      let files = Array.of_list (pick rng (Lazy.force imports)) in
      let k = Prng.int_in rng 0 (Array.length files - 1) in
      files.(k) <-
        (if Prng.int_in rng 0 3 = 0 then mutate rng files.(k) else swap_names rng files.(k));
      (* an extra or a missing DEF file, now and then *)
      let defs = List.tl (Array.to_list files) in
      let defs =
        match Prng.int_in rng 0 5 with
        | 0 -> List.tl defs
        | 1 -> defs @ [ List.hd defs ]
        | _ -> defs
      in
      match (Lef.read files.(0), List.map Def.read defs) with
      | Ok lef, defs when List.for_all Result.is_ok defs ->
        let defs = List.map Result.get_ok defs in
        identical (Def.to_design ~lef defs)
          (Ref_def.Def.to_design ~lef (List.map Ref_def.Def.of_flat defs))
      | _ -> true)

(* Each edit of [Def_cases] on its own, on both bases: the edits that
   keep the files valid import, and each seed fault is the error it is
   meant to be, both as the reference gives them. *)
let test_cross_file_cases () =
  let result files =
    match files with
    | lef :: defs -> Def.to_design ~lef:(Lef.read_exn lef) (List.map Def.read_exn defs)
    | [] -> assert false
  in
  List.iter
    (fun (base, bname) ->
      let base = Lazy.force base in
      let lef = List.hd base and defs = List.tl base in
      List.iter
        (fun (edit, ename, want) ->
          let files = lef :: edit (Prng.create 3) defs in
          let what = Printf.sprintf "%s, %s" bname ename in
          Alcotest.(check bool) (what ^ ": as the reference") true (import_agrees files);
          match (result files, want) with
          | Ok _, None -> ()
          | Error e, Some prefix when String.starts_with ~prefix e -> ()
          | Ok _, Some prefix -> Alcotest.failf "%s: Ok, want %s..." what prefix
          | Error e, _ -> Alcotest.failf "%s: %s" what e)
        [
          (Def_cases.rename, "renamed", None);
          (Def_cases.move_nets, "nets in the die-1 file", None);
          (Def_cases.deal_gp, "seeds dealt across files", None);
          (Def_cases.unplace, "unplaced", None);
          ( (fun rng defs -> Def_cases.unplace rng (Def_cases.move_nets rng (Def_cases.rename rng defs))),
            "all three",
            None );
          ( (fun rng defs ->
              Def_cases.append_line rng defs
                (List.find Def_cases.is_gp (String.split_on_char '\n' (List.nth defs 1)))),
            "duplicate seed",
            Some "duplicate tdflow.gp for component" );
          ( (fun rng defs -> Def_cases.append_line rng defs "# tdflow.gp ghost 1 2 0.5"),
            "unknown seed",
            Some "tdflow.gp names unknown component" );
          ( (fun rng defs ->
              List.fold_left
                (fun defs k -> Def_cases.append_line rng defs (Printf.sprintf "# tdflow.gp ghost%d 1 2 0.5" k))
                defs (List.init 12 Fun.id)),
            "twelve unknown seeds",
            Some "tdflow.gp names unknown component" );
        ])
    [ (Def_cases.small, "small"); (Def_cases.large, "large") ];
  (* the fixture's FIXED components *)
  let lef = List.hd (Lazy.force Def_cases.small) and defs = List.tl (Lazy.force Def_cases.small) in
  let fixed =
    List.concat_map Def_cases.lines defs
    |> List.find (fun l -> Def_cases.is_component l && List.mem "FIXED" (Def_cases.words l))
  in
  let files =
    lef :: Def_cases.append_line (Prng.create 1) defs
      (Printf.sprintf "# tdflow.gp %s 1 2 0.5" (Def_cases.comp_of fixed))
  in
  Alcotest.(check bool) "fixed seed: as the reference" true (import_agrees files);
  Alcotest.(check bool) "fixed seed is an error" true
    (match result files with
    | Error e -> String.starts_with ~prefix:"tdflow.gp names fixed component" e
    | Ok _ -> false)

(* Number tokens: the in-place fast paths and the stdlib on a copy must
   agree, errors included, on every DEF decimal; every other token
   (OCaml-only syntax the stdlib also takes, such as [0x1f], [+7] or
   [nan]) must be the same typed error. *)
let number_pieces =
  [|
    "0"; "7"; "42"; "9"; "000"; "-"; "+"; "."; "_"; "e"; "E-3"; "E+2"; "x"; "0x1f";
    "123456789"; "999999999999999999"; "inf"; "nan"; "N";
  |]

let number_token rng =
  match Prng.int_in rng 0 3 with
  | 0 -> String.concat "" (List.init (Prng.int_in rng 1 5) (fun _ -> pick rng number_pieces))
  | 1 -> Printf.sprintf "%d" (Prng.int_in rng (-1_000_000_000) 1_000_000_000)
  | 2 -> Printf.sprintf "%.*f" (Prng.int_in rng 0 9) (Int64.float_of_bits (Prng.bits64 rng))
  | _ ->
    Printf.sprintf "%.*f" (Prng.int_in rng 0 9)
      (float_of_int (Prng.int_in rng (-1_000_000) 1_000_000) /. 1024.)

let lex_number f text =
  let cur = Lex.cursor text in
  match f cur (Lex.next cur "number") with
  | v -> Ok v
  | exception Lex.Parse msg -> Error msg

let prop_numbers =
  Props.test "cursor: numbers read in place as int_of_string/float_of_string"
    ~count:2000 seeds (fun seed ->
      let rng = Prng.create seed in
      let w = number_token rng in
      let want def conv what =
        match if def w then conv w else None with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "line 1: expected %s, got %S" what w)
      in
      identical (lex_number Lex.int w)
        (want Ref_def.Lex.def_int int_of_string_opt "integer")
      && identical (lex_number Lex.float w)
           (want Ref_def.Lex.def_number float_of_string_opt "number"))

(* The corner cases the two separator sets and the comment rules hinge
   on, checked against the references by name. *)
let test_corner_cases () =
  let cases =
    [
      "";
      "\n\n";
      "place 0 1 2 3\r\nplace 1 2 3 4\r\n";
      "a(b)c;d #(tdflow.gp x\n#tdflow.die 0 of 2\n# tdflow.gp a#b 1 2 0.5";
      "x\012y\tz\r#\n  # tdflow.\n#  tdflow.widths m 1 2 ; ( )";
      "word#comment tdflow.x\ntdflow.y # tdflow.z";
    ]
  in
  List.iter
    (fun text ->
      Alcotest.(check bool)
        (Printf.sprintf "cursor %S" text)
        true
        (same (cursor_stream text) (Ref_lex.lex text));
      Alcotest.(check bool)
        (Printf.sprintf "lines %S" text)
        true
        (same (lines_stream text) (Ref_lex.tokenize text)))
    cases;
  (* '\r' is a blank for DEF/LEF but a word byte for the line formats *)
  let d = Lazy.force design0 in
  Alcotest.(check bool) "CRLF placement is a typed error" true
    (match Text.read_placement d "place 0 1 2 3\r\n" with
    | Error e -> e = "line 1: expected integer, got \"3\\r\""
    | Ok _ -> false);
  let error what want got =
    Alcotest.(check (result unit string)) what (Error want) (Result.map ignore got)
  in
  error "end of file inside expect" "unexpected end of file (in \"(\")"
    (Def.read "DESIGN d ;\nDIEAREA");
  (* LEF reads its extension comments before the body, DEF after the body
     and its trailing-token check *)
  error "LEF extension error first" "line 2: expected integer, got \"x\""
    (Lef.read "FROBNICATE ;\n# tdflow.widths m x\nEND LIBRARY");
  error "DEF body error first"
    "line 3: unrecognized design statement \"FROB\" (outside the DEF-lite \
     subset; see lib/io/def_lef/def.mli)"
    (Def.read "DESIGN d ;\n# tdflow.nope 1\nFROB ;\nEND DESIGN");
  let tail = "DESIGN d ;\nDIEAREA ( 0 0 ) ( 9 9 ) ;\nEND DESIGN\n# tdflow.nope 1\n" in
  error "DEF trailing tokens first" "line 5: trailing tokens after END DESIGN"
    (Def.read (tail ^ "leftover"));
  error "DEF extension after END DESIGN"
    "line 4: unknown extension comment \"tdflow.nope\"" (Def.read tail)

(* ---- fuzz: the text decoders ---------------------------------------- *)

let text_corpus =
  lazy
    (Array.of_list
       (List.filter
          (fun (k, _) -> k <> `Def && k <> `Lef)
          (Array.to_list (Lazy.force corpus))))

(* [agree] fails only by raising when both sides are the same input. *)
let never_raises kind text = agree kind text text

let fuzz_truncation =
  Props.test "text fuzz: truncation never escapes as an exception" ~count:300
    seeds (fun seed ->
      let rng = Prng.create seed in
      let kind, text = pick rng (Lazy.force text_corpus) in
      never_raises kind (String.sub text 0 (Prng.int_in rng 0 (String.length text))))

let fuzz_comment_injection =
  Props.test "text fuzz: comment injection leaves the parse identical"
    ~count:200 seeds (fun seed ->
      let rng = Prng.create seed in
      let kind, text = pick rng (Lazy.force text_corpus) in
      let noise =
        [|
          "# a comment with ( tokens ; and ) keywords place net cell";
          "   # indented comment move 1 2 3 0";
          "\t#tab, then a record: Inst u1 C2_2";
          "";
          " \t ";
        |]
      in
      let injected =
        String.split_on_char '\n' text
        |> List.concat_map (fun l ->
               match Prng.int_in rng 0 5 with
               | 0 -> [ pick rng noise; l ]
               | 1 when l <> "" -> [ l ^ " # trailing 1 2 3" ]
               | 2 when l <> "" -> [ l ^ "#glued" ]
               | _ -> [ l ])
        |> String.concat "\n"
      in
      agree kind injected text)

let fuzz_whitespace =
  Props.test "text fuzz: space/tab mangling leaves the parse identical"
    ~count:200 seeds (fun seed ->
      let rng = Prng.create seed in
      let kind, text = pick rng (Lazy.force text_corpus) in
      let b = Buffer.create (String.length text * 2) in
      String.iter
        (fun c ->
          match c with
          | ' ' ->
            Buffer.add_string b
              (match Prng.int_in rng 0 3 with
              | 0 -> "  "
              | 1 -> " \t "
              | 2 -> "\t"
              | _ -> " ")
          | '\n' when Prng.int_in rng 0 3 = 0 -> Buffer.add_string b "\t\n "
          | c -> Buffer.add_char b c)
        text;
      agree kind (Buffer.contents b) text)

let fuzz_line_noise =
  Props.test "text fuzz: random line edits yield Ok or a typed error"
    ~count:300 seeds (fun seed ->
      let rng = Prng.create seed in
      let kind, text = pick rng (Lazy.force text_corpus) in
      let lines = Array.of_list (String.split_on_char '\n' text) in
      let n = Array.length lines in
      for _ = 1 to Prng.int_in rng 1 4 do
        let i = Prng.int_in rng 0 (n - 1) in
        lines.(i) <-
          (match Prng.int_in rng 0 3 with
          | 0 -> ""
          | 1 -> lines.(i) ^ " " ^ lines.(i)
          | 2 -> "ZZZ " ^ lines.(i)
          | _ -> lines.(Prng.int_in rng 0 (n - 1)))
      done;
      never_raises kind (String.concat "\n" (Array.to_list lines)))

(* ---- the line-format readers against their references ------------- *)

(* The line-format texts of the corpus, plus a design whose cells carry
   weights ([cellw] records), a second die row and a two-die contest file
   with terminals, so every record kind is present. *)
let line_texts =
  lazy
    (let weighted =
       String.split_on_char '\n' (Text.design_to_string (Lazy.force design0))
       |> List.mapi (fun i l ->
              match String.split_on_char ' ' l with
              | "cell" :: id :: name :: x :: y :: z :: ws when i mod 3 = 0 ->
                String.concat " " ("cellw" :: id :: name :: x :: y :: z :: "1.5" :: ws)
              | _ -> l)
       |> String.concat "\n"
     in
     Array.append
       (Lazy.force text_corpus)
       [| (`Design, weighted) |])

(* Every line reader on [text], against its reference, by value (float
   bits included) or by error string. *)
let text_readers_agree text =
  let d = Lazy.force design0 in
  identical (Text.read_design text) (Ref_text.Text.read_design text)
  && identical (Text.read_placement d text) (Ref_text.Text.read_placement d text)
  && identical (Delta.read text) (Ref_text.Delta.read text)
  && identical (Contest.read text) (Ref_text.Contest.read text)

let prop_reference_text_readers =
  Props.test "text readers: same value or error as the reference readers"
    ~count:400 seeds (fun seed ->
      let rng = Prng.create seed in
      let text =
        if Prng.int_in rng 0 3 = 0 then input seed
        else mutate rng (snd (pick rng (Lazy.force line_texts)))
      in
      text_readers_agree text)

(* Tokens that fail each field kind in its own way: bad syntax (copied
   into the message), out of range, non-positive widths and utilizations
   (assertions), and forms only the stdlib takes. *)
let bad_tokens =
  [|
    "x"; "-"; "1e"; "0x1g"; "99999999999999999999"; "nan"; "0"; "-1"; "-0"; "1.";
    ".5"; "0x1f"; "1_000"; "+7"; "2.5"; "1e3"; "0.0000000000000001"; "inf"; "\r";
  |]

(* A corpus line with several of its words replaced by bad tokens, and
   now and then records repeated or moved, so the order in which fields
   and records are checked decides the message. *)
let multi_fault rng text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  for _ = 1 to Prng.int_in rng 1 3 do
    let i = Prng.int_in rng 0 (n - 1) in
    let ws = Array.of_list (String.split_on_char ' ' lines.(i)) in
    let k = Array.length ws in
    if k > 1 then
      for _ = 1 to Prng.int_in rng 2 4 do
        ws.(Prng.int_in rng 1 (k - 1)) <- pick rng bad_tokens
      done;
    lines.(i) <- String.concat " " (Array.to_list ws)
  done;
  for _ = 1 to Prng.int_in rng 0 3 do
    let i = Prng.int_in rng 0 (n - 1) and j = Prng.int_in rng 0 (n - 1) in
    if Prng.int_in rng 0 1 = 0 then lines.(i) <- lines.(j)
    else begin
      let t = lines.(i) in
      lines.(i) <- lines.(j);
      lines.(j) <- t
    end
  done;
  String.concat "\n" (Array.to_list lines)

let prop_reference_multi_fault =
  Props.test "text readers: multi-fault lines fail like the reference" ~count:400
    seeds (fun seed ->
      let rng = Prng.create seed in
      text_readers_agree (multi_fault rng (snd (pick rng (Lazy.force line_texts)))))

(* Records out of file order, repeated ids and a file that is valid only
   once sorted, by name. *)
let test_reference_text_cases () =
  let dies = "die 1 0 0 50 40 10 1 1.0\ndie 0 0 0 50 40 10 1 0.9\n" in
  let cases =
    [
      "";
      "design\n";
      "design a b\ndesign c\n" ^ dies;
      dies ^ "cell 1 b 0 0 0.5 2 2\ncell 0 a 1 1 0.5 3 3\nnet 5 n 0 1\nnet 2 m 1\n";
      dies ^ "cell 0 a 0 0 0.5 2 2\ncell 0 b 0 0 0.5 2 2\n";
      dies ^ "cell 0 a 0 0 0.5 2\ncell 0 b 0 0 0.5 2 2\n";
      dies ^ "macro 3 m 0 0 0 5 5\nmacro 3 k 1 0 0 5 5\nmacro 1 j 0 10 10 5 5\n";
      dies ^ "macro 0 m 0 0 0 5 5\nmacro 1 k 0 2 2 5 5\n";
      dies ^ "net 1 n 0\nnet 1 m 0\n";
      "die 0 a b c d e f g\n";
      "die 0 0 0 -1 -1 x y z\n";
      "die x 0 0 5 5 0 0 2.0\n";
      "cell x n a b c 0 -1\n";
      "cell x n 1 2 0.5 0 -1\n";
      "cellw 0 n 1 2 z w 0\n";
      "cellw 0 n 1 2 0.5 -1 3\n";
      "cellw 0 n 1 2 0.5 nan 3\n";
      "macro 0 m 0 1 2 -3 -4\nmacro x m y 1 2 3 4\n";
      "net x n a b\nnet 0 n\n";
      dies ^ "cell 0 a 0 0 0.5 2 2\nplace 0 1 2 3\n";
      "cell 0 a 0 0 0.5 2 2\n";
      dies ^ "cell 0 a 0 0 1e400 2 2\ncell 1 b 0 0 -0 2 2\n";
    ]
  in
  let d = Lazy.force design0 in
  let placements =
    [
      "place 0 1 2 3\nplace 1 a b c\n";
      "place x y z w\n";
      "place 999 a b c\n";
      "place 0 1 2\n";
      "place -1 0 0 0\nplace 0 99999999999999999999 0 0\n";
    ]
  in
  let deltas =
    [
      "move a b c d\n";
      "resize x 0 -1 y\nresize 1 2\n";
      "add n a b c 0 x\n";
      "add n 1 2 3 0 4\n";
      "remove x\nremove 1 2\n";
      "macro m a b c d e f\n";
      "move 1 2 3\nfrobnicate\n";
    ]
  in
  let contests =
    [
      "LibCell a 1 2\n";
      "Tech t 1\nLibCell a x y\n";
      "DieSize a b c d\n";
      "TopDieRows a b c d e\nBottomDieRows 0 0 1 2 x\n";
      "FixedInst m lib Middle x y\n";
      "FixedInst m lib Top 0 y\n";
      "Place u x y z\n";
      "Net n 2\nPin a/P0\nNet m x\n";
      "Pin a/P0\n";
      "TopDieMaxUtil x\nTerminalSize a b\n";
      "NumNets 1 2\n";
    ]
  in
  let check what ok = Alcotest.(check bool) what true ok in
  List.iter
    (fun t ->
      check (Printf.sprintf "read_design %S" t)
        (identical (Text.read_design t) (Ref_text.Text.read_design t)))
    cases;
  List.iter
    (fun t ->
      check (Printf.sprintf "read_placement %S" t)
        (identical (Text.read_placement d t) (Ref_text.Text.read_placement d t)))
    placements;
  List.iter
    (fun t -> check (Printf.sprintf "Delta.read %S" t) (identical (Delta.read t) (Ref_text.Delta.read t)))
    deltas;
  List.iter
    (fun t ->
      check (Printf.sprintf "Contest.read %S" t) (identical (Contest.read t) (Ref_text.Contest.read t)))
    (contests
    @ List.map
        (fun (_, text) -> text)
        (List.filter (fun (k, _) -> k = `Contest) (Array.to_list (Lazy.force line_texts))))

(* Line-format number tokens: the cursor's in-place reads and the stdlib
   on a copy must agree, errors included, on every token. *)
let lines_number f text =
  let cur = Lines.cursor text in
  ignore (Lines.next cur);
  match f cur 0 with v -> Ok v | exception Lines.Parse msg -> Error msg

(* Besides the DEF number tokens: decimals of 14 to 19 digits with the
   point anywhere, where the 15-digit limit of the in-place read decides
   between a correct and a doubly rounded value. *)
let line_number_token rng =
  if Prng.int_in rng 0 1 = 0 then number_token rng
  else begin
    let n = Prng.int_in rng 14 19 in
    let digits = String.init n (fun _ -> Char.chr (48 + Prng.int_in rng 0 9)) in
    let k = Prng.int_in rng 1 n in
    (if Prng.int_in rng 0 1 = 0 then "-" else "")
    ^ String.sub digits 0 k
    ^ if k < n then "." ^ String.sub digits k (n - k) else ""
  end

let prop_line_numbers =
  Props.test "lines: numbers read in place as int_of_string/float_of_string"
    ~count:2000 seeds (fun seed ->
      let rng = Prng.create seed in
      let w = line_number_token rng in
      let want conv what =
        match conv w with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "line 1: expected %s, got %S" what w)
      in
      identical (lines_number Lines.int w) (want int_of_string_opt "integer")
      && identical (lines_number Lines.float w) (want float_of_string_opt "number"))

let suite =
  [
    Alcotest.test_case "corner cases match the references" `Quick test_corner_cases;
    prop_cursor;
    prop_lines;
    prop_readers;
    Alcotest.test_case "readers: multi-fault inputs fail like the reference" `Quick
      test_reference_error_order;
    prop_reference_readers;
    prop_reference_converter;
    Alcotest.test_case "to_design: cross-file and name-table cases" `Quick
      test_cross_file_cases;
    prop_numbers;
    prop_line_numbers;
    prop_reference_text_readers;
    prop_reference_multi_fault;
    Alcotest.test_case "text readers: ordering and multi-fault cases match the reference"
      `Quick test_reference_text_cases;
    fuzz_truncation;
    fuzz_comment_injection;
    fuzz_whitespace;
    fuzz_line_noise;
  ]

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

let cursor_stream text =
  let cur = Lex.cursor text in
  let rec drain acc =
    match Lex.peek cur with
    | None -> List.rev acc
    | Some _ ->
      let t = Lex.next cur "token" in
      drain ((t.Lex.line, t.Lex.word) :: acc)
  in
  let toks = drain [] in
  (toks, Lex.extensions cur)

let lines_stream text =
  let acc = ref [] in
  Lines.iter text (fun line words -> acc := (line, words) :: !acc);
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

let suite =
  [
    Alcotest.test_case "corner cases match the references" `Quick test_corner_cases;
    prop_cursor;
    prop_lines;
    prop_readers;
    fuzz_truncation;
    fuzz_comment_injection;
    fuzz_whitespace;
    fuzz_line_noise;
  ]

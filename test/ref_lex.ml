(* Reference tokenizers for the differential tests: verbatim copies of
   the whole-file tokenizers the readers used before they became
   one-pass, kept only under test/ so the streaming ones can be checked
   for the exact same (line, word) stream.

   [lex] is the DEF/LEF lexer (the former [Lex.lex], with tokens as
   [(line, word)] pairs); [tokenize] is the one the text, delta and
   contest readers each carried a copy of. *)

(* Make `(`, `)` and `;` self-delimiting so `(24 32)` lexes like
   `( 24 32 )`; fold tabs and carriage returns into plain spaces. *)
let expand line =
  let b = Buffer.create (String.length line + 8) in
  String.iter
    (fun c ->
      match c with
      | '(' | ')' | ';' ->
        Buffer.add_char b ' ';
        Buffer.add_char b c;
        Buffer.add_char b ' '
      | '\t' | '\r' -> Buffer.add_char b ' '
      | c -> Buffer.add_char b c)
    line;
  Buffer.contents b

let words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let is_ext w =
  String.length w >= 7 && String.sub w 0 7 = "tdflow."

let lex text =
  let toks = ref [] and exts = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let code, comment =
        match String.index_opt line '#' with
        | Some j ->
          ( String.sub line 0 j,
            String.sub line (j + 1) (String.length line - j - 1) )
        | None -> (line, "")
      in
      (match words (expand comment) with
      | kw :: _ as ws when is_ext kw -> exts := (lineno, ws) :: !exts
      | _ -> ());
      List.iter
        (fun w -> toks := (lineno, w) :: !toks)
        (words (expand code)))
    (String.split_on_char '\n' text);
  (List.rev !toks, List.rev !exts)

let tokenize text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (i, line) ->
         let line =
           match String.index_opt line '#' with
           | Some j -> String.sub line 0 j
           | None -> line
         in
         let words =
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun w -> w <> "")
         in
         if words = [] then None else Some (i, words))

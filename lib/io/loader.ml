let diagnostic ?path msg =
  match path with
  | None -> msg
  | Some path -> (
    let default () = Printf.sprintf "%s: %s" path msg in
    if String.length msg > 5 && String.sub msg 0 5 = "line " then
      match String.index_opt msg ':' with
      | Some i -> (
        match int_of_string_opt (String.sub msg 5 (i - 5)) with
        | Some n ->
          Printf.sprintf "%s:%d:%s" path n
            (String.sub msg (i + 1) (String.length msg - i - 1))
        | None -> default ())
      | None -> default ()
    else default ())

(* The first word of the first line that is neither blank nor a comment. *)
let first_keyword text =
  let rec from i =
    if i >= String.length text then ""
    else
      let j =
        match String.index_from_opt text i '\n' with
        | Some j -> j
        | None -> String.length text
      in
      let line = String.trim (String.sub text i (j - i)) in
      if line = "" || line.[0] = '#' then from (j + 1)
      else
        match String.index_opt line ' ' with
        | Some k -> String.sub line 0 k
        | None -> line
  in
  from 0

let design ?path text =
  let result =
    if List.mem (first_keyword text) [ "NumTechnologies"; "Tech"; "DieSize" ]
    then Result.map fst (Contest.read text)
    else Text.read_design text
  in
  Result.map_error (diagnostic ?path) result

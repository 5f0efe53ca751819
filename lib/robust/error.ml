type phase = Preflight | Flow

let phase_name = function Preflight -> "preflight" | Flow -> "flow"

type t = {
  phase : phase;
  code : string;
  cell : int option;
  die : int option;
  detail : string;
}

let make ?cell ?die phase ~code detail = { phase; code; cell; die; detail }

let to_string e =
  let ctx =
    List.filter_map
      (fun (label, v) -> Option.map (Printf.sprintf "%s %d" label) v)
      [ ("cell", e.cell); ("die", e.die) ]
  in
  Printf.sprintf "%s/%s: %s%s" (phase_name e.phase) e.code e.detail
    (match ctx with [] -> "" | l -> " (" ^ String.concat ", " l ^ ")")

let of_flow3d (err : Tdf_legalizer.Flow3d.error) =
  match err with
  | Tdf_legalizer.Flow3d.No_segment { cell; die } ->
    make Flow ~cell ~die ~code:"no-segment"
      "cell fits in no row segment of any die"
  | Tdf_legalizer.Flow3d.Injected { site } ->
    make Flow ~code:"injected" (Printf.sprintf "forced failure at %s" site)

(* Import file sets for the DEF reader and converter tests: a LEF and its
   per-die DEFs, exported from a design and then edited the ways files
   from other tools differ from the canonical export.  Nets move into the
   die-1 file and name die-0 components; tdflow.gp lines are permuted
   across files, duplicated, or name FIXED or unknown components;
   components lose their placement, with or without their seed; and
   components get long names or names with bytes of 0x80 and up.  One
   base has thousands of components, so a file's name table must grow. *)

module Def = Tdf_def_lef.Def
module Lef = Tdf_def_lef.Lef
module Prng = Tdf_util.Prng

let export d =
  let lef, defs = Def.of_design d in
  Lef.to_string lef :: List.map Def.to_string defs

let small = lazy (export (Fixtures.random ~with_macros:true 5))

let large =
  lazy
    (export
       (Tdf_benchgen.Gen.generate ~scale:0.15
          (Tdf_benchgen.Spec.find Tdf_benchgen.Spec.Iccad2023 "case2")))

let lines text = String.split_on_char '\n' text

let unlines ls = String.concat "\n" ls

let words l = String.split_on_char ' ' l

let is_gp l = String.starts_with ~prefix:"# tdflow.gp " l

let is_component l = String.starts_with ~prefix:"  - " l && String.contains l '+'

(* The component name of a COMPONENTS line, or of a tdflow.gp line. *)
let comp_of l = List.nth (words l) (if is_gp l then 2 else 3)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int_in rng 0 i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Every component renamed consistently in every file: a long name, or one
   with bytes of 0x80 and up. *)
let rename rng defs =
  let style = Prng.int_in rng 0 1 in
  let fresh c =
    if style = 0 then "top/core_" ^ String.make 40 'x' ^ "/" ^ c else "\xce\xbb" ^ c ^ "\xff"
  in
  let map = Hashtbl.create 64 in
  List.iter
    (fun t -> List.iter (fun l -> if is_component l then Hashtbl.replace map (comp_of l) (fresh (comp_of l))) (lines t))
    defs;
  List.map
    (fun t ->
      unlines
        (List.map
           (fun l ->
             String.concat " "
               (List.map (fun w -> Option.value (Hashtbl.find_opt map w) ~default:w) (words l)))
           (lines t)))
    defs

(* Some of the die-0 file's nets move into the die-1 file, whose
   components they mostly do not name. *)
let move_nets rng = function
  | d0 :: d1 :: rest ->
    let kept = ref [] and moved = ref [] and in_nets = ref false in
    let section nets = Printf.sprintf "NETS %d ;" (List.length nets) :: List.rev nets @ [ "END NETS" ] in
    let d0 =
      List.concat_map
        (fun l ->
          if String.starts_with ~prefix:"NETS " l then (in_nets := true; [])
          else if l = "END NETS" then (in_nets := false; section !kept)
          else if !in_nets then begin
            if Prng.int_in rng 0 2 = 0 then moved := l :: !moved else kept := l :: !kept;
            []
          end
          else [ l ])
        (lines d0)
    in
    let d1 =
      List.concat_map
        (fun l -> if l = "END DESIGN" && !moved <> [] then section !moved @ [ l ] else [ l ])
        (lines d1)
    in
    unlines d0 :: unlines d1 :: rest
  | defs -> defs

(* The tdflow.gp lines of every file, shuffled and dealt out again. *)
let deal_gp rng defs =
  let gps = Array.of_list (List.concat_map (fun t -> List.filter is_gp (lines t)) defs) in
  shuffle rng gps;
  let n = List.length defs in
  let extra = Array.make n [] in
  Array.iter (fun l -> let f = Prng.int_in rng 0 (n - 1) in extra.(f) <- l :: extra.(f)) gps;
  List.mapi (fun f t -> unlines (List.filter (fun l -> not (is_gp l)) (lines t) @ extra.(f))) defs

(* Components left unplaced, as [+ UNPLACED] or with no status at all,
   and half of them without their seed. *)
let unplace rng defs =
  let unseeded = Hashtbl.create 16 in
  let defs =
    List.map
      (fun t ->
        unlines
          (List.map
             (fun l ->
               match words l with
               | "" :: "" :: "-" :: c :: m :: "+" :: "PLACED" :: _ when Prng.int_in rng 0 3 = 0 ->
                 if Prng.int_in rng 0 1 = 0 then Hashtbl.replace unseeded c ();
                 if Prng.int_in rng 0 1 = 0 then Printf.sprintf "  - %s %s + UNPLACED ;" c m
                 else Printf.sprintf "  - %s %s ;" c m
               | _ -> l)
             (lines t)))
      defs
  in
  List.map
    (fun t -> unlines (List.filter (fun l -> not (is_gp l && Hashtbl.mem unseeded (comp_of l))) (lines t)))
    defs

let append_line rng defs l =
  let f = Prng.int_in rng 0 (List.length defs - 1) in
  List.mapi
    (fun i t ->
      if i <> f then t else if String.ends_with ~suffix:"\n" t then t ^ l ^ "\n" else t ^ "\n" ^ l ^ "\n")
    defs

(* A fault the converter must report: a duplicated seed, or a seed
   naming a FIXED or an unknown component. *)
let seed_fault rng defs =
  let all = List.concat_map lines defs in
  let gps = List.filter is_gp all in
  let fixed = List.filter (fun l -> is_component l && List.mem "FIXED" (words l)) all in
  match Prng.int_in rng 0 2 with
  | 0 when gps <> [] -> append_line rng defs (List.nth gps (Prng.int_in rng 0 (List.length gps - 1)))
  | 1 when fixed <> [] ->
    append_line rng defs
      (Printf.sprintf "# tdflow.gp %s 1 2 0.5" (comp_of (List.nth fixed (Prng.int_in rng 0 (List.length fixed - 1)))))
  | _ -> append_line rng defs (Printf.sprintf "# tdflow.gp ghost%d 1 2 0.5" (Prng.int_in rng 0 99))

(* A LEF and its DEFs, from the small base or (one time in four) the large
   one, with each edit applied or not at random. *)
let import_set rng =
  let base = Lazy.force (if Prng.int_in rng 0 3 = 0 then large else small) in
  let lef = List.hd base and defs = List.tl base in
  let maybe edit defs = if Prng.int_in rng 0 1 = 0 then edit rng defs else defs in
  let defs = defs |> maybe rename |> maybe move_nets |> maybe deal_gp |> maybe unplace in
  (* now and then several faults, where the order of the checks decides
     which is reported *)
  let rec faults k defs = if k = 0 then defs else faults (k - 1) (seed_fault rng defs) in
  lef :: faults (if Prng.int_in rng 0 2 = 0 then Prng.int_in rng 1 4 else 0) defs

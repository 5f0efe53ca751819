(* Shared hand-built designs for the test suites. *)

module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage
module Net = Tdf_netlist.Net
module Design = Tdf_netlist.Design
module Prng = Tdf_util.Prng

(* Two dies of 100x40, row height 10 on both (4 rows each), site width 1. *)
let two_dies ?(row_height_top = 10) ?(w = 100) ?(h = 40) () =
  [|
    Die.make ~index:0 ~outline:(Rect.make ~x:0 ~y:0 ~w ~h) ~row_height:10 ();
    Die.make ~index:1
      ~outline:(Rect.make ~x:0 ~y:0 ~w ~h)
      ~row_height:row_height_top ();
  |]

let cell ~id ?(w0 = 4) ?(w1 = 4) ~x ~y ~z () =
  Cell.make ~id ~widths:[| w0; w1 |] ~gp_x:x ~gp_y:y ~gp_z:z ()

(* A small feasible design: 8 cells clustered at one point of die 0. *)
let clustered () =
  let cells =
    Array.init 8 (fun id -> cell ~id ~w0:6 ~w1:6 ~x:50 ~y:11 ~z:0.1 ())
  in
  let nets =
    [| Net.make ~id:0 ~pins:[| 0; 1; 2 |] (); Net.make ~id:1 ~pins:[| 3; 7 |] () |]
  in
  Design.make ~name:"clustered" ~dies:(two_dies ()) ~cells ~nets ()

(* A design whose die 0 has a macro splitting rows 1-2 into two segments. *)
let with_macro () =
  let cells =
    Array.init 10 (fun id ->
        cell ~id ~w0:5 ~w1:5 ~x:(10 + (8 * id)) ~y:15 ~z:(if id mod 2 = 0 then 0.2 else 0.8) ())
  in
  let macros =
    [| Blockage.make ~id:0 ~die:0 ~rect:(Rect.make ~x:40 ~y:10 ~w:20 ~h:20) () |]
  in
  Design.make ~name:"with_macro" ~dies:(two_dies ()) ~cells ~macros ()

(* Random feasible design for property tests. *)
let random ?(n = 60) ?(with_macros = false) seed =
  let rng = Tdf_util.Prng.create seed in
  let w = 120 and h = 50 in
  let dies =
    [|
      Die.make ~index:0 ~outline:(Rect.make ~x:0 ~y:0 ~w ~h) ~row_height:10 ();
      Die.make ~index:1 ~outline:(Rect.make ~x:0 ~y:0 ~w ~h) ~row_height:10 ();
    |]
  in
  let macros =
    if with_macros then
      [| Blockage.make ~id:0 ~die:0 ~rect:(Rect.make ~x:30 ~y:10 ~w:25 ~h:20) () |]
    else [||]
  in
  let cells =
    Array.init n (fun id ->
        let wc = Tdf_util.Prng.int_in rng 2 6 in
        cell ~id ~w0:wc ~w1:wc
          ~x:(Tdf_util.Prng.int rng w)
          ~y:(Tdf_util.Prng.int rng h)
          ~z:(Tdf_util.Prng.float rng 1.0)
          ())
  in
  let nets =
    Array.init (n / 3) (fun id ->
        let a = Tdf_util.Prng.int rng n and b = Tdf_util.Prng.int rng n in
        Net.make ~id ~pins:[| a; (if b = a then (a + 1) mod n else b) |] ())
  in
  Design.make ~name:(Printf.sprintf "random%d" seed) ~dies ~cells ~macros ~nets ()

(* Per-cell [(x, y, die)] targets as the placement [Grid.reset_to] takes. *)
let targets (ts : (int * int * int) array) =
  {
    Tdf_netlist.Placement.x = Array.map (fun (x, _, _) -> x) ts;
    y = Array.map (fun (_, y, _) -> y) ts;
    die = Array.map (fun (_, _, d) -> d) ts;
  }

(* Two or three dies of one width, each with its own row height and row
   count, up to two macros per die in disjoint x bands (so some rows are
   split into short segments), per-die cell widths, and now and then a
   cell wider than the die, which no segment holds whole. *)
let diff_design rng =
  let nd = Prng.int_in rng 2 3 in
  let w = Prng.int_in rng 30 120 in
  let dies =
    Array.init nd (fun index ->
        let row_height = Prng.choose rng [| 8; 10 |] in
        let h = row_height * Prng.int_in rng 2 5 in
        Die.make ~index ~outline:(Rect.make ~x:0 ~y:0 ~w ~h) ~row_height ())
  in
  let macros = ref [] in
  Array.iteri
    (fun d (die : Die.t) ->
      let h = die.Die.outline.Rect.h and band = w / 2 in
      for i = 0 to Prng.int rng 3 - 1 do
        let mw = Prng.int_in rng 1 (band / 2) and mh = Prng.int_in rng 1 h in
        let x = (i * band) + Prng.int rng (band - mw) in
        let y = Prng.int rng (h - mh + 1) in
        macros :=
          Blockage.make ~id:(List.length !macros) ~die:d
            ~rect:(Rect.make ~x ~y ~w:mw ~h:mh) ()
          :: !macros
      done)
    dies;
  let cells =
    Array.init (Prng.int_in rng 5 40) (fun id ->
        let widths =
          Array.init nd (fun _ ->
              if Prng.int rng 12 = 0 then Prng.int_in rng 1 (w + 10)
              else Prng.int_in rng 1 8)
        in
        Cell.make ~id ~widths ~gp_x:(Prng.int rng w) ~gp_y:(Prng.int rng 50)
          ~gp_z:(Prng.float rng 1.0) ())
  in
  Design.make ~name:"diff" ~dies ~cells ~macros:(Array.of_list (List.rev !macros)) ()

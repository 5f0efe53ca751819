module Rect = Tdf_geometry.Rect

type t = {
  index : int;
  outline : Rect.t;
  row_height : int;
  site_width : int;
  max_util : float;
}

let make ~index ~outline ~row_height ?(site_width = 1) ?(max_util = 1.0) () =
  assert (row_height > 0 && site_width > 0);
  assert (max_util > 0.0 && max_util <= 1.0);
  { index; outline; row_height; site_width; max_util }

let num_rows d = d.outline.Rect.h / d.row_height

let row_y d r = d.outline.Rect.y + (r * d.row_height)

let clamp_row d r = max 0 (min (num_rows d - 1) r)

let nearest_row d y =
  let rel = y - d.outline.Rect.y in
  let r = int_of_float (Float.round (float_of_int rel /. float_of_int d.row_height)) in
  clamp_row d r

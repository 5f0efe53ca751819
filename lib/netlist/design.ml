module Rect = Tdf_geometry.Rect

type t = {
  name : string;
  dies : Die.t array;
  cells : Cell.t array;
  macros : Blockage.t array;
  nets : Net.t array;
}

let make ~name ~dies ~cells ?(macros = [||]) ?(nets = [||]) () =
  assert (Array.length dies > 0);
  { name; dies; cells; macros; nets }

let n_dies t = Array.length t.dies

let n_cells t = Array.length t.cells

let die t i = t.dies.(i)

let cell t i = t.cells.(i)

let avg_cell_width t d =
  let n = Array.length t.cells in
  if n = 0 then 0.
  else begin
    let sum = Array.fold_left (fun acc c -> acc + Cell.width_on c d) 0 t.cells in
    float_of_int sum /. float_of_int n
  end

let validate t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let nd = n_dies t in
  Array.iteri
    (fun i c ->
      if c.Cell.id <> i then err "cell %d has id %d (ids must be dense)" i c.Cell.id;
      if Array.length c.Cell.widths <> nd then
        err "cell %s has %d widths for %d dies" c.Cell.name (Array.length c.Cell.widths) nd)
    t.cells;
  Array.iteri
    (fun i d ->
      if d.Die.index <> i then err "die %d has index %d" i d.Die.index;
      if Die.num_rows d = 0 then err "die %d has no complete row" i)
    t.dies;
  Array.iter
    (fun m ->
      if m.Blockage.die < 0 || m.Blockage.die >= nd then
        err "macro %s on invalid die %d" m.Blockage.name m.Blockage.die
      else begin
        let outline = t.dies.(m.Blockage.die).Die.outline in
        if not (Rect.contains_rect outline m.Blockage.rect) then
          err "macro %s escapes die %d outline" m.Blockage.name m.Blockage.die
      end)
    t.macros;
  Array.iter
    (fun m1 ->
      Array.iter
        (fun m2 ->
          if
            m1.Blockage.id < m2.Blockage.id
            && m1.Blockage.die = m2.Blockage.die
            && Rect.overlaps m1.Blockage.rect m2.Blockage.rect
          then err "macros %s and %s overlap" m1.Blockage.name m2.Blockage.name)
        t.macros)
    t.macros;
  Array.iter
    (fun n ->
      (* a loop, not a closure per net: every design load runs this *)
      for k = 0 to Array.length n.Net.pins - 1 do
        let p = n.Net.pins.(k) in
        if p < 0 || p >= n_cells t then err "net %s references missing cell %d" n.Net.name p
      done)
    t.nets;
  if !errors = [] then Ok () else Error (List.rev !errors)

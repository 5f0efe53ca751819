module Design = Tdf_netlist.Design
module Cell = Tdf_netlist.Cell
module Net = Tdf_netlist.Net
module Blockage = Tdf_netlist.Blockage
module Placement = Tdf_netlist.Placement
module Rect = Tdf_geometry.Rect
module Delta = Tdf_io.Delta

type t = {
  design : Design.t;
  base : Placement.t;
  seeds : int list;
  old_of_new : int array;
  new_of_old : int array;
  structural : bool;
}

exception Invalid of string

let fail fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let apply design prev delta =
  try
    let nd = Design.n_dies design in
    let n = Design.n_cells design in
    let check_cell c = if c < 0 || c >= n then fail "delta: cell %d out of range" c in
    let check_die d = if d < 0 || d >= nd then fail "delta: die %d out of range" d in
    let check_widths ws =
      if Array.length ws <> nd then
        fail "delta: %d widths given but the design has %d dies"
          (Array.length ws) nd
    in
    (* One op per existing cell, applied in a single pass over the ops. *)
    let claimed = Array.make n false in
    let claim c =
      check_cell c;
      if claimed.(c) then fail "delta: cell %d targeted by more than one op" c;
      claimed.(c) <- true
    in
    let moved = Hashtbl.create 16 in
    let resized = Hashtbl.create 16 in
    let removed = Array.make n false in
    let added = ref [] in
    let new_macros = ref [] in
    List.iter
      (fun (op : Delta.op) ->
        match op with
        | Delta.Move { cell; x; y; die } ->
          claim cell;
          check_die die;
          Hashtbl.replace moved cell (x, y, die)
        | Delta.Resize { cell; widths } ->
          claim cell;
          check_widths widths;
          Hashtbl.replace resized cell widths
        | Delta.Remove { cell } ->
          claim cell;
          removed.(cell) <- true
        | Delta.Add { name; x; y; die; widths } ->
          check_die die;
          check_widths widths;
          added := (name, x, y, die, widths) :: !added
        | Delta.Add_macro { name; die; x; y; w; h } ->
          check_die die;
          if w <= 0 || h <= 0 then fail "delta: macro %s has empty extent" name;
          new_macros := (name, die, Rect.make ~x ~y ~w ~h) :: !new_macros)
      delta;
    let added = List.rev !added and new_macros = List.rev !new_macros in
    (* Renumbered cell array: survivors in original order, added cells
       appended.  Moved cells get a fresh global-placement anchor.  A
       survivor no op names that keeps its id would be re-made equal to
       its old record, so the old record is shared. *)
    let n' = n - Array.fold_left (fun a r -> if r then a + 1 else a) 0 removed in
    let n' = n' + List.length added in
    let new_of_old = Array.make n (-1) in
    let old_of_new = Array.make n' (-1) in
    let k = ref 0 in
    for c = 0 to n - 1 do
      if not removed.(c) then begin
        new_of_old.(c) <- !k;
        old_of_new.(!k) <- c;
        incr k
      end
    done;
    let n_kept = !k and added_cells = Array.of_list added in
    let cells =
      Array.init n' (fun id ->
          if id >= n_kept then begin
            let name, x, y, die, widths = added_cells.(id - n_kept) in
            Cell.make ~id ~name ~widths ~gp_x:x ~gp_y:y ~gp_z:(float_of_int die) ()
          end
          else begin
            let c = old_of_new.(id) in
            let old = Design.cell design c in
            if (not claimed.(c)) && old.Cell.id = id then old
            else begin
              let widths =
                match Hashtbl.find_opt resized c with
                | Some ws -> ws
                | None -> old.Cell.widths
              in
              let gp_x, gp_y, gp_z =
                match Hashtbl.find_opt moved c with
                | Some (x, y, die) -> (x, y, float_of_int die)
                | None -> (old.Cell.gp_x, old.Cell.gp_y, old.Cell.gp_z)
              in
              Cell.make ~id ~name:old.Cell.name ~weight:old.Cell.weight ~widths
                ~gp_x ~gp_y ~gp_z ()
            end
          end)
    in
    (* Nets: remap pins through the renumbering, dropping removed pins and
       nets left with fewer than one pin.  With no cell removed the
       renumbering is the identity, so when every net already has its
       index as id, at least one pin and every pin in range, the remap
       would rebuild equal nets: the old array is shared.  Otherwise the
       remap runs array to array: one pass counts each net's surviving
       pins, a second fills the survivors. *)
    let rec unchanged i =
      i >= Array.length design.Design.nets
      ||
      let net = design.Design.nets.(i) in
      net.Net.id = i
      && Array.length net.Net.pins > 0
      && Array.for_all (fun p -> p >= 0 && p < n) net.Net.pins
      && unchanged (i + 1)
    in
    let nets =
      if n_kept = n && unchanged 0 then design.Design.nets
      else begin
        let old_nets = design.Design.nets in
        let live =
          Array.map
            (fun (net : Net.t) ->
              Array.fold_left
                (fun k p -> if new_of_old.(p) >= 0 then k + 1 else k)
                0 net.Net.pins)
            old_nets
        in
        let n_live = Array.fold_left (fun k l -> if l > 0 then k + 1 else k) 0 live in
        let j = ref 0 in
        Array.init n_live (fun id ->
            while live.(!j) = 0 do
              incr j
            done;
            let net = old_nets.(!j) in
            let pins = Array.make live.(!j) 0 and k = ref 0 in
            Array.iter
              (fun p ->
                let q = new_of_old.(p) in
                if q >= 0 then begin
                  pins.(!k) <- q;
                  incr k
                end)
              net.Net.pins;
            incr j;
            Net.make ~id ~name:net.Net.name ~pins ())
      end
    in
    let n_old_macros = Array.length design.Design.macros in
    let macros =
      Array.append design.Design.macros
        (Array.of_list
           (List.mapi
              (fun i (name, die, rect) ->
                Blockage.make ~id:(n_old_macros + i) ~name ~die ~rect ())
              new_macros))
    in
    let design' =
      Design.make ~name:design.Design.name ~dies:design.Design.dies ~cells
        ~macros ~nets ()
    in
    (match Design.validate design' with
    | Ok () -> ()
    | Error (e :: _) -> fail "delta: perturbed design invalid: %s" e
    | Error [] -> ());
    (* Base placement: previous legal coordinates, targets for the
       perturbed cells. *)
    let base =
      {
        Placement.x = Array.make n' 0;
        Placement.y = Array.make n' 0;
        Placement.die = Array.make n' 0;
      }
    in
    for id = 0 to n' - 1 do
      match old_of_new.(id) with
      | -1 ->
        let c = cells.(id) in
        base.Placement.x.(id) <- c.Cell.gp_x;
        base.Placement.y.(id) <- c.Cell.gp_y;
        base.Placement.die.(id) <- Cell.nearest_die c ~n_dies:nd
      | old -> (
        match Hashtbl.find_opt moved old with
        | Some (x, y, die) ->
          base.Placement.x.(id) <- x;
          base.Placement.y.(id) <- y;
          base.Placement.die.(id) <- die
        | None ->
          base.Placement.x.(id) <- prev.Placement.x.(old);
          base.Placement.y.(id) <- prev.Placement.y.(old);
          base.Placement.die.(id) <- prev.Placement.die.(old))
    done;
    (* Seeds: every perturbed cell, plus survivors a new macro landed on
       (they must vacate the blocked area even though no op names them). *)
    let seed = Array.make n' false in
    Hashtbl.iter (fun c _ -> if new_of_old.(c) >= 0 then seed.(new_of_old.(c)) <- true) moved;
    Hashtbl.iter (fun c _ -> if new_of_old.(c) >= 0 then seed.(new_of_old.(c)) <- true) resized;
    for id = n' - List.length added to n' - 1 do
      seed.(id) <- true
    done;
    if new_macros <> [] then
      for id = 0 to n' - 1 do
        if not seed.(id) then begin
          let r = Placement.cell_rect design' base id in
          if
            List.exists
              (fun (_, die, rect) ->
                die = base.Placement.die.(id) && Rect.overlaps rect r)
              new_macros
          then seed.(id) <- true
        end
      done;
    let seeds = ref [] in
    for id = n' - 1 downto 0 do
      if seed.(id) then seeds := id :: !seeds
    done;
    Ok
      {
        design = design';
        base;
        seeds = !seeds;
        old_of_new;
        new_of_old;
        structural = new_macros <> [];
      }
  with
  | Invalid msg -> Error msg
  | Invalid_argument msg -> Error ("delta: " ^ msg)

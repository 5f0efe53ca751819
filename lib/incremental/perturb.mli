(** Applying an ECO delta to a (design, legal placement) pair.

    The output is a perturbed design plus the {e base} placement the
    incremental engine starts from: unperturbed cells keep their previous
    legal coordinates byte-for-byte, moved/added cells sit at their target
    positions (usually overlapping — that is the overflow {!Eco} resolves).
    The perturbed design shares with the input every cell record that no
    op names and that keeps its id, and, when no cell is removed and every
    net is well formed (id equal to its index, at least one pin, pins in
    range), the input's net array; neither design is ever mutated.

    Cell removal keeps ids dense: cells after a removed one shift down,
    and the [new_of_old] / [old_of_new] maps record the renumbering.  A
    moved cell's global-placement anchor ([gp_x]/[gp_y]/[gp_z]) is updated
    to the target, so displacement — for the incremental engine and for a
    from-scratch run on the perturbed design alike — is measured against
    the ECO's intent, not the stale original position. *)

type t = {
  design : Tdf_netlist.Design.t;  (** the perturbed design *)
  base : Tdf_netlist.Placement.t;
      (** previous coordinates carried over; targets for moved/added cells *)
  seeds : int list;
      (** perturbed cells (new ids): moved, resized, added, and cells a new
          macro landed on — the dirty-region BFS roots *)
  old_of_new : int array;  (** new id → old id; -1 for added cells *)
  new_of_old : int array;  (** old id → new id; -1 for removed cells *)
  structural : bool;
      (** the grid graph differs from the original design's (macros were
          added), so a cached grid cannot be reused across the delta *)
}

val apply :
  Tdf_netlist.Design.t ->
  Tdf_netlist.Placement.t ->
  Tdf_io.Delta.t ->
  (t, string) result
(** Validates as it goes: cell ids in range, at most one op per cell,
    width vectors matching the die count, dies in range, and the perturbed
    design still passing {!Tdf_netlist.Design.validate} (e.g. a new macro
    may not overlap an existing one). *)

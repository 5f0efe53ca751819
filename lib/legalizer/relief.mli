(** Fallback for supply bins whose augmenting-path search dead-ends.

    In extreme hot spots the whole-cell flow granularity can leave a bin
    with no realizable path (every branch needs to relay more width than
    intermediate bins hold).  [relieve] then relocates one cell directly to
    the cheapest bin with enough free capacity — guaranteed progress that
    keeps the driver's overflow strictly decreasing, at locally greedy
    (Tetris-like) displacement cost.  Rare on realistic utilizations; the
    driver counts its uses in the run statistics. *)

module Grid = Tdf_grid.Grid
(** Canonical grid substrate (no local shim module). *)

val relieve :
  ?mask:bool array ->
  Config.t ->
  Grid.t ->
  src:Grid.bin ->
  (int * Grid.bin) option
(** Move the cheapest movable cell of [src] into the nearest bin whose
    demand covers the cell's width (respecting the D2D configuration and
    die utilization caps, {!Grid.util_ok}).  The cost is
    {!Grid.est_disp}; ties go to the earliest fragment of [src]'s list
    ({!Grid.first_in_bin}),
    then to the lowest bin id.  Rows are visited outward from the cell's
    nearest row, and the bins of each row segment outward from the one
    holding the cell's initial x; a direction stops once its distance
    alone (the row's y distance, then that plus the bin's x distance)
    can no longer win, which picks exactly what a scan of every bin
    would.
    Returns the [(cell, destination)] taken, or [None] when no cell of
    [src] fits anywhere.  [mask], when given, restricts
    destinations to bins [b] with [mask.(b) = true] (the incremental
    legalizer's frozen-region contract). *)

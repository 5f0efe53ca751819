(** Realizing an augmenting path (§III-C): move the selected fractional
    cells between adjacent bins along the path, backtracking from the
    candidate leaf to the root supply bin. *)

module Grid = Tdf_grid.Grid
(** Canonical grid substrate (no local shim module). *)

type scratch
(** Reusable realization buffers; create one per flow pass and thread it
    through every {!realize} call to hoist the per-augmentation path-array
    allocation. *)

val create_scratch : unit -> scratch

val edge_kind : Grid.t -> src:Grid.bin -> dst:Grid.bin -> Grid.edge_kind
(** Kind of the (existing) edge between two adjacent bins on a path. *)

val realize :
  Config.t ->
  Grid.t ->
  scratch ->
  Augment.path ->
  int
(** [realize cfg grid scratch path] executes the movements.  Selections are
    recomputed on the live grid with the flow targets recorded during the
    search; if intervening moves (a straddling cell pulled out by a
    downstream whole-cell move) reduced availability, the step moves what
    remains.  Returns the number of cells moved across dies (the #Move
    statistic of Table V). *)

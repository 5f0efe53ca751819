(** Inert remnant of the removed tile-sharded flow pass.

    The flow pass is one sequential loop ({!Flow3d.local_pass}); nothing
    is sharded.  This module survives only because the performance
    ledger ([bench/ledger/ledger.ml]) still calls {!set_tiles}; it goes
    once the ledger stops doing so. *)

val set_tiles : int -> unit
(** Does nothing.  Kept for [bench/ledger] only. *)

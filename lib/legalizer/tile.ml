(* Kept for bench/ledger, which still calls [set_tiles 1]. *)
let set_tiles (_ : int) = ()

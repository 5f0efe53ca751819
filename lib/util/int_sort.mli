(** Sorting a range of an [int array] in place, allocating nothing. *)

val sort_range :
  key:int array ->
  tie:int array ->
  int array ->
  tmp:int array ->
  lo:int ->
  hi:int ->
  unit
(** [sort_range ~key ~tie a ~tmp ~lo ~hi] sorts [a.(lo .. hi-1)], whose
    elements index [key] and [tie], by [key], then [tie], both
    increasing; elements equal on both keep their order.  A merge sort
    over insertion-sorted runs of 8, using [tmp.(lo .. hi-1)] as its
    buffer ([tmp] at least [hi] long). *)

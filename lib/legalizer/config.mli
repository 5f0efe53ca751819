(** Tuning knobs of the 3D-Flow legalizer.

    The default values are the paper's (§III-B, §III-F).  The Bonn baseline
    and the w/o-D2D ablation are expressed as configurations of the same
    engine; see {!bonn_emulation} and {!no_d2d}. *)

type t = {
  alpha : float;
      (** branch-and-bound slack: branches costlier than
          [(1 + α)·cost(p_best)] are pruned (Alg. 1 line 13).  0.1 in the
          paper. *)
  bin_width_factor : float;
      (** bin width w_v as a multiple of the average cell width w̄_c during
          flow legalization; 10 in the paper. *)
  d2d_edges : bool;  (** allow die-to-die movement (Table V ablation). *)
  allow_negative_cost : bool;
      (** keep negative movement costs (moves back toward initial
          positions).  BonnPlaceLegal clamps costs at 0. *)
  exhaustive : bool;
      (** explore the whole reachable graph per supply bin before picking
          the best path (vanilla Dijkstra SSP, as BonnPlaceLegal); the
          branch-and-bound pruning is disabled. *)
  d2d_base_cost : float;
      (** fixed cost of crossing a D2D edge, in multiples of the source
          die's row height.  Models the hybrid-bonding terminal
          reassignment; without it, gratuitous crossings are free (same
          planar position) and the congestion bonus of Eq. 7 makes the flow
          zig-zag between dies, inflating #Move far beyond the <1% of cells
          the paper reports in Table V. *)
  post_opt_passes : int;
      (** rounds of the §III-E cycle-canceling post-optimization; 0 turns
          it off. *)
  max_retries : int;
      (** attempts to resolve one supply bin before declaring it stuck. *)
}

val default : t
(** The paper's configuration: α = 0.1, w_v = 10·w̄_c, D2D on, negative
    costs on, up to three post-opt rounds.  Post-opt always runs at
    5·w̄_c ([Flow3d.run]). *)

val no_d2d : t
(** [default] without die-to-die edges — the "w/o. D2D" column of
    Table V. *)

val bonn_emulation : t
(** BonnPlaceLegal [10] emulation: 2D per-die graphs (no D2D), exhaustive
    Dijkstra search, non-negative costs, no post-optimization. *)

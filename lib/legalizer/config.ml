type t = {
  alpha : float;
  bin_width_factor : float;
  d2d_edges : bool;
  allow_negative_cost : bool;
  exhaustive : bool;
  d2d_base_cost : float;
  post_opt_passes : int;
  max_retries : int;
}

let default =
  {
    alpha = 0.1;
    bin_width_factor = 10.;
    d2d_edges = true;
    allow_negative_cost = true;
    exhaustive = false;
    d2d_base_cost = 2.0;
    post_opt_passes = 3;
    max_retries = 4;
  }

let no_d2d = { default with d2d_edges = false }

let bonn_emulation =
  {
    default with
    d2d_edges = false;
    allow_negative_cost = false;
    exhaustive = true;
    post_opt_passes = 0;
  }

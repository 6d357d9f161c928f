#!/usr/bin/env python3
"""Map the dynamical regime over a (Delta L, Theta) grid.

For each point the noise correlation length lambda_c(Theta) is computed
for the chosen mass, then the regime label is picked by comparing the
physical scale Delta L with lambda_c and a fixed nonlocality length
lambda_q.  Prints an ASCII map (one letter per cell) plus the legend.
"""

import argparse

import numpy as np

from qhydro.config import length_or_inf, quantity
from qhydro.scales import (
    DEFAULT_RATIO_THRESHOLD,
    INDETERMINATE,
    LOCAL_STOCHASTIC,
    NONLOCAL_DETERMINISTIC,
    NONLOCAL_STOCHASTIC,
    classify_regime,
    correlation_length,
)

LETTERS = {
    NONLOCAL_DETERMINISTIC: "D",
    NONLOCAL_STOCHASTIC: "S",
    LOCAL_STOCHASTIC: "L",
    INDETERMINATE: ".",
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    # the quantities are read as the CLI reads their config keys, so a
    # malformed one is a usage error
    ap.add_argument("--mass", type=quantity, default="4.0026 u")
    ap.add_argument("--lambda-q", type=length_or_inf, default="1e-8 m",
                    help="nonlocality length; 'inf' for an unbounded force range")
    ap.add_argument("--theta-min", type=float, default=0.05, help="K")
    ap.add_argument("--theta-max", type=float, default=50.0, help="K")
    ap.add_argument("--dl-min", type=quantity, default="1e-12 m")
    ap.add_argument("--dl-max", type=quantity, default="1e-6 m")
    ap.add_argument("--n-theta", type=int, default=24)
    ap.add_argument("--n-dl", type=int, default=32)
    ap.add_argument("--ratio", type=float, default=DEFAULT_RATIO_THRESHOLD,
                    help="threshold standing in for 'much smaller than'")
    args = ap.parse_args()

    mass, lam_q = args.mass, args.lambda_q
    thetas = np.geomspace(args.theta_min, args.theta_max, args.n_theta)
    dls = np.geomspace(args.dl_min, args.dl_max, args.n_dl)

    print(f"mass = {mass:.4e} kg, lambda_q = {lam_q}, ratio = {args.ratio}")
    print("rows: Theta (K, descending); columns: Delta L (m, ascending)")
    for theta in reversed(thetas):
        lam_c = correlation_length(mass, theta)
        row = "".join(LETTERS[classify_regime(dl, lam_c, lam_q, args.ratio)]
                      for dl in dls)
        print(f"{theta:8.3f} K  {row}")
    ticks = [0, args.n_dl // 2, args.n_dl - 1]
    print(" " * 12 + " ".join(f"{dls[i]:.1e}" for i in ticks))
    print("legend: D nonlocal_deterministic, S nonlocal_stochastic, "
          "L local_stochastic, . indeterminate")


if __name__ == "__main__":
    main()

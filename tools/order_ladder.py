"""Print the order-of-accuracy ladder of the explicit, collocation and
delayed Picard routes.

Usage: python tools/order_ladder.py [ROOT]

Imports bsvielab from ROOT/src (default: the checkout this file is in) and
measures, for N = 25, 50, ..., 1600 on [0, 1], the error of five
quantities, four of them against closed forms:

    psi_constant   Psi of the constant kernel c = 0.5, against c e^{c(s-t)};
    psi_example33  Psi of example33 (uniform delay), against (1 - e^{-2u})/2;
    y0_explicit    Y(0) of the resolvent formula for f0 = 1, c = 0.5,
                   against e^{cT};
    y0_collocation Y(0) of reduced collocation for the same data;
    y_delayed      the delayed Picard profile for f0 = 1, c = 0.5 and a
                   uniform delay, which has no closed form: its error at
                   N is sup |y_N - y_2N| over the shared nodes, taken
                   while 2N stays on the ladder (N <= 800).

Errors are sup norms over the triangle for Psi.  It prints the error
ladder, the ratio per doubling of N and the least-squares order fitted
over all of N.  The trapezoid rule behind every route is second order, so
each order should read 2.00.  The tier-1 gate in tests/test_resolvent.py
calls ``ladder`` and ``fitted_order`` over N = 25..200; this script runs
the same code further out.  It is a tool, not a test: pytest does not
collect it.  The full ladder takes about 3 s and 280 MB on a 2-vCPU host.
"""

from __future__ import annotations

import functools
import math
import os
import sys

import numpy as np

C = 0.5
LADDER = (25, 50, 100, 200, 400, 800, 1600)
QUANTITIES = ("psi_constant", "psi_example33", "y0_explicit",
              "y0_collocation", "y_delayed")


@functools.lru_cache(maxsize=2)
def delayed_profile(n: int) -> np.ndarray:
    """Picard's Y on the grid with n steps, f0 = 1, G = c, uniform delay."""
    from bsvielab.kernels import DelayedGenerator, TriangularGrid, \
        constant_kernel
    from bsvielab.measures import Uniform
    from bsvielab.oracles import build_delayed_operator, solve_delayed_picard

    op = build_delayed_operator(DelayedGenerator(
        Uniform(1.0), constant_kernel(C), TriangularGrid(1.0, n)))
    return solve_delayed_picard(np.ones(n + 1), op).y


def errors(n: int) -> dict[str, float]:
    """Error of each quantity on the grid with n steps over [0, 1]."""
    from bsvielab.kernels import DelayedGenerator, TriangularGrid, \
        build_phi, constant_kernel, example33_kernel, example33_reference, \
        resolvent
    from bsvielab.measures import DiracAt, Uniform
    from bsvielab.oracles import solve_reduced_collocation
    from bsvielab.solver import mean_Y

    grid = TriangularGrid(1.0, n)
    lag = grid.nodes[None, :] - grid.nodes[:, None]
    upper = lag >= 0.0
    u = np.clip(lag, 0.0, None)

    phi = build_phi(DelayedGenerator(DiracAt(1.0, 0.0), constant_kernel(C),
                                     grid))
    psi = resolvent(phi, 1e-10)
    exact = np.where(upper, C * np.exp(C * u), 0.0)
    phi33 = build_phi(DelayedGenerator(Uniform(1.0), example33_kernel(), grid))
    psi33 = resolvent(phi33, 1e-10)
    exact33 = np.where(upper, example33_reference("derived")(u), 0.0)

    y_exp = mean_Y(np.ones(n + 1), psi)[0]
    y_col = solve_reduced_collocation(np.ones(n + 1), phi)[0]
    y_true = math.exp(C)
    y_del = math.nan if 2 * n > LADDER[-1] else float(
        np.abs(delayed_profile(n) - delayed_profile(2 * n)[::2]).max())
    return {
        "psi_constant": float(np.abs(psi.values - exact).max()),
        "psi_example33": float(np.abs(psi33.values - exact33).max()),
        "y0_explicit": abs(float(y_exp) - y_true),
        "y0_collocation": abs(float(y_col) - y_true),
        "y_delayed": y_del,
    }


def ladder(ns) -> dict[str, list[float]]:
    """Errors of every quantity at each N of ns."""
    rows = [errors(n) for n in ns]
    return {q: [row[q] for row in rows] for q in QUANTITIES}


def fitted_order(ns, errs) -> float:
    """Least-squares slope p of log err = const - p log N over the N whose
    error was measured (not NaN)."""
    ns, errs = np.asarray(ns, dtype=float), np.asarray(errs)
    ok = ~np.isnan(errs)
    return -float(np.polyfit(np.log(ns[ok]), np.log(errs[ok]), 1)[0])


def main(ns=LADDER) -> None:
    table = ladder(ns)
    print("N".rjust(6) + "".join(q.rjust(16) for q in QUANTITIES))
    for i, n in enumerate(ns):
        print(f"{n:6d}" + "".join(f"{table[q][i]:16.4e}" for q in QUANTITIES))
    for i in range(1, len(ns)):
        print(f"{ns[i - 1]:>4}->{ns[i]:<4}" + "".join(
            f"{table[q][i - 1] / table[q][i]:16.3f}" for q in QUANTITIES))
    print("order".rjust(6) + "".join(
        f"{fitted_order(ns, table[q]):16.3f}" for q in QUANTITIES))


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    root = os.path.abspath(sys.argv[1]) if len(sys.argv) == 2 else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    main()

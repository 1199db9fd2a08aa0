"""Tour of the dispersion symbol m_T and its bifurcation geometry.

Prints symbol values, the turning point of xi -> m_T(xi), the
small/large-tension asymptotes of kappa0, and solves the (2, 5) double
bifurcation point across a range of surface tensions.
"""

import math

from capwhitham import (
    WaveNumberPair,
    double_bifurcation,
    eval_symbol,
    eval_symbol_deriv,
    turning_point,
)


def main():
    T = 0.25
    print(f"symbol values at T = {T}")
    print(f"  m_T({0.0:5.2f}) = {eval_symbol(T, 0.0):.12f}")
    for xi in (0.5, 1.0, 2.5, 10.0):
        print(f"  m_T({xi:5.2f}) = {eval_symbol(T, xi):.12f}"
              f"   m_T'({xi:5.2f}) = {eval_symbol_deriv(T, xi):+.12f}")

    print("\nturning point xi_T (minimum of m_T for T < 1/3):")
    for T in (0.05, 0.1215, 0.25, 0.32):
        xi_T = turning_point(T)
        print(f"  T = {T:6.4f}: xi_T = {xi_T:.10f}, m_T(xi_T) = {eval_symbol(T, xi_T):.10f}")

    pair = WaveNumberPair(2, 5)
    print(f"\ndouble bifurcation points for pair {pair.astuple()}:")
    print(f"  {'T':>8s} {'c0':>18s} {'kappa0':>18s}")
    for T in (0.01, 0.05, 0.1215, 0.2, 0.3, 0.33):
        point = double_bifurcation(pair, T)
        print(f"  {T:8.4f} {point.c0:18.14f} {point.kappa0:18.14f}")

    print("\nendpoint asymptotes of kappa0 (relative deviation):")
    for T in (1e-3, 1e-4):
        point = double_bifurcation(pair, T)
        approx = 1.0 / math.sqrt(pair.k1 * pair.k2 * T)
        print(f"  T = {T:.0e}:      kappa0 / (k1 k2 T)^(-1/2) - 1 = "
              f"{point.kappa0 / approx - 1.0:+.2e}")
    for delta in (1e-3, 1e-4):
        T = 1.0 / 3.0 - delta
        point = double_bifurcation(pair, T)
        approx = math.sqrt(delta * 45.0 / (pair.k1 ** 2 + pair.k2 ** 2))
        print(f"  T = 1/3 - {delta:.0e}: kappa0 / asymptote - 1        = "
              f"{point.kappa0 / approx - 1.0:+.2e}")


if __name__ == "__main__":
    main()

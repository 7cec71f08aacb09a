"""Simulating a hybrid equation with proportional delay.

The state obeys dx = f dt + g dB where both coefficients may read the
whole segment x(theta*t) for theta in [theta_lower, 1], and switch with
the Markov regime.  This script builds a small two-regime model from the
coefficient building blocks, integrates it, and pokes at the resulting
dense paths: pointwise values, a segment, and CSV export.  A path is
read piecewise linearly between its nodes, as ``np.interp`` does.

Run:  python3 demos/02_hybrid_paths.py
"""
import io

import numpy as np

from hpsfde import (IntegratorConfig, Kernel, Measure, ModelSpec,
                    PantographTerm, PolynomialTerm, integrate_path,
                    make_generator, run_batch, write_csv)


def build_model():
    # regime 1: strong cubic damping plus a delayed feedback read at
    # theta = 0.6; regime 2: mild linear growth with delayed noise
    nu = Measure.point_mass(0.6)
    kern = Kernel(0.5)
    drift = (
        (PolynomialTerm([(1, -2.0), (3, -1.0)]),
         PantographTerm(0.4, nu, kernel=kern, signed=True)),
        (PolynomialTerm([(1, 0.05)]),),
    )
    diffusion = (
        (PantographTerm(0.3, nu),),
        (PolynomialTerm([(1, 0.2)]),),
    )
    return ModelSpec(theta_lower=0.5, t0=1.0,
                     generator=make_generator([[-1.0, 1.0], [2.0, -2.0]]),
                     drift=drift, diffusion=diffusion,
                     initial_segment=0.5)


def main():
    m = build_model()
    path = integrate_path(m, IntegratorConfig(dt=0.005, T=6.0), i0=1, seed=11)

    def x(t):
        return np.interp(t, path.times, path.values)

    print("one path on [1, 6], %d stored nodes" % len(path.times))
    for t in (1.0, 2.0, 4.0, 6.0):
        print("  x(%g) = %9.5f" % (t, x(t)))

    # the segment at t = 4: the delayed states the coefficients see
    print("\nsegment anchored at t=4 (covers [%g, 4]):"
          % (path.theta_lower * 4.0))
    for theta in (0.5, 0.6, 0.8, 1.0):
        print("  x(%.1f * 4) = %9.5f" % (theta, x(theta * 4.0)))

    # the pre-history is part of the path too
    print("\ninitial segment: x(0.6) = %.5f (constant 0.5)" % x(0.6))

    # ensembles: same model, many paths, deterministic in the root seed
    batch = run_batch(m, IntegratorConfig(dt=0.005, T=6.0), n_paths=400,
                      i0=1, root_seed=11, keep_paths=False)
    x_end = batch.uniform_values[:, -1]
    print("\n400-path ensemble at T=6: mean %.5f, sd %.5f, exploded %d"
          % (x_end.mean(), x_end.std(), batch.n_exploded))

    # dense paths export to CSV (time, regime, state columns)
    buf = io.StringIO()
    write_csv(path, buf)
    lines = buf.getvalue().splitlines()
    print("\nCSV export: %d rows, header %r, first row %r"
          % (len(lines) - 1, lines[0], lines[1]))


if __name__ == "__main__":
    main()

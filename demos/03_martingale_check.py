"""Validating a simulation against the generator identity.

For a smooth V(x, i) the process V(x(t), r(t)) minus the running
integral of LV is a local martingale, where LV collects the drift,
diffusion-trace, and regime-coupling parts.  Averaged
over an ensemble the residual

    E[V(end)] - E[V(start)] - E[int LV dt]

must vanish up to Monte Carlo noise and an O(dt) scheme bias.  This is a
sharp end-to-end check: it catches wrong coefficients, wrong regime
bookkeeping, and wrong LV algebra alike.

Run:  python3 demos/03_martingale_check.py  (under a second)
"""
from hpsfde import (IntegratorConfig, lv_profile, martingale_residual,
                    preset, preset_lyapunov, run_batch)


def main():
    m = preset("exp_stable")
    fam = preset_lyapunov("exp_stable")

    # LV at the nodes of one path, a one-path batch, and its integral:
    # that path's share of the residual below
    one = run_batch(m, IntegratorConfig(dt=0.01, T=2.0), n_paths=1, i0=1,
                    root_seed=1)
    times, values, integral = lv_profile(fam, one, 0)
    print("one path: LV at t0 = %.4f, at T = %.4f, integral = %.4f"
          % (values[0], values[-1], integral))

    # ensemble residual at two step sizes; the bias shrinks linearly
    print("\nensemble residual (2000 paths, [1, 2]):")
    for dt in (0.02, 0.01, 0.005):
        batch = run_batch(m, IntegratorConfig(dt=dt, T=2.0), n_paths=2000,
                          i0=1, root_seed=5, keep_paths=True)
        stat = martingale_residual(fam, batch, 2.0)
        allow = 5.0 * dt * abs(stat.mean_integral)
        print("  dt=%-6g residual=%9.5f stderr=%.5f  z=%6.2f  "
              "z after O(dt) allowance=%.2f"
              % (dt, stat.residual, stat.stderr, stat.z,
                 stat.z_with_allowance(allow)))
        # the mean LV integral over the intervals spent in each regime
        for i, part in enumerate(stat.regime_parts, 1):
            print("    regime %d: drift %9.5f diffusion %8.5f coupling %8.5f"
                  % (i, part.drift_part, part.diffusion_part,
                     part.coupling_part))
    print("\nthe raw z drifts negative as dt grows (Euler bias); the "
          "allowance 5*dt*|E int LV| absorbs exactly that part.")


if __name__ == "__main__":
    main()

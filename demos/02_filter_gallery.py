"""The four regularization filters side by side.

Every spectral method in this package is "apply a scalar function
G_lambda(u) to the Gram eigenvalues", and a filter spec carries its level
lambda. The filters differ in how sharply they cut off small eigenvalues
and in their qualification — the largest smoothness exponent they can
exploit. Each is one ``FilterSpec(kind, kappa_sq, lambda)``; Landweber's
spec also holds its steps. This script builds all four at the level
1/sum(eta) of a 40-step Landweber schedule, prints each filter's declared constants, runs
the numeric admissibility check, and then shows that gradient descent
(Landweber) really is one of them: its filter values match the forward
recurrence g <- g * (1 - eta * u) + eta exactly.
"""

from __future__ import annotations

import numpy as np

from kdc import FilterSpec, filter_value, landweber, validate_filter

KAPPA_SQ = 6.573641035543138


def main() -> None:
    eta = 1.0 / (2.0 * 1.01 * KAPPA_SQ)
    lw = landweber([eta] * 40, KAPPA_SQ)
    # Landweber's schedule sets its level; the other filters are built there too.
    lam = lw.lam
    specs = [FilterSpec(kind, KAPPA_SQ, lam) for kind in ("tikhonov", "cutoff", "tikhonov_bc")]
    specs.append(lw)

    print(f"{'filter':<12} {'qual':>6} {'E':>4} {'F':>7}   admissibility check")
    for spec in specs:
        report = validate_filter(spec)
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{spec.kind:<12} {spec.qualification:>6} {spec.const_e:>4} "
            f"{spec.const_f:>7.4f}   value={report.max_value_lhs:.4f}/{spec.const_e} "
            f"residual={report.max_residual_lhs:.4f}/{spec.const_f:.4f} {status}"
        )

    print(f"\nlandweber schedule: 40 steps of eta={eta:.6f}")
    print(f"  total step mass sum(eta) = {np.sum(lw.step_sizes):.6f}")
    print(f"  effective lambda 1/sum(eta) = {lam:.6f}")

    # Forward recurrence vs the filter evaluation.
    u = np.linspace(0.0, KAPPA_SQ, 7)
    g = np.zeros_like(u)
    for _ in range(40):
        g = g * (1.0 - eta * u) + eta
    gap = np.max(np.abs(g - filter_value(lw, u)))
    print(f"  recurrence vs filter_value: max gap = {gap:.3e}")

    print("\nfilter values at lambda = effective lambda of the schedule:")
    print(f"{'u':>10} {'tikhonov':>12} {'cutoff':>12} {'bias-corr':>12} {'landweber':>12}")
    for ui in np.geomspace(1e-3, KAPPA_SQ, 6):
        row = [filter_value(s, ui) for s in specs]
        print(f"{ui:>10.4f} " + " ".join(f"{v:>12.6f}" for v in row))


if __name__ == "__main__":
    main()

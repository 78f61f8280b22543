"""The regime planner and the step-size sanity checks behind it.

Each regime tag encodes one published choice of (step size, batch size,
iterations) or regularization level as a function of N, the partition
count, and the problem exponents. This script prints the whole menu for
one configuration, shows the step-size clamp kicking in, and evaluates the
variance-control window condition that certifies a constant schedule.
"""

from __future__ import annotations

import math

from kdc import ConstraintViolationError, build_problem, check_step_condition, plan_parameters
from kdc.trainers import SA_REGIMES, SGM_REGIMES

N_TOTAL = 4096
ZETA = 0.5
GAMMA = 1.0
KAPPA_SQ = build_problem(dim=200, gamma=GAMMA, zeta=ZETA).kappa_sq


def main() -> None:
    print(f"N={N_TOTAL}, m=8, zeta={ZETA}, gamma={GAMMA}, kappa^2={KAPPA_SQ:.4f}\n")
    print(f"{'regime':<8} {'alg':<4} {'eta or lambda':>14} {'b':>5} {'T':>7}  notes")
    for regime in SGM_REGIMES + SA_REGIMES:
        try:
            plan = plan_parameters(regime, N_TOTAL, 8, ZETA, GAMMA, kappa_sq=KAPPA_SQ)
        except ConstraintViolationError as exc:
            print(f"{regime:<8} {'-':<4} {'-':>14} {'-':>5} {'-':>7}  skipped: {exc}")
            continue
        if plan.algorithm == "sgm":
            notes = []
            if plan.clamped:
                notes.append(f"clamped from eta={plan.eta_raw:.4f}")
            if plan.partition_warning:
                notes.append("m beyond averaging guarantee")
            print(
                f"{regime:<8} {plan.algorithm:<4} {plan.eta:>14.6f} "
                f"{plan.batch_size:>5} {plan.iterations:>7}  {'; '.join(notes)}"
            )
        else:
            print(f"{regime:<8} {plan.algorithm:<4} {plan.lam:>14.6f} {'-':>5} {'-':>7}")

    plan = plan_parameters("cor1.1", N_TOTAL, 16, ZETA, GAMMA, kappa_sq=KAPPA_SQ)
    print(f"\nat m=16 the cor1.1 raw step m/sqrt(N) = {plan.eta_raw:.6f} exceeds the")
    print(
        f"stability cap 1/(1.01 kappa^2) = {1 / (1.01 * KAPPA_SQ):.6f}, "
        f"so the planner clamps it (clamped={plan.clamped}, eta={plan.eta:.6f})."
    )

    theory = plan_parameters(
        "cor1.1", N_TOTAL, 16, ZETA, GAMMA, kappa_sq=KAPPA_SQ, theory_compliant=True
    )
    print(f"theory-compliant planning tightens it further to {theory.eta:.6f}")
    print(f"(= 1/(4 * 1.01 * kappa^2 * ln T) with T={theory.iterations}).")

    print("\nvariance-control window condition for constant schedules, T=100:")
    for eta in (1.0 / (4.0 * KAPPA_SQ * math.log(100.0)), 1.0 / KAPPA_SQ):
        rep = check_step_condition(eta, 100, KAPPA_SQ)
        status = "satisfied" if rep.passed else "violated"
        print(f"  eta={eta:.6f}: worst S_t/threshold = {rep.worst_ratio:.4f} -> {status}")


if __name__ == "__main__":
    main()

"""Mini-batch SGM is full-batch gradient descent plus zero-mean index noise.

Conditioned on the data, the only randomness left in SGM is which indices
each batch draws. Averaging the SGM predictor over many index seeds should
therefore reproduce the batch gradient-descent predictor on the same data.
``gm_local`` computes that predictor as the Landweber spectral filter, which
is what T steps of gradient descent are; the script first checks it against
the gradient-descent loop written out in coefficient space, then averages
SGM over index seeds, all on one fixed sample.
"""

from __future__ import annotations

import numpy as np

from kdc import (
    Constant,
    SgmConfig,
    build_problem,
    excess_risk_exact,
    gm_local,
    gram,
    mode_projection,
    sample_dataset,
    sgm_local,
    spectral_kernel,
)

N = 64
BATCH = 4
ITERATIONS = 30
ETA = 0.1


def main() -> None:
    problem = build_problem(dim=20, gamma=1.0, zeta=0.5, source_norm=1.0, noise_sd=0.1)
    kernel = spectral_kernel(problem)
    data = sample_dataset(problem, N, seed=42)
    print(f"one dataset of n={N}, eta={ETA}, T={ITERATIONS}, batch={BATCH}")

    batch = gm_local(data, Constant(ETA), ITERATIONS, kernel)
    batch_proj = mode_projection(problem, batch)
    print(f"batch GD excess risk      : {excess_risk_exact(batch, problem).excess_risk:.6f}")

    # The same T steps as a loop: alpha <- alpha - (eta/n) (K alpha - y).
    k = gram(kernel, data.inputs)
    alpha = np.zeros(N)
    for _ in range(ITERATIONS):
        alpha -= (ETA / N) * (k @ alpha - data.labels)
    gap = np.max(np.abs(alpha - batch.coeffs)) / np.max(np.abs(alpha))
    print(f"GD loop vs filter route   : relative coefficient gap = {gap:.3e}")
    if not gap <= 1e-10:
        raise SystemExit("the Landweber filter does not reproduce the gradient-descent loop")

    print("\naveraging SGM over index seeds (same data throughout):")
    print(f"{'seeds':>6} {'|mean proj - GD proj|':>22} {'mean SGM risk':>14}")
    running = np.zeros(problem.dim)
    risks = []
    count = 0
    for n_seeds in (1, 10, 100, 1000):
        while count < n_seeds:
            config = SgmConfig(
                partitions=1,
                batch_size=BATCH,
                iterations=ITERATIONS,
                step_schedule=Constant(ETA),
                base_seed=count,
            )
            model = sgm_local(data, config, kernel, 0)
            running += mode_projection(problem, model)
            risks.append(excess_risk_exact(model, problem).excess_risk)
            count += 1
        drift = float(np.linalg.norm(running / count - batch_proj))
        print(f"{count:>6} {drift:>22.6f} {np.mean(risks):>14.6f}")

    print(
        "\nThe projection of the seed-averaged SGM predictor drifts toward the\n"
        "batch iterate at the usual 1/sqrt(k) Monte Carlo pace, while each\n"
        "individual SGM run pays a small variance premium over batch GD."
    )


if __name__ == "__main__":
    main()

"""What the benchmark's workloads contain and what their outputs must look like.

Plain data, with no kdc or numpy import: the parent process uses it to check
outputs, so the expected structure is written down here rather than
computed by the code under test. See README.md for why each workload was
chosen.
"""
from __future__ import annotations

WORKLOADS = ("rate_sweep", "single_machine")

#: The problem family every workload uses (gamma is set per experiment).
PROBLEM = dict(dim=200, zeta=0.5, source_norm=1.0, noise_sd=0.3)

#: The paper's three headline rate experiments: (label, regime, algorithm, gamma).
RATE_EXPERIMENTS = (
    ("A1", "cor1.1", "sgm", 1.0),
    ("A2", "cor2.2", "sgm", 0.5),
    ("A3", "cor5", "sa", 1.0),
)
RATE_M_RULE = "pow:0.4"
#: Sample size -> partition count that RATE_M_RULE resolves to (floor(N^0.4),
#: rounded down to a divisor of N).
RATE_M = {1024: 16, 2048: 16, 4096: 16, 8192: 32}
RATE_REPLICATIONS = 2

#: One m=1 point per estimator family: (label, regime, algorithm).
SINGLE_POINTS = (("m1", "cor6", "sa"), ("m1", "cor3.4", "sgm"))
SINGLE_N = 2048

def sweep_key(label: str, regime: str, n_total: int) -> str:
    return f"{label} {regime} N={n_total}"


def expected_ops(workload: str) -> list[dict]:
    """The operations one pass of ``workload`` must return, in order, with
    the structural fields each must carry whatever the seed."""
    if workload == "single_machine":
        return [{"key": sweep_key(label, regime, SINGLE_N), "n_total": SINGLE_N,
                 "m": 1, "n_local": SINGLE_N} for label, regime, _ in SINGLE_POINTS]
    return [{"key": sweep_key(label, regime, n), "n_total": n, "m": m, "n_local": n // m}
            for label, regime, _, _ in RATE_EXPERIMENTS for n, m in RATE_M.items()]

#!/usr/bin/env python3
"""Plan one protocol instance and stress it against every device model.

Runs the honest device at a few visibilities plus the whole adversary
suite, printing abort rates and the empirical bias of the emitted bit.
A sound protocol either aborts a cheating device or keeps its bias under
the certified target; the script exits 1 if any device does neither
(a LEAK verdict).

CI compares the output of `--runs 50`, its plan timing stripped, with
`scripts/attack_bench_runs50.txt`, and that of `--runs 50 --delta 0.001`
with `scripts/attack_bench_runs50_delta0.001.txt`.  The first plan has
N ~ 6.6e13 and draws its runs aggregated; the second has N = 17577 and
materializes every round.  Record a file anew when a change is meant to
move its numbers.
"""

import argparse
import math
import sys
import time

from randamp.protocol import plan_protocol
from randamp.simulator import (
    AdversarialDevice,
    HonestDevice,
    attack_suite,
    estimate_output_bias,
)
from randamp.strategies import NoiseModel, ghz_mermin_strategy


def leaks(est, target: float) -> bool:
    """Emits bits often (abort rate below 0.95) with a bias more than
    3 sigma above the target."""
    if est.no_data:
        return False
    sigma = math.sqrt(0.25 / est.emitted)
    return est.abort_rate < 0.95 and est.bias > target + 3 * sigma


def describe(name: str, est, target: float) -> str:
    if est.no_data:
        return f"{name:24s} abort_rate=1.000  (no bit ever emitted)"
    verdict = "LEAK" if leaks(est, target) else "ok"
    return (
        f"{name:24s} abort_rate={est.abort_rate:.3f}  "
        f"bias={est.bias:.4f} (ci {est.bias_interval[0]:.4f}..{est.bias_interval[1]:.4f})  {verdict}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=0.3)
    parser.add_argument("--eps-prime", type=float, default=0.29)
    parser.add_argument("--delta", type=float, default=0.9)
    parser.add_argument("--runs", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    t0 = time.perf_counter()
    params = plan_protocol(args.epsilon, args.eps_prime, args.delta)
    print(
        f"plan: N={params.n_rounds}  x={params.x:.3e}  "
        f"p_crit={params.p_crit:.6f}  threshold={params.p_threshold:.9f}  "
        f"({time.perf_counter() - t0:.1f}s)"
    )

    # the planned threshold sits just below 1, so the honest device only
    # tolerates noise up to roughly the planner's slack
    ghz = ghz_mermin_strategy()
    devices = {
        f"honest v={visibility}": HonestDevice(ghz, NoiseModel(visibility))
        for visibility in (1.0, 0.99999, 0.9999)
    }
    devices.update((name, AdversarialDevice(adv)) for name, adv in attack_suite().items())
    leaked = False
    for name, device in devices.items():
        est = estimate_output_bias(params, device, args.runs, args.seed)
        print(describe(name, est, args.eps_prime))
        leaked = leaked or leaks(est, args.eps_prime)
    return 1 if leaked else 0


if __name__ == "__main__":
    sys.exit(main())

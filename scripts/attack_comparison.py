#!/usr/bin/env python3
"""Compare all attack strategies against both protocol variants.

For every (protocol, strategy) pair this prints the exact oracle numbers
next to the Monte Carlo estimates: per-check detection probability, Eve's
accuracy on Alice's bits, her accuracy on Bob's bits where a public outcome
lets her compute them, and delivered message throughput.
"""

import argparse

from qdialogue.adversary import STRATEGIES
from qdialogue.harness import RunConfig, exact_oracle, iter_rounds, summarize
from qdialogue.protocol import PROTOCOLS


def fmt(value, width=9):
    if value is None:
        return " " * (width - 3) + "n/a"
    return f"{value:>{width}.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=100_000)
    parser.add_argument("--p-cm", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    header = (
        f"{'protocol':<9} {'strategy':<18} {'det(oracle)':>11} {'det(mc)':>9} "
        f"{'eveA(orc)':>9} {'eveA(mc)':>9} {'eveB(mc)':>9} {'kbit':>6}"
    )
    print(f"rounds={args.rounds}  p_cm={args.p_cm}  seed={args.seed}")
    print(header)
    print("-" * len(header))

    rows = {}
    for protocol in PROTOCOLS:
        for strategy in STRATEGIES:
            oracle = exact_oracle(protocol, strategy)
            config = RunConfig(
                protocol=protocol,
                strategy=strategy,
                rounds=args.rounds,
                p_cm=args.p_cm,
                seed=args.seed,
            )
            summary = summarize(iter_rounds(config))
            rows[(protocol, strategy)] = (oracle, summary)
            eve_oracle = oracle.eve_alice_accuracy_exact
            print(
                f"{protocol:<9} {strategy:<18} "
                f"{str(oracle.detection_probability):>11} "
                f"{fmt(summary.detection_rate)} "
                f"{fmt(None if eve_oracle is None else float(eve_oracle))} "
                f"{fmt(summary.eve_alice_accuracy)} "
                f"{fmt(summary.eve_bob_public_accuracy)} "
                f"{summary.throughput_bits / 1000:>6.1f}"
            )

    print()
    print("Observations")
    print("------------")
    bs_orig = rows[("original", "bell-substitution")][1]
    bs_mod = rows[("modified", "bell-substitution")][1]
    print(
        "* The Bell-pair substitution (replay) attack passes every consistency\n"
        f"  check in both variants: detection {bs_orig.detection_rate:.4f} (original),\n"
        f"  {bs_mod.detection_rate:.4f} (modified), matching the oracle's exact 0."
    )
    print(
        "* Under that attack Eve reads Alice's bits perfectly "
        f"(accuracy {bs_orig.eve_alice_accuracy:.4f}),\n"
        "  with or without any public announcement."
    )
    print(
        "* Eve's knowledge of Bob's bits rides entirely on the public outcome\n"
        f"  reveal: accuracy {bs_orig.eve_bob_public_accuracy:.4f} whenever one exists,"
        " absent otherwise."
    )
    print(
        "* The naive baselines are loud: disturbance trips 3/4 of checks,\n"
        "  measure-resend 1/2, exactly as the branch enumeration predicts."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

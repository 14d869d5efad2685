#!/usr/bin/env python3
"""Random tower experiment: generate sigma-model towers, validate, split.

Prints a table of per-prime statistics (corank distribution, section
verification counts, timing) and exits nonzero on any validation or
splitting failure, so it doubles as a long-running soak test:

    python3 scripts/tower_experiments.py --count 200 --seed 7
"""

import argparse
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from kummer.fixtures import random_sigma_model
from kummer.towers import sigma_kummer_tower, tower_split, validate_tower


def elements(g):
    """Every element of a finite group: the canonical coordinates are the
    residues below the pivots of the relations' Hermite form."""
    h = g.hermite
    return (g.element(x) for x in product(*(range(h.matrix[r, c]) for r, c in h.pivots)))


@dataclass
class ExperimentConfig:
    count: int = 100
    seed: int = 0
    primes: tuple[int, ...] = (2, 3, 5)
    max_rank: int = 3
    max_levels: int = 4
    enumerate_limit: int = 4096


@dataclass
class ExperimentStats:
    towers: int = 0
    enumerated: int = 0
    failures: int = 0
    coranks: Counter = field(default_factory=Counter)
    seconds: float = 0.0


def run(config: ExperimentConfig) -> dict[int, ExperimentStats]:
    rng = random.Random(config.seed)
    stats = {p: ExperimentStats() for p in config.primes}
    for _ in range(config.count):
        p = rng.choice(config.primes)
        model = random_sigma_model(rng, p, config.max_rank)
        n = rng.randint(1, config.max_levels)
        start = time.monotonic()
        tower = sigma_kummer_tower(model, n)
        st = stats[p]
        st.towers += 1
        st.coranks[model.corank] += 1
        report = validate_tower(tower)
        if not report:
            st.failures += 1
            print(f"FAIL validate p={p} M={model.M.data} n={n}",
                  file=sys.stderr)
            continue
        section = tower_split(tower)
        top = tower.top
        if top.C.order <= config.enumerate_limit:
            ok = all(top.g(section(c)) == c for c in elements(top.C))
            st.enumerated += 1
        else:
            ok = (top.g @ section.s).is_identity()
        if not ok:
            st.failures += 1
            print(f"FAIL split p={p} M={model.M.data} n={n}",
                  file=sys.stderr)
        st.seconds += time.monotonic() - start
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-rank", type=int, default=3)
    parser.add_argument("--max-levels", type=int, default=4)
    args = parser.parse_args(argv)

    config = ExperimentConfig(count=args.count, seed=args.seed,
                              max_rank=args.max_rank,
                              max_levels=args.max_levels)
    stats = run(config)
    total_failures = 0
    print(f"{'p':>3} {'towers':>7} {'enumerated':>11} {'failures':>9} "
          f"{'seconds':>8}  corank distribution")
    for p, st in sorted(stats.items()):
        total_failures += st.failures
        dist = " ".join(f"{k}:{v}" for k, v in sorted(st.coranks.items()))
        print(f"{p:>3} {st.towers:>7} {st.enumerated:>11} "
              f"{st.failures:>9} {st.seconds:>8.2f}  {dist}")
    return 1 if total_failures else 0


if __name__ == "__main__":
    sys.exit(main())

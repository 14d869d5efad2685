"""Test-only inputs: an invalid tower, a bag of sigma models, random
finite groups and sequences, cyclic sequences of huge prime orders, and
the order-6 sequence glued from its 2-part and 3-part towers, and a time
limit for calls that must not factor a huge number.

The library's own shared inputs (split towers, limit evidence) stay in
``kummer.fixtures``; these are built only by the tests.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from dataclasses import dataclass

from kummer.fixtures import split_tower
from kummer.groups import FgAbGroup, Homomorphism, cokernel, direct_sum, subgroup_generated
from kummer.matrices import IntMatrix, block_diag
from kummer.sequences import ShortExactSequence, check_exact
from kummer.towers import CrtGlue, KummerTower, LevelMaps, SigmaModel, sigma_kummer_tower


def invalid_tower(p: int = 2) -> KummerTower:
    """Two levels whose right-hand map is zero: breaks the inclusion axiom
    (and nothing else, so validation reports exactly one violation)."""
    base = split_tower(p, 2, a_mode="constant")
    lo, hi = base.seqs
    alpha = base.maps[0].alpha
    gamma = Homomorphism(lo.C, hi.C, IntMatrix.zeros(1, 1))
    beta = Homomorphism(lo.B, hi.B, block_diag(alpha.matrix, gamma.matrix))
    return KummerTower(p, base.seqs,
                       (LevelMaps(alpha=alpha, beta=beta, gamma=gamma),))


def default_sigma_models() -> tuple[SigmaModel, ...]:
    """Small mixed bag: finite kernel, divisible corank, both, identity."""
    return (
        SigmaModel(2, 1, IntMatrix.from_rows([[3]])),
        SigmaModel(2, 2, IntMatrix.from_rows([[3, 0], [0, 1]])),
        SigmaModel(3, 2, IntMatrix.from_rows([[1, 0], [0, 4]])),
        SigmaModel(5, 2, IntMatrix.from_rows([[6, 5], [0, 1]])),
        SigmaModel(2, 1, IntMatrix.from_rows([[1]])),
    )


def random_finite_group(rng: random.Random, max_order: int = 64) -> FgAbGroup:
    """Finite group on one to three cyclic factors, with a non-diagonal
    presentation of bounded order."""
    orders = []
    budget = max_order
    for _ in range(rng.randint(1, 3)):
        n = rng.choice([d for d in (2, 3, 4, 5, 8, 9) if d <= budget])
        orders.append(n)
        budget //= n
        if budget < 2:
            break
    g = FgAbGroup.of_orders(*orders)
    k = g.generator_count
    # mix the presentation with a unimodular change of generators
    mix = IntMatrix.identity(k)
    for _ in range(3):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        add = IntMatrix.identity(k).data
        mix = mix @ IntMatrix(k, k, tuple(
            rng.randint(-2, 2) if (a, b) == (i, j) else add[a * k + b]
            for a in range(k) for b in range(k)))
    return FgAbGroup(k, mix @ g.relations)


def random_subgroup_sequence(rng: random.Random,
                             max_order: int = 64) -> ShortExactSequence:
    """Random short exact sequence: a generated subgroup and its quotient."""
    b = random_finite_group(rng, max_order)
    picks = [b.element(tuple(rng.randrange(8) for _ in
                             range(b.generator_count)))
             for _ in range(rng.randint(0, 2))]
    sub, inc = subgroup_generated(b, picks)
    quo, proj = cokernel(inc)
    return check_exact(inc, proj)


@contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the block after this many seconds (SIGALRM):
    trial division up to the square root of P61 would run for hours."""
    def expired(signum, frame):
        raise TimeoutError(f"ran for {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


P61 = 2**61 - 1
Q82 = 3_317_044_064_679_887_385_961_813  # the largest prime arith.is_prime accepts


def cyclic_sequence(a: int, b: int) -> ShortExactSequence:
    """0 -> Z/a -×(b/a)-> Z/b -1-> Z/(b/a) -> 0 for a dividing b; Z/1 is
    the trivial group. cyclic_sequence(1, P61) splits and
    cyclic_sequence(Q82, Q82**2) does not."""
    za = FgAbGroup.trivial() if a == 1 else FgAbGroup.cyclic(a)
    zb, zc = FgAbGroup.cyclic(b), FgAbGroup.cyclic(b // a)
    f = IntMatrix.from_rows([[b // a]]) if a > 1 else IntMatrix.zeros(1, 0)
    return check_exact(Homomorphism(za, zb, f), Homomorphism(zb, zc, IntMatrix.from_rows([[1]])))


@dataclass(frozen=True)
class OrderSixFixture:
    """An order-6 sequence glued from its 2-part and 3-part towers."""

    m: int
    towers: dict[int, KummerTower]
    glue: CrtGlue


def order_six_glued() -> OrderSixFixture:
    """Direct-sum glue of the p=2 and p=3 sigma towers at level 1.

    C of the glued sequence is Z/2 + Z/3 = Z/6, small enough that sections
    can be checked by full enumeration.
    """
    t2 = sigma_kummer_tower(SigmaModel(2, 2, IntMatrix.from_rows(
        [[3, 0], [0, 1]])), 1)
    t3 = sigma_kummer_tower(SigmaModel(3, 2, IntMatrix.from_rows(
        [[4, 0], [0, 1]])), 1)
    top2, top3 = t2.top, t3.top
    ds_a = direct_sum(top2.A, top3.A)
    ds_b = direct_sum(top2.B, top3.B)
    ds_c = direct_sum(top2.C, top3.C)
    f = Homomorphism(ds_a.group, ds_b.group,
                     block_diag(top2.f.matrix, top3.f.matrix))
    g = Homomorphism(ds_b.group, ds_c.group,
                     block_diag(top2.g.matrix, top3.g.matrix))
    glued = check_exact(f, g)
    glue = CrtGlue(glued, (
        (2, ds_a.injections[0], ds_b.injections[0], ds_c.injections[0]),
        (3, ds_a.injections[1], ds_b.injections[1], ds_c.injections[1])))
    return OrderSixFixture(m=6, towers={2: t2, 3: t3}, glue=glue)

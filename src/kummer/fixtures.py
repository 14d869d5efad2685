"""Reusable concrete inputs: split towers, sigma models, limit evidence.

The CLI, the demos and the scripts share these so the interesting objects
(the split towers, the honest and the doomed limit evidence) are built in
exactly one place.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from .arith import vp
from .errors import InputError
from .groups import FgAbGroup, Homomorphism, hom_from_images
from .matrices import IntMatrix, block_diag
from .sequences import split_sequence
from .towers import KummerTower, LevelMaps, SigmaModel

if TYPE_CHECKING:  # the evidence builders import colimits when they run
    from .colimits import CaseOneEvidence, ColimitTower

__all__ = [
    "split_tower",
    "random_sigma_model",
    "divisible_case_one_evidence",
    "doomed_divisible_evidence",
    "doomed_bounded_evidence",
]


def split_tower(p: int, n: int, a_mode: str = "growing",
                c_rank: int = 1) -> KummerTower:
    """A hand-built tower of direct sums B_k = A_k + C_k.

    a_mode picks the left column: "growing" Z/p^k, "constant" Z/p,
    "capped" Z/p^min(k,2). The right column is (Z/p^k)^c_rank with
    multiplication-by-p connecting maps, which satisfies the inclusion
    axiom on the nose.
    """
    if a_mode not in ("growing", "constant", "capped"):
        raise InputError(f"unknown a_mode {a_mode!r}")
    if c_rank < 1 or n < 1:
        raise InputError("need c_rank >= 1 and n >= 1")

    def a_order(k: int) -> int:
        if a_mode == "growing":
            return p ** k
        if a_mode == "constant":
            return p
        return p ** min(k, 2)

    seqs = [split_sequence(FgAbGroup.cyclic(a_order(k)), FgAbGroup.of_orders(*[p ** k] * c_rank))
            for k in range(1, n + 1)]
    maps = []
    for k in range(1, n):
        lo, hi = seqs[k - 1], seqs[k]
        a_step = p if a_order(k + 1) > a_order(k) else 1
        alpha = Homomorphism(lo.A, hi.A, IntMatrix.from_rows([[a_step]]))
        gamma = Homomorphism(lo.C, hi.C,
                             IntMatrix.identity(c_rank).scaled(p))
        beta = Homomorphism(lo.B, hi.B,
                            block_diag(alpha.matrix, gamma.matrix))
        maps.append(LevelMaps(alpha=alpha, beta=beta, gamma=gamma))
    return KummerTower(p, tuple(seqs), tuple(maps))


def random_sigma_model(rng: random.Random, p: int,
                       max_rank: int = 3) -> SigmaModel:
    """Random sigma matrix with det prime to p, by rejection sampling."""
    r = rng.randint(1, max_rank)
    while True:
        mat = IntMatrix(r, r, tuple(rng.randint(-4, 4) for _ in range(r * r)))
        try:
            return SigmaModel(p, r, mat)
        except InputError:
            continue


def divisible_case_one_evidence(t: ColimitTower, level: int,
                                precision: Optional[int] = None,
                                ) -> CaseOneEvidence:
    """Honest evidence for the divisible family: A_k = Z/p^k is the k-th
    layer of one divisible summand, with no bounded part."""
    from .colimits import CaseOneEvidence

    p = t.p
    prec = precision if precision is not None else level + 2
    d_group = FgAbGroup(1, IntMatrix.diagonal([p ** prec]))
    triv = FgAbGroup.trivial()
    pi_d, pi_m = [], []
    for k in range(1, level + 1):
        a_k = t.sequence(k).A
        # a layer above the precision has no embedding; the zero map leaves
        # the window check (V5) to reject the evidence
        scale = p ** (prec - k) if k <= prec else 0
        pi_d.append(Homomorphism(a_k, d_group, IntMatrix.from_rows([[scale]])))
        pi_m.append(Homomorphism.zero(a_k, triv))
    return CaseOneEvidence(level=level, divisible_rank=1, precision=prec,
                           m_group=triv, pi_divisible=tuple(pi_d),
                           pi_bounded=tuple(pi_m))


def _cones(t: ColimitTower, level: int, pi_top: Homomorphism,
           zero_target: FgAbGroup) -> tuple[tuple[Homomorphism, ...],
                                            tuple[Homomorphism, ...]]:
    """The cone pi_top ∘ alpha_{level-1} ∘ ... ∘ alpha_k on each A_k, and the
    zero maps A_k -> zero_target, for k = 1..level. Composing does not
    reduce, so each cone is rebuilt from the reduced images of its
    generators; otherwise its entries grow with every level."""
    pis = [pi_top]
    for k in range(level - 1, 0, -1):
        h = pis[-1] @ t.step(k).alpha
        pis.append(hom_from_images(h.source, h.target, [h(x) for x in h.source.generators()]))
    zeros = tuple(Homomorphism.zero(t.sequence(k).A, zero_target)
                  for k in range(1, level + 1))
    return tuple(reversed(pis)), zeros


def doomed_divisible_evidence(t: ColimitTower, level: int) -> CaseOneEvidence:
    """False claim that the whole A column is divisible.

    The cones are built honestly (embed the top level, compose downward),
    so every shape check passes and the rejection happens where it should:
    the claimed divisible elements have finite height.
    """
    from .colimits import CaseOneEvidence

    p = t.p
    prec = level + 2
    top_a = t.sequence(level).A
    dec = top_a.simplified
    orders = top_a.invariant_factors
    r = len(orders)
    d_group = FgAbGroup(r, IntMatrix.identity(r).scaled(p ** prec))
    emb = IntMatrix.diagonal([p ** (prec - vp(n, p)) for n in orders])
    pi_top = Homomorphism(dec.group, d_group, emb) @ dec.to_simple
    triv = FgAbGroup.trivial()
    pi_d, pi_m = _cones(t, level, pi_top, triv)
    return CaseOneEvidence(level=level, divisible_rank=r, precision=prec,
                           m_group=triv, pi_divisible=pi_d, pi_bounded=pi_m)


def doomed_bounded_evidence(t: ColimitTower, level: int) -> CaseOneEvidence:
    """False claim that the A column is bounded by the small group A_2;
    joint injectivity must fail once A_k outgrows it."""
    from .colimits import CaseOneEvidence

    m_group = t.sequence(2).A
    pi_top = Homomorphism.zero(t.sequence(level).A, m_group)
    pi_m, pi_d = _cones(t, level, pi_top, FgAbGroup.trivial())
    return CaseOneEvidence(level=level, divisible_rank=0, precision=level + 2,
                           m_group=m_group, pi_divisible=pi_d,
                           pi_bounded=pi_m)

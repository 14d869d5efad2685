"""Towers of p-power torsion exact sequences and their splittings.

A tower stacks sequences 0 -> A_k -> B_k -> C[p^k] -> 0 (level k killed by
p^k) with commuting maps upward and inclusion-shaped right-hand maps. The
top sequence of a valid tower is pure, hence splits; the construction here
follows the classical lifting argument level by level. Also included: the
dual (downward) variant split through Pontryagin duality, a sigma-model
generator producing genuine towers from integer matrices, and the Chinese
remainder assembly of per-prime sections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Mapping, Optional

from .arith import require_prime, vp
from .errors import GlueError, InputError, PurityError, TowerInvalidError
from .groups import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    cokernel_witness,
    direct_sum,
    invert_isomorphism,
    is_isomorphism,
    kernel_witness,
)
from .matrices import (
    HermiteColumnForm,
    IntMatrix,
    SmithDecomposition,
    _smith_form,
    block_diag,
    hstack,
    preimage_lattice,
    solve_modular_columns,
)
from .sequences import (
    Section,
    ShortExactSequence,
    assemble_section,
    check_exact,
    double_dual_inverse,
    double_dual_iso,
    dualize_sequence,
    pontryagin_dual,
    section_from_retraction,
)

__all__ = [
    "LevelMaps",
    "KummerTower",
    "CoKummerTower",
    "TowerViolation",
    "TowerReport",
    "validate_tower",
    "tower_split",
    "SigmaModel",
    "sigma_kummer_tower",
    "CrtGlue",
    "crt_split",
    "dual_tower",
    "dual_tower_split",
]


@dataclass(frozen=True)
class LevelMaps:
    """Triple of maps connecting adjacent tower levels (A, B, C columns)."""

    alpha: Homomorphism
    beta: Homomorphism
    gamma: Homomorphism


def _check_chain(p: int, seqs: tuple, maps: tuple, upward: bool) -> None:
    require_prime(p)
    if not seqs:
        raise InputError("tower needs at least one level")
    if len(maps) != len(seqs) - 1:
        raise InputError("need exactly one map triple per adjacent level pair")
    for i, lm in enumerate(maps):
        lo, hi = seqs[i], seqs[i + 1]
        src, tgt = (lo, hi) if upward else (hi, lo)
        _check_level_maps(lm, src, tgt, i + 1)


def _check_level_maps(lm: LevelMaps, src: ShortExactSequence,
                      tgt: ShortExactSequence, level: int) -> None:
    """Raise unless each map of lm runs from its column of src to the same
    column of tgt; level and level + 1 name the pair in the message."""
    for h, slot, s_grp, t_grp in (
        (lm.alpha, "alpha", src.A, tgt.A),
        (lm.beta, "beta", src.B, tgt.B),
        (lm.gamma, "gamma", src.C, tgt.C),
    ):
        if h.source != s_grp or h.target != t_grp:
            raise InputError(
                f"{slot} map between levels {level} and {level + 1} has "
                "mismatched presentation")


@dataclass(frozen=True)
class KummerTower:
    """Levels S_1..S_n with upward maps; right maps inclusion-shaped."""

    upward: ClassVar[bool] = True

    p: int
    seqs: tuple[ShortExactSequence, ...]
    maps: tuple[LevelMaps, ...]

    def __post_init__(self):
        _check_chain(self.p, self.seqs, self.maps, self.upward)

    @property
    def n(self) -> int:
        return len(self.seqs)

    @property
    def top(self) -> ShortExactSequence:
        return self.seqs[-1]

    @cached_property
    def _report(self) -> TowerReport:
        """The validation report, a function of the frozen tower, run once."""
        return _check_levels(self)


class CoKummerTower(KummerTower):
    """Levels S_1..S_n with downward maps; left maps surjection-shaped."""

    upward = False


@dataclass(frozen=True)
class TowerViolation:
    level: int
    check: str
    message: str
    witness: Optional[GroupElement] = None


@dataclass(frozen=True)
class TowerReport:
    valid: bool
    violations: tuple[TowerViolation, ...]
    levels: int

    def __bool__(self) -> bool:
        return self.valid


def _torsion_violations(p: int, level: int,
                        seq: ShortExactSequence) -> list[TowerViolation]:
    # A embeds in B and C is a quotient, so checking B covers all three.
    bound = p ** level
    out = []
    exp = seq.B.exponent
    if exp == math.inf or bound % int(exp):
        wit = None
        for i in range(seq.B.generator_count):
            o = seq.B.generator(i).order()
            if o == math.inf or bound % int(o):
                wit = seq.B.generator(i)
                break
        out.append(TowerViolation(
            level, "torsion", f"B_{level} is not killed by p^{level}", wit))
    return out


def _square_violations(level: int, low: ShortExactSequence,
                       high: ShortExactSequence,
                       lm: LevelMaps, upward: bool) -> list[TowerViolation]:
    if upward:
        left = (high.B, lm.beta.matrix @ low.f.matrix, high.f.matrix @ lm.alpha.matrix)
        right = (high.C, lm.gamma.matrix @ low.g.matrix, high.g.matrix @ lm.beta.matrix)
    else:
        left = (low.B, low.f.matrix @ lm.alpha.matrix, lm.beta.matrix @ high.f.matrix)
        right = (low.C, low.g.matrix @ lm.beta.matrix, lm.gamma.matrix @ high.g.matrix)
    out = []
    for name, (group, one, two) in (("left square", left), ("right square", right)):
        wit = group._disagreement(one, two)
        if wit is not None:
            out.append(TowerViolation(
                level, "square",
                f"{name} between levels {level} and {level + 1} does not "
                "commute", wit))
    return out


def _difference(group: FgAbGroup, one: HermiteColumnForm,
                two: HermiteColumnForm) -> Optional[GroupElement]:
    """An element of group in one lattice and not the other (the columns of
    one are tried first), or None when the lattices are equal."""
    for inner, outer in ((one, two), (two, one)):
        j = outer.outside(inner.matrix)
        if j is not None:
            return group.element(inner.matrix.col(j))
    return None


def _inclusion_violations(p: int, level: int,
                          gamma: Homomorphism) -> list[TowerViolation]:
    """gamma must be injective with image the p^level-torsion of its target."""
    out = []
    wit = kernel_witness(gamma)
    if wit is not None:
        out.append(TowerViolation(
            level, "inclusion",
            f"right map out of level {level} is not injective", wit))
    tgt = gamma.target
    tors = preimage_lattice(
        IntMatrix.identity(tgt.generator_count).scaled(p ** level),
        tgt.relations)
    wit = _difference(tgt, tors, gamma.image_form)
    if wit is not None:
        out.append(TowerViolation(
            level, "inclusion",
            f"right map out of level {level} does not have the "
            f"p^{level}-torsion subgroup as its image", wit))
    return out


def _surjection_violations(p: int, level: int,
                           alpha: Homomorphism) -> list[TowerViolation]:
    """alpha: A_{level+1} -> A_level must be onto with kernel p^level A_{level+1}."""
    out = []
    wit = cokernel_witness(alpha)
    if wit is not None:
        out.append(TowerViolation(
            level, "surjection",
            f"left map into level {level} is not surjective", wit))
    src = alpha.source
    wit = _difference(src, alpha.kernel_form,
                      src.span(IntMatrix.identity(src.generator_count).scaled(p ** level)))
    if wit is not None:
        out.append(TowerViolation(
            level, "surjection",
            f"kernel of the left map into level {level} is not "
            f"p^{level} times the source", wit))
    return out


def validate_tower(t: KummerTower) -> TowerReport:
    """Report every splitting-hypothesis violation with level and witness.

    Exactness per level is intrinsic (sequences validate at construction);
    checked here: p^k-torsion and both commuting squares, and, for an
    upward tower, that each right map is the canonical inclusion
    (injective, image = p^k-torsion), for a downward one that each left
    map is onto with kernel p^k times its source. A tower is frozen, so
    it keeps its report, and the splitters read the same one.
    """
    return t._report


def _check_levels(t: KummerTower) -> TowerReport:
    """``validate_tower``'s checks, level by level."""
    violations = []
    for i, seq in enumerate(t.seqs):
        level = i + 1
        violations += _torsion_violations(t.p, level, seq)
        if level < t.n:
            lm = t.maps[i]
            violations += _square_violations(level, seq, t.seqs[i + 1], lm, t.upward)
            violations += (_inclusion_violations(t.p, level, lm.gamma) if t.upward
                           else _surjection_violations(t.p, level, lm.alpha))
    return TowerReport(valid=not violations, violations=tuple(violations),
                       levels=t.n)


def _require_valid(t: KummerTower, upward: bool) -> None:
    """Raise unless t runs in the given direction and is valid."""
    if t.upward != upward:
        raise InputError("a downward tower is split by dual_tower_split" if upward
                         else "an upward tower is split by tower_split")
    if not t._report.valid:
        raise TowerInvalidError("tower violates the splitting hypotheses" if upward
                                else "co-tower violates the dual hypotheses",
                                report=t._report)


def _level_lift(t: KummerTower, c: GroupElement, k: int) -> GroupElement:
    """A preimage of c ∈ C_n under g_n that comes from level k.

    c is pulled back along the composite of the right maps from level k to
    the top, lifted through g_k, and pushed up by the middle maps. If c has
    order p^k and B_k is killed by p^k, the lift has order p^k: no more,
    as it comes from B_k, and no less, as it maps onto c.
    """
    low = t.seqs[k - 1]
    chain = Homomorphism.identity(low.C)
    for lm in t.maps[k - 1:]:
        chain = lm.gamma @ chain
    down = t.top.C.solve(chain.matrix, c.coords)
    if down is None:
        raise PurityError("element does not come from its order level", element=c)
    lift = low.C.solve(low.g.matrix, low.C.element(down).coords)
    if lift is None:
        raise AssertionError("g is surjective on every level")
    y = low.B.element(lift)
    for lm in t.maps[k - 1:]:
        y = lm.beta(y)
    return y


def tower_split(t: KummerTower) -> Section:
    """Verified section of the top sequence of a valid upward tower.

    The top C is a p-group. Each of its cyclic generators, of order
    p^k = d its invariant factor, is pulled back to level k, lifted there
    (where every preimage already has the right order), and pushed up;
    the lifts assemble into the section.
    """
    _require_valid(t, upward=True)
    dec = t.top.C.simplified
    return assemble_section(t.top, [
        _level_lift(t, dec.from_simple(e), vp(d, t.p))
        for e, d in zip(dec.group.generators(), t.top.C.invariant_factors)])


# ---------------------------------------------------------------------------
# Sigma models: towers from an integer matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaModel:
    """Automorphism sigma of (Z(p^inf))^r encoded by an integer matrix M.

    The fixed-point functor of sigma has derived data readable from the
    Smith form of D = M - I: the finite part of the kernel has invariant
    p-valuations e_i, the divisible corank is the number of zero diagonal
    entries. M must be invertible over Z/p (gcd(det M, p) = 1), which is
    what makes it invertible on p-power torsion.
    """

    p: int
    r: int
    M: IntMatrix

    def __post_init__(self):
        require_prime(self.p)
        if self.M.rows != self.r or self.M.cols != self.r:
            raise InputError("M must be square of size r")
        units = [tuple(int(i == j) for i in range(self.r)) for j in range(self.r)]
        if None in solve_modular_columns(self.M, units, self.p):
            raise InputError(
                "sigma is not an automorphism: det(M) is divisible by p")

    @cached_property
    def difference_smith(self) -> SmithDecomposition:
        """U, S and U_inv of the Smith form of D, the parts a tower reads
        (``matrices._smith_form``): V and V_inv are None."""
        return _smith_form(self.M - IntMatrix.identity(self.r), columns=False)

    @property
    def corank(self) -> int:
        return self.r - self.difference_smith.rank

    @property
    def valuations(self) -> tuple[int, ...]:
        return tuple(vp(d, self.p)
                     for d in self.difference_smith.diagonal if d)

    @property
    def unit_parts(self) -> tuple[int, ...]:
        return tuple(d // self.p ** vp(d, self.p)
                     for d in self.difference_smith.diagonal if d)


def sigma_kummer_tower(model: SigmaModel, n: int) -> KummerTower:
    """Build the n-level tower of sigma fixed-point sequences.

    Level k: 0 -> H0/p^k -> coker(D on (Z/p^k)^r) -> (Z/p^k)^s -> 0 where
    H0 = sum of Z/p^{e_i} and s is the corank of D = M - I. All maps between
    levels are multiplication by p. Exactness and the tower axioms are
    verified, not assumed: each level goes through check_exact and the
    result passes validate_tower.
    """
    if n < 1:
        raise InputError("towers need at least one level")
    p, r = model.p, model.r
    dec = model.difference_smith
    rank = dec.rank
    s = model.corank
    es = model.valuations
    us = model.unit_parts
    d_mat = model.M - IntMatrix.identity(r)
    f_cols = IntMatrix(r, rank, tuple(
        us[i] * dec.U_inv[row, i] for row in range(r) for i in range(rank)))
    g_rows = dec.U.select(range(rank, r), range(r))
    seqs = []
    for k in range(1, n + 1):
        a_k = FgAbGroup(rank, IntMatrix.diagonal(
            [p ** min(e, k) for e in es]))
        b_k = FgAbGroup(r, hstack(d_mat, IntMatrix.identity(r).scaled(p ** k)))
        c_k = FgAbGroup(s, IntMatrix.identity(s).scaled(p ** k))
        f_k = Homomorphism(a_k, b_k, f_cols)
        g_k = Homomorphism(b_k, c_k, g_rows)
        seqs.append(check_exact(f_k, g_k))
    maps = []
    for k in range(n - 1):
        maps.append(LevelMaps(
            alpha=Homomorphism(seqs[k].A, seqs[k + 1].A,
                               IntMatrix.identity(rank).scaled(p)),
            beta=Homomorphism(seqs[k].B, seqs[k + 1].B,
                              IntMatrix.identity(r).scaled(p)),
            gamma=Homomorphism(seqs[k].C, seqs[k + 1].C,
                               IntMatrix.identity(s).scaled(p)),
        ))
    return KummerTower(p, tuple(seqs), tuple(maps))


# ---------------------------------------------------------------------------
# Chinese remainder assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrtGlue:
    """Glue data identifying a sequence with the sum of its primary parts.

    embeddings[i] = (p, a_p, b_p, c_p) embeds the top sequence of the
    p-tower into the glued sequence; jointly the embeddings must be
    direct-sum isomorphisms on each column.
    """

    seq: ShortExactSequence
    embeddings: tuple[tuple[int, Homomorphism, Homomorphism, Homomorphism], ...]

    def for_prime(self, p: int) -> tuple[Homomorphism, Homomorphism, Homomorphism]:
        for q, a, b, c in self.embeddings:
            if q == p:
                return a, b, c
        raise GlueError(f"no embedding supplied for p={p}", component=str(p))


def crt_split(m: int, towers: Mapping[int, KummerTower],
              glue: CrtGlue) -> Section:
    """Section of an m-torsion sequence from per-prime tower sections.

    Splits each p-part with tower_split and transports the direct sum of
    the sections along the glue isomorphisms. Raises GlueError naming the
    first inconsistent component.
    """
    from .arith import factorint

    fact = factorint(m)
    if set(fact) != set(towers):
        raise GlueError(
            f"towers given for primes {sorted(towers)} but m = {m} has "
            f"primes {sorted(fact)}", component="primes")
    primes = sorted(fact)
    for p in primes:
        if towers[p].n != fact[p]:
            raise GlueError(
                f"tower for p={p} has {towers[p].n} levels, expected "
                f"v_p(m) = {fact[p]}", component=f"level:{p}")
    tops = {p: towers[p].top for p in primes}
    for p in primes:
        a_p, b_p, c_p = glue.for_prime(p)
        top = tops[p]
        if (a_p.source != top.A or b_p.source != top.B
                or c_p.source != top.C or a_p.target != glue.seq.A
                or b_p.target != glue.seq.B or c_p.target != glue.seq.C):
            raise GlueError(f"embedding for p={p} connects the wrong groups",
                            component=f"shape:{p}")
        if glue.seq.B._disagreement(glue.seq.f.matrix @ a_p.matrix, b_p.matrix @ top.f.matrix):
            raise GlueError(f"f-square fails for p={p}",
                            component=f"f:{p}")
        if glue.seq.C._disagreement(glue.seq.g.matrix @ b_p.matrix, c_p.matrix @ top.g.matrix):
            raise GlueError(f"g-square fails for p={p}",
                            component=f"g:{p}")
    sections = {p: tower_split(towers[p]) for p in primes}

    def joint(idx: int, target: FgAbGroup, name: str) -> Homomorphism:
        ds = direct_sum(*[getattr(tops[p], name) for p in primes])
        mats = [glue.for_prime(p)[idx].matrix for p in primes]
        return Homomorphism(ds.group, target, hstack(*mats))

    h_by_name = {"A": joint(0, glue.seq.A, "A"),
                 "B": joint(1, glue.seq.B, "B"),
                 "C": joint(2, glue.seq.C, "C")}
    for name, h in h_by_name.items():
        if not is_isomorphism(h):
            raise GlueError(
                f"glue embeddings do not form a direct-sum isomorphism on "
                f"the {name} column", component=name)
    s_sum = Homomorphism(h_by_name["C"].source, h_by_name["B"].source,
                         block_diag(*[sections[p].s.matrix for p in primes]))
    return Section(glue.seq, (h_by_name["B"] @ s_sum) @ invert_isomorphism(h_by_name["C"]))


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


def dual_tower(t: KummerTower) -> KummerTower:
    """Pontryagin-dualize a tower levelwise (finite groups only).

    Maps flip direction and the A and C columns trade places, so an upward
    tower dualizes to a downward one and a downward tower to an upward one.
    """
    seqs = tuple(dualize_sequence(s) for s in t.seqs)
    maps = tuple(LevelMaps(alpha=pontryagin_dual(lm.gamma),
                           beta=pontryagin_dual(lm.beta),
                           gamma=pontryagin_dual(lm.alpha))
                 for lm in t.maps)
    opposite = CoKummerTower if t.upward else KummerTower
    return opposite(t.p, seqs, maps)


def dual_tower_split(t: KummerTower) -> Section:
    """Split the top of a downward tower through its Pontryagin dual.

    The dual is an honest upward tower; its section dualizes back to a
    retraction of f_n, which converts to a section of g_n.
    """
    _require_valid(t, upward=False)
    upward = dual_tower(t)
    s_hat = tower_split(upward)
    top = t.top
    r = (double_dual_inverse(top.A) @ pontryagin_dual(s_hat.s)) \
        @ double_dual_iso(top.B)
    return section_from_retraction(top, r)

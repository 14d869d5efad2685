"""Lazy level-indexed sequence families and their direct-limit behavior.

Colimit groups like B = sum of Z/p^k over all k have no finite
presentation, so nothing here materializes a limit: every query is
answered at a finite level, pushed along the connecting maps, and bounded
claims ("height at least h", "no compatible sections below depth d") carry
the probe depth in the result. The counterexample family has proven closed
forms for heights, which the certificate cross-checks against brute-force
divisibility search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence, Union

from .arith import require_prime, vp
from .errors import (
    EvidenceError,
    InputError,
    PurityError,
    UnsupportedError,
)
from .groups import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    direct_sum,
    factor_through,
    is_isomorphism,
    kernel,
    kernel_witness,
    solve_congruences,
)
from .matrices import IntMatrix, vstack
from .sequences import (
    Section,
    ShortExactSequence,
    check_exact,
    split_sequence,
)
from .towers import KummerTower, LevelMaps, _check_level_maps, _level_lift, tower_split

__all__ = [
    "ColimitTower",
    "ColimitElement",
    "HeightProbe",
    "NoSectionCertificate",
    "CaseOneEvidence",
    "CaseTwoEvidence",
    "LimitSplitResult",
    "counterexample_tower",
    "stabilizing_tower",
    "divisible_tower",
    "colimit_height",
    "section_compatibility_solvable",
    "limit_no_section_certificate",
    "limit_purity_witness",
    "direct_limit_split",
]

Position = Literal["A", "B", "C"]


class ColimitTower:
    """Levels produced on demand by callables, memoized.

    seq_fn(k) yields the level-k sequence, maps_fn(k, lo, hi) the triple
    of maps from level k to k+1, for every k >= 1, given the memoized
    sequences lo and hi of those two levels. The family tag drives
    family-specific shortcuts (closed-form heights, explicit sections);
    "user" towers get only the generic probes.
    """

    def __init__(self, p: int,
                 seq_fn: Callable[[int], ShortExactSequence],
                 maps_fn: Callable[[int, ShortExactSequence, ShortExactSequence],
                                   LevelMaps],
                 family: str = "user"):
        require_prime(p)
        self.p = p
        self.family = family
        self._seq_fn = seq_fn
        self._maps_fn = maps_fn
        self._seqs: dict[int, ShortExactSequence] = {}
        self._maps: dict[int, LevelMaps] = {}

    def sequence(self, k: int) -> ShortExactSequence:
        if k < 1:
            raise InputError("levels are indexed from 1")
        if k not in self._seqs:
            self._seqs[k] = self._seq_fn(k)
        return self._seqs[k]

    def step(self, k: int) -> LevelMaps:
        """Maps from level k to level k+1, checked to run between them."""
        if k not in self._maps:
            lo, hi = self.sequence(k), self.sequence(k + 1)
            lm = self._maps_fn(k, lo, hi)
            _check_level_maps(lm, lo, hi, k)
            self._maps[k] = lm
        return self._maps[k]

    def prefix(self, n: int) -> KummerTower:
        """The first n levels as a concrete tower (shape only; validate

        separately — the counterexample family is deliberately not
        inclusion-shaped on the right)."""
        seqs = tuple(self.sequence(k) for k in range(1, n + 1))
        maps = tuple(self.step(k) for k in range(1, n))
        return KummerTower(self.p, seqs, maps)

    def group_at(self, level: int, position: Position) -> FgAbGroup:
        seq = self.sequence(level)
        return {"A": seq.A, "B": seq.B, "C": seq.C}[position]

    def element(self, level: int, position: Position,
                coords: Sequence[int]) -> "ColimitElement":
        value = self.group_at(level, position).element(tuple(coords))
        return ColimitElement(self, level, position, value).canonical()

    def __repr__(self) -> str:
        return f"ColimitTower(p={self.p}, family={self.family!r})"


@dataclass(frozen=True, eq=False)
class ColimitElement:
    """An element of a colimit column, represented at a finite level.

    (level k, x) and (level k+1, map(x)) denote the same colimit element;
    equality pushes both sides to a common level. canonical() descends to
    the smallest level that can represent the element.
    """

    tower: ColimitTower
    level: int
    position: Position
    value: GroupElement

    def __post_init__(self):
        if self.position not in ("A", "B", "C"):
            raise InputError(f"unknown column {self.position!r}")
        expected = self.tower.group_at(self.level, self.position)
        if self.value.group != expected:
            raise InputError("element does not belong to the level group")

    def _map_at(self, k: int) -> Homomorphism:
        lm = self.tower.step(k)
        return {"A": lm.alpha, "B": lm.beta, "C": lm.gamma}[self.position]

    def push(self, level: int) -> "ColimitElement":
        if level < self.level:
            raise InputError("can only push to a higher level")
        e = self
        while e.level < level:
            h = e._map_at(e.level)
            e = ColimitElement(e.tower, e.level + 1, e.position, h(e.value))
        return e

    def canonical(self) -> "ColimitElement":
        e = self
        while e.level > 1:
            h = e._map_at(e.level - 1)
            sol = e.value.group.solve(h.matrix, e.value.coords)
            if sol is None:
                break
            e = ColimitElement(e.tower, e.level - 1, e.position,
                               h.source.element(sol))
        return e

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColimitElement):
            return NotImplemented
        if self.tower is not other.tower or self.position != other.position:
            return False
        lvl = max(self.level, other.level)
        return self.push(lvl).value == other.push(lvl).value

    def __bool__(self) -> bool:
        return bool(self.value)

    def __repr__(self) -> str:
        return (f"ColimitElement(level={self.level}, {self.position}, "
                f"{self.value.coords})")


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def counterexample_tower(p: int) -> ColimitTower:
    """The classical non-splitting family.

    B_n = Z/p x Z/p^2 x ... x Z/p^n with g_n(x_1..x_n) = sum p^(n-k) x_k
    into C_n = Z/p^n; the right-hand connecting map multiplies by p instead
    of including, which makes every element of the limit C infinitely
    divisible while the limit B has no infinitely divisible elements.
    """

    def build(k: int) -> ShortExactSequence:
        b = FgAbGroup(k, IntMatrix.diagonal([p ** i for i in range(1, k + 1)]))
        c = FgAbGroup.cyclic(p ** k)
        g = Homomorphism(b, c, IntMatrix(
            1, k, tuple(p ** (k - i) for i in range(1, k + 1))))
        a, inc = kernel(g)
        return check_exact(inc, g)

    def maps_fn(k: int, lo: ShortExactSequence, hi: ShortExactSequence) -> LevelMaps:
        psi = Homomorphism(lo.B, hi.B, vstack(
            IntMatrix.identity(k), IntMatrix.zeros(1, k)))
        eta = Homomorphism(lo.C, hi.C, IntMatrix.from_rows([[p]]))
        # phi is the restriction of psi to the kernels
        phi = factor_through(psi @ lo.f, hi.f)
        return LevelMaps(alpha=phi, beta=psi, gamma=eta)

    return ColimitTower(p, build, maps_fn, family="counterexample")


def stabilizing_tower(p: int, n0: int = 2) -> ColimitTower:
    """Split family whose C column stops growing at level n0 (case 2 shape)."""
    if n0 < 1:
        raise InputError("stabilization level must be at least 1")

    def build(k: int) -> ShortExactSequence:
        return split_sequence(FgAbGroup.cyclic(p), FgAbGroup.cyclic(p ** min(k, n0)))

    def maps_fn(k: int, lo: ShortExactSequence, hi: ShortExactSequence) -> LevelMaps:
        step = p if min(k + 1, n0) > min(k, n0) else 1
        gamma = Homomorphism(lo.C, hi.C, IntMatrix.from_rows([[step]]))
        alpha = Homomorphism(lo.A, hi.A, IntMatrix.identity(1))
        beta = Homomorphism(lo.B, hi.B,
                            IntMatrix.diagonal([1, step]))
        return LevelMaps(alpha=alpha, beta=beta, gamma=gamma)

    return ColimitTower(p, build, maps_fn, family="stabilizing")


def divisible_tower(p: int) -> ColimitTower:
    """Family whose A column has divisible limit Z(p^inf) (case 1 shape)."""

    def build(k: int) -> ShortExactSequence:
        a = FgAbGroup.cyclic(p ** k)
        b = FgAbGroup.of_orders(p ** k, p)
        c = FgAbGroup.cyclic(p)
        f = Homomorphism(a, b, IntMatrix.from_rows([[1], [0]]))
        g = Homomorphism(b, c, IntMatrix.from_rows([[0, 1]]))
        return check_exact(f, g)

    def maps_fn(k: int, lo: ShortExactSequence, hi: ShortExactSequence) -> LevelMaps:
        return LevelMaps(
            alpha=Homomorphism(lo.A, hi.A, IntMatrix.from_rows([[p]])),
            beta=Homomorphism(lo.B, hi.B, IntMatrix.diagonal([p, 1])),
            gamma=Homomorphism(lo.C, hi.C, IntMatrix.identity(1)),
        )

    return ColimitTower(p, build, maps_fn, family="divisible")


# ---------------------------------------------------------------------------
# Per-level queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeightProbe:
    """Result of a p-divisibility probe.

    height: largest h certified; saturated: h reached the requested depth
    (the true height may be larger, or is known infinite for proven closed
    forms); exact: the value came from a closed form, not a bounded search.
    """

    height: int
    saturated: bool
    exact: bool


def _closed_form_height_b(e: ColimitElement, depth: int) -> HeightProbe:
    coords = e.value.coords
    if not any(coords):
        return HeightProbe(depth, True, True)
    h = min(vp(x, e.tower.p) for x in coords if x)
    return HeightProbe(h, h >= depth, True)


def _probe_height(e: ColimitElement, depth: int) -> HeightProbe:
    """Divisibility is preserved by pushing, so probing the top window
    level alone decides divisibility anywhere in the window."""
    top = e.push(e.level + depth)
    grp = top.value.group
    p = e.tower.p
    height = 0
    for h in range(depth, 0, -1):
        sol = grp.solve(IntMatrix.identity(grp.generator_count).scaled(p ** h),
                        top.value.coords)
        if sol is not None:
            height = h
            break
    return HeightProbe(height, height >= depth, False)


def colimit_height(e: ColimitElement, depth: int) -> HeightProbe:
    """p-height of a colimit element, probed up to `depth` levels up.

    Counterexample family: closed forms (B: min valuation of the nonzero
    canonical coordinates, level-independent because the maps append
    zeros; C: every nonzero element is divisible arbitrarily far because
    the connecting map multiplies by p).
    """
    if depth < 0:
        raise InputError("depth must be nonnegative")
    if e.tower.family == "counterexample":
        if e.position == "B":
            return _closed_form_height_b(e, depth)
        if e.position == "C":
            return HeightProbe(depth, True, True)
    return _probe_height(e, depth)


# ---------------------------------------------------------------------------
# Purity of the limit sequence
# ---------------------------------------------------------------------------


def limit_purity_witness(t: ColimitTower, c: ColimitElement) -> ColimitElement:
    """Same-order preimage of c in the B column, at c's own level.

    The lift happens at level k where p^k = order(c): there every preimage
    under g_k automatically has order exactly p^k, and the connecting maps
    preserve it.
    """
    if c.position != "C" or c.tower is not t:
        raise InputError("witness requested for a non-C element")
    order = c.value.order()
    if order == math.inf:
        raise UnsupportedError("purity witnesses need finite order")
    order = int(order)
    if order == 1:
        return ColimitElement(t, c.level, "B", t.sequence(c.level).B.zero)
    k = vp(order, t.p)
    if t.p ** k != order or k > c.level:
        raise InputError(f"order {order} is not a p-power reachable at "
                         f"level {c.level}")
    y = ColimitElement(t, c.level, "B", _level_lift(t.prefix(c.level), c.value, k))
    if y.value.order() != order:
        raise PurityError("level lift does not have the expected order",
                          element=c.value)
    if t.sequence(c.level).g(y.value) != c.value:
        raise PurityError("level lift does not map onto the element",
                          element=c.value)
    return y


# ---------------------------------------------------------------------------
# Non-splitting certificate for the counterexample family
# ---------------------------------------------------------------------------


def section_compatibility_solvable(t: ColimitTower, n: int) -> bool:
    """Does a pair of sections at levels n, n+1 commute with the maps?

    Solves for s_n, s_{n+1} with g∘s = id on both levels and
    s_{n+1}∘gamma_n = beta_n∘s_n, as one integer congruence system.
    """
    lo, hi = t.sequence(n), t.sequence(n + 1)
    lm = t.step(n)
    gb_lo, gc_lo = lo.B.generator_count, lo.C.generator_count
    gb_hi, gc_hi = hi.B.generator_count, hi.C.generator_count
    rc_lo, rc_hi = lo.C.relations, hi.C.relations
    return solve_congruences({"Y": (gb_lo, gc_lo), "X": (gb_hi, gc_hi)}, [
        ([(lo.g.matrix, "Y", None)], IntMatrix.identity(gc_lo), lo.C),
        ([(hi.g.matrix, "X", None)], IntMatrix.identity(gc_hi), hi.C),
        ([(None, "X", lm.gamma.matrix), (-lm.beta.matrix, "Y", None)],
         IntMatrix.zeros(gb_hi, gc_lo), hi.B),
        ([(None, "Y", rc_lo)], IntMatrix.zeros(gb_lo, rc_lo.cols), lo.B),
        ([(None, "X", rc_hi)], IntMatrix.zeros(gb_hi, rc_hi.cols), hi.B),
    ]) is not None


@dataclass(frozen=True)
class NoSectionCertificate:
    """Finite evidence that the limit sequence has no section.

    The designated order-p element of the limit C is divisible past any
    bound while every element of the limit B has finite height (closed
    form, cross-checked by exhaustive search at small levels); a section
    would transport the first property into the second. Independently, the
    per-level compatibility congruences are all unsolvable.
    """

    p: int
    depth: int
    divisibility_verified: bool
    heights_cross_checked: tuple[tuple[int, int], ...]
    compatibility: tuple[tuple[int, bool], ...]
    inference: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return (self.divisibility_verified
                and all(bad == 0 for _, bad in self.heights_cross_checked)
                and all(not solvable for _, solvable in self.compatibility))

    def __bool__(self) -> bool:
        return self.valid


def limit_no_section_certificate(t: ColimitTower,
                                 depth: int) -> NoSectionCertificate:
    if t.family != "counterexample":
        raise UnsupportedError(
            "the non-splitting certificate is defined for the "
            "counterexample family")
    if depth < 1:
        raise InputError("depth must be at least 1")
    p = t.p
    c1 = ColimitElement(t, 1, "C", t.sequence(1).C.generator(0))
    # brute-force the divisibility claim rather than citing the closed form
    divisible = _probe_height(c1, depth).saturated
    # The cross-check is exhaustive over the orbits of the diagonal unit
    # group: (x_i) -> (u_i x_i) with each u_i a unit. It commutes with the
    # B-column maps, which append a zero coordinate, so at every level it is
    # an automorphism commuting with multiplication by p^h and preserves
    # p^h-divisibility; it also preserves each v_p(x_i). Both heights are
    # therefore constant on an orbit, and x_i = unit * p^v with
    # v = v_p(x_i) <= i picks the representative with coordinates
    # p^v mod p^i: prod (i + 1) elements at level n, whatever p is.
    cross = []
    for n in range(1, min(depth, 2) + 1):
        seq = t.sequence(n)
        bad = 0
        probe_depth = min(depth, 3)
        for coords in itertools.product(*(
                [p ** v % p ** i for v in range(i + 1)]
                for i in range(1, n + 1))):
            e = ColimitElement(t, n, "B", seq.B.element(coords))
            closed = _closed_form_height_b(e, probe_depth)
            probe = _probe_height(e, probe_depth)
            if closed.height >= probe_depth:
                ok = probe.saturated
            else:
                ok = probe.height == closed.height and not probe.saturated
            if not ok:
                bad += 1
        cross.append((n, bad))
    compat = tuple((n, section_compatibility_solvable(t, n))
                   for n in range(1, depth + 1))
    inference = (
        f"every nonzero element of the limit C is divisible by p^h for "
        f"all h (verified here to h = {depth})",
        "every nonzero element of the limit B has finite height equal to "
        "the least valuation of its canonical coordinates",
        "a section would send an element of infinite height to an element "
        "of finite height while preserving divisibility; contradiction",
        f"independently, no pair of sections at adjacent levels commutes "
        f"with the connecting maps (checked for all levels up to {depth})",
    )
    return NoSectionCertificate(
        p=p, depth=depth, divisibility_verified=divisible,
        heights_cross_checked=tuple(cross), compatibility=compat,
        inference=inference)


# ---------------------------------------------------------------------------
# Direct-limit splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseTwoEvidence:
    """The C column stabilizes: the right map at `level` is an isomorphism."""

    level: int


# Levels up to which check V4 probes each claimed divisible element.
HEIGHT_DEPTH = 3


@dataclass(frozen=True)
class CaseOneEvidence:
    """A decomposition of the limit A column as divisible + bounded.

    pi_divisible[k-1]: A_k -> (Z/p^precision)^divisible_rank and
    pi_bounded[k-1]: A_k -> m_group, for k = 1..level, have the right
    shapes (V1), form cones along the alpha maps (V2) and are jointly
    injective on every level (V3); the f-images of the generators of the
    top bounded kernel must probe as divisible to HEIGHT_DEPTH (V4); and
    exp(m_group) must be visible with precision >= level (V5). The
    evidence is only checked: the limit section is the section of the
    first `level` levels as a tower.
    """

    level: int
    divisible_rank: int
    precision: int
    m_group: FgAbGroup
    pi_divisible: tuple[Homomorphism, ...]
    pi_bounded: tuple[Homomorphism, ...]


@dataclass(frozen=True)
class LimitSplitResult:
    case: int
    level: int
    section: Section
    notes: tuple[str, ...] = ()


def _check_case_two(t: ColimitTower, ev: CaseTwoEvidence) -> str:
    n = ev.level
    if n < 1:
        raise EvidenceError("stabilization level must be at least 1",
                            check="stabilization")
    gamma = t.step(n).gamma
    if not is_isomorphism(gamma):
        raise EvidenceError(
            f"C[p^{n + 1}] differs from C[p^{n}]: the right map at level "
            f"{n} is not an isomorphism", check="stabilization")
    return (f"section of the level-{n} sequence reused as the limit "
            "section: all later C levels coincide")


def _check_case_one(t: ColimitTower, ev: CaseOneEvidence) -> str:
    p, big_l, prec, d = t.p, ev.level, ev.precision, ev.divisible_rank
    if big_l < 1 or prec < 1 or d < 0:
        raise EvidenceError("level, precision and rank must be positive",
                            check="V1")
    if len(ev.pi_divisible) != big_l or len(ev.pi_bounded) != big_l:
        raise EvidenceError("need one projection pair per level",
                            check="V1")
    d_group = FgAbGroup(d, IntMatrix.identity(d).scaled(p ** prec))
    m_grp = ev.m_group
    if not m_grp.is_finite:
        raise EvidenceError("bounded part must be a finite group", check="V1")
    m_exp = int(m_grp.exponent)
    k0 = vp(m_exp, p) if m_exp > 1 else 0
    if p ** k0 != m_exp:
        raise EvidenceError("bounded part is not a p-group", check="V1")
    for k in range(1, big_l + 1):
        a_k = t.sequence(k).A
        pd, pm = ev.pi_divisible[k - 1], ev.pi_bounded[k - 1]
        if pd.source != a_k or pd.target != d_group:
            raise EvidenceError(
                f"divisible projection at level {k} has the wrong shape",
                check="V1")
        if pm.source != a_k or pm.target != m_grp:
            raise EvidenceError(
                f"bounded projection at level {k} has the wrong shape",
                check="V1")
    if k0 > big_l or prec < big_l:
        raise EvidenceError(
            f"window too small: need exp(M) = p^{k0} visible and precision "
            f">= {big_l}", check="V5")
    for k in range(1, big_l):
        alpha = t.step(k).alpha.matrix
        if d_group._disagreement(ev.pi_divisible[k].matrix @ alpha, ev.pi_divisible[k - 1].matrix):
            raise EvidenceError(
                f"divisible projections do not form a cone at level {k}",
                check="V2")
        if m_grp._disagreement(ev.pi_bounded[k].matrix @ alpha, ev.pi_bounded[k - 1].matrix):
            raise EvidenceError(
                f"bounded projections do not form a cone at level {k}",
                check="V2")
    joint_group = direct_sum(d_group, m_grp).group
    for k in range(1, big_l + 1):
        wit = kernel_witness(Homomorphism(
            t.sequence(k).A, joint_group,
            vstack(ev.pi_divisible[k - 1].matrix, ev.pi_bounded[k - 1].matrix)))
        if wit is not None:
            raise EvidenceError(
                f"projections are not jointly injective at level {k}: "
                f"common kernel element {wit!r}", check="V3")
    top_seq = t.sequence(big_l)
    ker_m_top = ev.pi_bounded[big_l - 1].kernel_form.matrix
    for j in range(ker_m_top.cols):
        a = top_seq.A.element(ker_m_top.col(j))
        if not a:
            continue
        image = ColimitElement(t, big_l, "B", top_seq.f(a))
        probe = colimit_height(image, HEIGHT_DEPTH)
        if not probe.saturated:
            raise EvidenceError(
                f"claimed divisible-part element has finite height "
                f"{probe.height} < {HEIGHT_DEPTH}: {a!r}", check="V4")
    return (f"divisible part handled at precision p^{prec}, bounded "
            f"part of exponent p^{k0} split by purity")


def direct_limit_split(t: ColimitTower,
                       evidence: Union[CaseOneEvidence, CaseTwoEvidence],
                       ) -> LimitSplitResult:
    """Split the limit sequence under one of the two supplied hypotheses.

    Case 2 (bounded C): the right map at the level is an isomorphism, so
    every later C level is the same group. Case 1 (A = divisible +
    bounded): the supplied decomposition passes its checks (V1 shapes,
    V2 cones, V3 joint injectivity, V4 height saturation, V5 window
    bounds); a divisible group is injective and a bounded pure subgroup is
    a summand, so nothing beyond the evidence is needed. False evidence
    fails with the name of the violated check. Either way the section is
    that of the first `level` levels as a tower, so an invalid prefix
    raises TowerInvalidError.
    """
    if isinstance(evidence, CaseTwoEvidence):
        case, note = 2, _check_case_two(t, evidence)
    elif isinstance(evidence, CaseOneEvidence):
        case, note = 1, _check_case_one(t, evidence)
    else:
        raise InputError("evidence must describe case 1 or case 2")
    return LimitSplitResult(case=case, level=evidence.level,
                            section=tower_split(t.prefix(evidence.level)),
                            notes=(note,))

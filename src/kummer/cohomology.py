"""Tate cohomology of finite cyclic groups acting on abelian groups.

A module here is a finitely generated abelian group with an automorphism
sigma of finite order d. Everything is computed from the two classical
endomorphisms N = 1 + sigma + ... + sigma^(d-1) and T = sigma - 1: the
Tate groups are the subquotients ker N / im T and ker T / im N, and
cohomology of a cyclic group is 2-periodic, so these two groups are the
whole story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from .arith import require_prime
from .errors import InputError
from .groups import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    cokernel,
    factor_through,
    hom_from_images,
    kernel,
    solve_congruences,
)
from .matrices import IntMatrix, hstack
from .sequences import Section, ShortExactSequence, check_exact, section_exists

__all__ = [
    "CyclicGroupModule",
    "GModuleMap",
    "GModuleSequence",
    "Subquotient",
    "TateGroups",
    "tate_cohomology",
    "equivariant_section_exists",
    "tate_model",
    "regular_module",
    "reduce_mod_p",
    "ConnectingSequence",
    "les_multiplication_by_p",
    "regular_extension_fixture",
    "chris_verify",
    "ChrisReport",
]


@dataclass(frozen=True)
class CyclicGroupModule:
    """A finitely generated abelian group with an order-d automorphism."""

    d: int
    group: FgAbGroup
    sigma: Homomorphism

    def __post_init__(self):
        if self.d < 1:
            raise InputError("the acting group must have positive order")
        if self.sigma.source != self.group or self.sigma.target != self.group:
            raise InputError("sigma must be an endomorphism of the module")
        if self.group._disagreement(self._power_matrix(self.d)):
            raise InputError(f"sigma does not have order dividing {self.d}")

    def _power_matrix(self, i: int) -> IntMatrix:
        """sigma^i by repeated squaring: the same exact matrix as i products."""
        mat, square = IntMatrix.identity(self.group.generator_count), self.sigma.matrix
        while i > 0:
            mat, i = (square @ mat if i & 1 else mat), i >> 1
            square = square @ square if i else square
        return mat

    def power(self, i: int) -> Homomorphism:
        return Homomorphism(self.group, self.group, self._power_matrix(i))

    @cached_property
    def norm(self) -> Homomorphism:
        """N = 1 + sigma + ... + sigma^(d-1)."""
        g = self.group.generator_count
        acc = IntMatrix.zeros(g, g)
        power = IntMatrix.identity(g)
        for _ in range(self.d):
            acc = acc + power
            power = self.sigma.matrix @ power
        return Homomorphism(self.group, self.group, acc)

    @cached_property
    def difference(self) -> Homomorphism:
        """T = sigma - 1; N and T annihilate each other."""
        g = self.group.generator_count
        return Homomorphism(self.group, self.group,
                            self.sigma.matrix - IntMatrix.identity(g))


@dataclass(frozen=True)
class GModuleMap:
    """Homomorphism commuting with the two sigma actions."""

    source: CyclicGroupModule
    target: CyclicGroupModule
    hom: Homomorphism

    def __post_init__(self):
        if self.source.d != self.target.d:
            raise InputError("modules are over different cyclic groups")
        if (self.hom.source != self.source.group
                or self.hom.target != self.target.group):
            raise InputError("map does not match the module groups")
        if self.target.group._disagreement(self.hom.matrix @ self.source.sigma.matrix,
                                           self.target.sigma.matrix @ self.hom.matrix):
            raise InputError("map does not commute with the group action")

    def __call__(self, x: GroupElement) -> GroupElement:
        return self.hom(x)


@dataclass(frozen=True)
class GModuleSequence:
    """Short exact sequence of modules with equivariant maps."""

    f: GModuleMap
    g: GModuleMap
    sequence: ShortExactSequence = field(init=False, compare=False)

    def __post_init__(self):
        if self.f.target != self.g.source:
            raise InputError("maps do not share the middle module")
        object.__setattr__(self, "sequence",
                           check_exact(self.f.hom, self.g.hom))

    @property
    def A(self) -> CyclicGroupModule:
        return self.f.source

    @property
    def B(self) -> CyclicGroupModule:
        return self.f.target

    @property
    def C(self) -> CyclicGroupModule:
        return self.g.target


@dataclass(frozen=True)
class Subquotient:
    """A group of the form (subgroup of ambient) / (image inside it).

    classes_of sends ambient elements lying in the subgroup to their
    classes; representatives picks an ambient element for each class.
    Round trips agree up to the divided-out image.
    """

    group: FgAbGroup
    ambient: FgAbGroup
    include: Homomorphism
    project: Homomorphism

    def classes_of(self, xs: Sequence[GroupElement]) -> list[GroupElement]:
        if any(x.group != self.ambient for x in xs):
            raise InputError("element does not live in the ambient group")
        sols = self.ambient.solve_columns(self.include.matrix, [x.coords for x in xs])
        if sols is None:
            raise InputError("element does not lie in the numerator subgroup")
        return [self.project(self.include.source.element(sol)) for sol in sols]

    def representatives(self, qs: Sequence[GroupElement]) -> list[GroupElement]:
        if any(q.group != self.group for q in qs):
            raise InputError("class does not live in this subquotient")
        sols = self.group.solve_columns(self.project.matrix, [q.coords for q in qs])
        if sols is None:
            raise AssertionError("projections are onto")
        return [self.include(self.project.source.element(sol)) for sol in sols]


def _tate_subquotient(module: CyclicGroupModule, num: Homomorphism,
                      den: Homomorphism) -> Subquotient:
    sub, inc = kernel(num)
    den_into_sub = factor_through(den, inc)
    quo, proj = cokernel(den_into_sub)
    return Subquotient(group=quo, ambient=module.group,
                       include=inc, project=proj)


@dataclass(frozen=True)
class TateGroups:
    """The Tate cohomology of a cyclic action, in degrees -1 and 0.

    Cohomology of a finite cyclic group is 2-periodic, so degree -1 also
    stands for every odd degree and degree 0 for every even one.
    """

    minus_one: Subquotient
    zero: Subquotient

    @property
    def trivial(self) -> bool:
        """Both groups vanish: the module is cohomologically trivial."""
        return self.minus_one.group.is_trivial and self.zero.group.is_trivial


def tate_cohomology(module: CyclicGroupModule) -> TateGroups:
    """Tate groups ker N / im T (odd degrees) and ker T / im N (even)."""
    minus_one = _tate_subquotient(module, module.norm, module.difference)
    zero = _tate_subquotient(module, module.difference, module.norm)
    return TateGroups(minus_one=minus_one, zero=zero)


def equivariant_section_exists(seq: GModuleSequence) -> Optional[GModuleMap]:
    """A section of g commuting with the action, or None.

    Decided for any finitely generated modules, finite or not, as one
    congruence system: the section condition, its well-definedness, and
    the commuting condition.
    """
    b_grp, c_grp = seq.B.group, seq.C.group
    gb, gc = b_grp.generator_count, c_grp.generator_count
    rc = c_grp.relations
    sol = solve_congruences({"X": (gb, gc)}, [
        ([(seq.g.hom.matrix, "X", None)], IntMatrix.identity(gc), c_grp),
        ([(None, "X", rc)], IntMatrix.zeros(gb, rc.cols), b_grp),
        ([(None, "X", seq.C.sigma.matrix), (-seq.B.sigma.matrix, "X", None)],
         IntMatrix.zeros(gb, gc), b_grp),
    ])
    if sol is None:
        return None
    s_hom = Homomorphism(c_grp, b_grp, sol["X"])
    Section(seq.sequence, s_hom)
    return GModuleMap(seq.C, seq.B, s_hom)


def tate_model(p: int) -> CyclicGroupModule:
    """The free rank-p module on 1, sigma, ..., sigma^(p-2), N/p.

    This is the subgroup of the rational group ring generated by the
    integral ring and the divided norm; its two Tate groups are both
    cyclic of order p, which makes it the standard nontrivial test module.
    """
    require_prime(p)
    grp = FgAbGroup.free(p)
    cols: list[list[int]] = []
    for j in range(p - 2):
        cols.append([1 if i == j + 1 else 0 for i in range(p)])
    cols.append([-1] * (p - 1) + [p])
    cols.append([0] * (p - 1) + [1])
    sigma = Homomorphism(grp, grp, IntMatrix.from_columns(p, cols))
    return CyclicGroupModule(p, grp, sigma)


def _shift(d: int) -> IntMatrix:
    """Permutation matrix sending basis vector j to basis vector j+1 mod d."""
    return IntMatrix(d, d, tuple(int(i == (j + 1) % d)
                                 for i in range(d) for j in range(d)))


def regular_module(d: int) -> CyclicGroupModule:
    """The integral group ring of a cyclic group, sigma acting by shift."""
    if d < 1:
        raise InputError("the acting group must have positive order")
    grp = FgAbGroup.free(d)
    return CyclicGroupModule(d, grp, Homomorphism(grp, grp, _shift(d)))


def reduce_mod_p(module: CyclicGroupModule, p: int) -> CyclicGroupModule:
    """The quotient module M/pM with the induced action."""
    if p < 2:
        raise InputError("modulus must be at least 2")
    g = module.group.generator_count
    quo = FgAbGroup(g, hstack(module.group.relations,
                              IntMatrix.identity(g).scaled(p)))
    sigma = Homomorphism(quo, quo, module.sigma.matrix)
    return CyclicGroupModule(module.d, quo, sigma)


@dataclass(frozen=True)
class ConnectingSequence:
    """0 -> ker N/im T of M -> same of M/p -> ker T/im N of M -> 0."""

    sequence: ShortExactSequence
    left: Subquotient
    middle: Subquotient
    right: Subquotient


def les_multiplication_by_p(module: CyclicGroupModule,
                            p: int) -> ConnectingSequence:
    """The six-term sequence of multiplication by p, collapsed to three.

    Needs the acting group to have order exactly p and the module to have
    no p-torsion; then multiplication by p is injective and the degree
    -1 and 0 rows assemble into a short exact sequence connecting M and
    M/p. The connecting map divides the norm of an integral lift by p.
    """
    require_prime(p)
    if module.d != p:
        raise InputError("the acting group must have order exactly p")
    simp = module.group.simplified
    for i, d_i in enumerate(module.group.invariant_factors):
        if d_i % p == 0:
            coords = [0] * simp.group.generator_count
            coords[i] = d_i // p
            witness = simp.from_simple(simp.group.element(coords))
            raise InputError(
                f"module has p-torsion: {witness!r} has order {p}")
    tate = tate_cohomology(module)
    reduced = reduce_mod_p(module, p)
    h1_bar = _tate_subquotient(reduced, reduced.norm, reduced.difference)
    h1, h2 = tate.minus_one, tate.zero

    reps = h1.representatives(h1.group.generators())
    j = hom_from_images(h1.group, h1_bar.group, h1_bar.classes_of(
        [reduced.group.element(rep.coords) for rep in reps]))

    g = module.group.generator_count
    norms = [module.norm(module.group.element(rep.coords))
             for rep in h1_bar.representatives(h1_bar.group.generators())]
    sols = module.group.solve_columns(IntMatrix.identity(g).scaled(p),
                                      [norm.coords for norm in norms])
    if sols is None:
        raise AssertionError("norm of a mod-p cocycle is divisible by p")
    ys = [module.group.element(sol) for sol in sols]
    if any(module.difference(y) for y in ys):
        raise AssertionError("divided norm lies in ker T")
    delta = hom_from_images(h1_bar.group, h2.group, h2.classes_of(ys))

    return ConnectingSequence(sequence=check_exact(j, delta),
                              left=h1, middle=h1_bar, right=h2)


def regular_extension_fixture(p: int) -> GModuleSequence:
    """The mod-p augmentation sequence 0 -> J -> F_p[G] -> F_p -> 0.

    Splits as plain groups but never equivariantly: the fixed points of
    the middle are spanned by the all-ones vector, whose augmentation is
    p = 0, so no fixed element maps to 1.
    """
    require_prime(p)
    b_grp = FgAbGroup(p, IntMatrix.identity(p).scaled(p))
    b_mod = CyclicGroupModule(p, b_grp, Homomorphism(b_grp, b_grp, _shift(p)))
    c_grp = FgAbGroup.cyclic(p)
    c_mod = CyclicGroupModule(p, c_grp, Homomorphism.identity(c_grp))
    aug = Homomorphism(b_grp, c_grp, IntMatrix(1, p, (1,) * p))
    a_grp, inc = kernel(aug)
    sigma_a = factor_through(b_mod.sigma @ inc, inc)
    a_mod = CyclicGroupModule(p, a_grp, sigma_a)
    return GModuleSequence(f=GModuleMap(a_mod, b_mod, inc),
                           g=GModuleMap(b_mod, c_mod, aug))


@dataclass(frozen=True)
class ChrisReport:
    """Everything the mod-p splitting obstruction argument needs.

    The divided-norm module has both Tate groups of order p, its mod-p
    reduction has a rank-two degree -1 group, and the augmentation fixture
    splits plainly but not equivariantly. p = 2 falls outside the odd
    hypothesis; p_odd records that.
    """

    p: int
    p_odd: bool
    h1_invariants: tuple[int, ...]
    h2_invariants: tuple[int, ...]
    h1_mod_p_invariants: tuple[int, ...]
    les_exact: bool
    equivariant_section_found: bool
    plain_section_found: bool
    inference: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return (self.h1_invariants == (self.p,)
                and self.h2_invariants == (self.p,)
                and self.h1_mod_p_invariants == (self.p, self.p)
                and self.les_exact
                and not self.equivariant_section_found
                and self.plain_section_found)

    def __bool__(self) -> bool:
        return self.valid


def chris_verify(p: int) -> ChrisReport:
    """Run the whole mod-p obstruction computation for one prime."""
    require_prime(p)
    les = les_multiplication_by_p(tate_model(p), p)
    h1_inv = les.left.group.invariant_factors
    h2_inv = les.right.group.invariant_factors
    middle_inv = les.middle.group.invariant_factors
    fixture = regular_extension_fixture(p)
    equivariant = equivariant_section_exists(fixture)
    plain = section_exists(fixture.sequence)
    inference = [
        f"both Tate groups of the divided-norm module are cyclic of "
        f"order {p}",
        f"the degree -1 Tate group of its mod-{p} reduction has invariant "
        f"factors {middle_inv}, strictly larger than either end",
        "the three-term sequence of multiplication by p is exact, so the "
        "middle cannot collapse onto one end",
        f"the augmentation fixture splits as plain groups but admits no "
        f"equivariant section mod {p}",
    ]
    if p == 2:
        inference.append("p = 2 is outside the odd-order hypothesis; "
                         "reported for information only")
    return ChrisReport(
        p=p, p_odd=p != 2,
        h1_invariants=h1_inv, h2_invariants=h2_inv,
        h1_mod_p_invariants=middle_inv,
        les_exact=True,
        equivariant_section_found=equivariant is not None,
        plain_section_found=plain is not None,
        inference=tuple(inference))

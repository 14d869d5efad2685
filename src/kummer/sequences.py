"""Short exact sequences: exactness, purity, splitness, duality, ranks.

The constructive heart of the package: a pure sequence of finitely
generated groups splits, and the section is assembled exactly the way the
classical proof does it (cyclic decomposition of C, one same-order lift per
cyclic generator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, singledispatch
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import InputError, NotExactError, PurityError, UnsupportedError
from .groups import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    cokernel_witness,
    direct_sum,
    factor_through,
    kernel_witness,
)
from .matrices import IntMatrix

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ShortExactSequence",
    "Section",
    "PurityCertificate",
    "check_exact",
    "is_pure",
    "pure_witness",
    "assemble_section",
    "section_exists",
    "section_from_purity",
    "pontryagin_dual",
    "double_dual_iso",
    "double_dual_inverse",
    "character_pairing",
    "dualize_sequence",
    "rank_m",
    "retraction_from_section",
    "section_from_retraction",
    "split_sequence",
]


@dataclass(frozen=True)
class ShortExactSequence:
    """0 -> A -f-> B -g-> C -> 0, all three exactness conditions checked."""

    f: Homomorphism
    g: Homomorphism

    def __post_init__(self):
        f, g = self.f, self.g
        if f.target != g.source:
            raise InputError("maps do not compose: f.target differs from g.source")
        wit = kernel_witness(f)
        if wit is not None:
            raise NotExactError("mono", "f has nontrivial kernel", witness=wit)
        wit = cokernel_witness(g)
        if wit is not None:
            raise NotExactError("epi", "g is not surjective", witness=wit)
        ker_g = g.kernel_form
        j = ker_g.outside(f.matrix)
        if j is not None:
            raise NotExactError("complex", "g∘f is nonzero",
                                witness=g.target.element(g.matrix.apply(f.matrix.col(j))))
        j = f.image_form.outside(ker_g.matrix)
        if j is not None:
            raise NotExactError("middle", "kernel of g is larger than image of f",
                                witness=f.target.element(ker_g.matrix.col(j)))

    @cached_property
    def _lift_loop(self) -> tuple[Optional["Section"], Optional[PurityError]]:
        """The lift loop, run once: a section from one same-order lift per
        cyclic generator of C (one solve gives every preimage; for infinite
        C it reads the elimination of [g | R_C] that checked g), or the
        PurityError of the first generator with none."""
        dec = self.C.simplified
        cs = [dec.from_simple(e) for e in dec.group.generators()]
        b0s = self.C.solve_columns(self.g.matrix, [c.coords for c in cs])
        try:
            lifts = [_same_order_lift(self, c, b0) for c, b0 in zip(cs, b0s)]
        except PurityError as exc:
            return None, exc.with_traceback(None)
        return assemble_section(self, lifts), None

    @property
    def A(self) -> FgAbGroup:
        return self.f.source

    @property
    def B(self) -> FgAbGroup:
        return self.f.target

    @property
    def C(self) -> FgAbGroup:
        return self.g.target

    def __repr__(self) -> str:
        return f"SES<{self.A!r} -> {self.B!r} -> {self.C!r}>"


def check_exact(f: Homomorphism, g: Homomorphism) -> ShortExactSequence:
    """Validate 0 -> A -> B -> C -> 0; NotExactError names the first failure."""
    return ShortExactSequence(f, g)


@dataclass(frozen=True)
class Section:
    """Right inverse of g, verified at construction."""

    seq: ShortExactSequence
    s: Homomorphism

    def __post_init__(self):
        if self.s.source != self.seq.C or self.s.target != self.seq.B:
            raise InputError("section must map C into B")
        if self.seq.C._disagreement(self.seq.g.matrix @ self.s.matrix):
            raise InputError("not a section: g∘s is not the identity")

    def __call__(self, c: GroupElement) -> GroupElement:
        return self.s(c)


# ---------------------------------------------------------------------------
# Purity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PurityCertificate:
    """Outcome of the lift loop: pure, or the first cyclic generator of C
    with no lift of its order."""

    pure: bool
    failure: Optional[GroupElement] = None

    def __bool__(self) -> bool:
        return self.pure


def is_pure(seq: ShortExactSequence) -> PurityCertificate:
    """Subgroup purity, nA = A ∩ nB for every n >= 1, decided by the lift
    loop: pure exactly when every cyclic generator of C lifts to an element
    of its own order, and then the lifts assemble into a section.

    Pure ⇒ lifts: if c has order m and g(b) = c, then mb lies in A ∩ mB =
    mA, say mb = ma, and b - a lifts c with order m. Lifts ⇒ section ⇒ A is
    a summand ⇒ pure. (A pure subgroup with a direct sum of cyclic groups
    as quotient is a summand: Fuchs, Infinite Abelian Groups I, §28.)

    A failure carries the first cyclic generator of C with no same-order
    lift, which proves the sequence impure and not split.
    """
    section, error = seq._lift_loop
    return PurityCertificate(pure=section is not None,
                             failure=None if error is None else error.element)


def pure_witness(seq: ShortExactSequence, c: GroupElement) -> GroupElement:
    """A lift b of c with the same order, or PurityError carrying c. Any
    preimage of an element of infinite order has infinite order."""
    if c.group != seq.C:
        raise InputError("element does not belong to C")
    b0 = seq.C.solve(seq.g.matrix, c.coords)
    if b0 is None:
        raise InputError("g is not surjective onto c")  # cannot happen: g epi
    return _same_order_lift(seq, c, b0)


def _same_order_lift(seq: ShortExactSequence, c: GroupElement,
                     b0: Sequence[int]) -> GroupElement:
    """``pure_witness`` given one preimage b0 of c."""
    m = c.order()
    if m == math.inf:
        return seq.B.element(b0)
    m = int(m)
    ker_g = seq.g.kernel_form.matrix
    target = tuple(-m * x for x in b0)
    t = seq.B.solve(ker_g.scaled(m), target)
    if t is None:
        raise PurityError(f"no lift of the same order {m}", element=c)
    coords = tuple(x + y for x, y in zip(b0, ker_g.apply(t)))
    b = seq.B.element(coords)
    if b.order() != m:
        raise AssertionError(f"lift has order {b.order()}, not {m}")
    return b


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def split_sequence(a: FgAbGroup, c: FgAbGroup) -> ShortExactSequence:
    """The direct-sum sequence 0 -> A -> A ⊕ C -> C -> 0."""
    ds = direct_sum(a, c)
    return check_exact(ds.injections[0], ds.projections[1])


def section_exists(seq: ShortExactSequence) -> Optional[Section]:
    """A verified section of g, or None, which proves that g does not split:
    the lift loop found a cyclic generator c of C with no lift of its order,
    and a section s would give one, s(c), as no homomorphism raises orders."""
    return seq._lift_loop[0]


def assemble_section(seq: ShortExactSequence,
                     lifts: Sequence[GroupElement]) -> Section:
    """Section of g from one same-order lift per cyclic generator of C.

    lifts[i] must lie over dec.from_simple(e_i), for dec = seq.C.simplified
    the cyclic decomposition of C; order equality makes the assembled map
    well-defined, and the Section constructor re-verifies g∘s = id.
    """
    dec = seq.C.simplified
    if len(lifts) != dec.group.generator_count:
        raise InputError("need exactly one lift per cyclic generator")
    wit = IntMatrix.from_columns(seq.B.generator_count, [y.coords for y in lifts])
    return Section(seq, Homomorphism(seq.C, seq.B, wit @ dec.to_simple.matrix))


def section_from_purity(seq: ShortExactSequence) -> Section:
    """Split a pure sequence constructively.

    Decompose C into cyclic summands (torsion generators first), take one
    same-order lift per cyclic generator, and assemble; a non-pure input
    surfaces as PurityError at its first torsion generator with no such lift.
    """
    section, error = seq._lift_loop
    if error is not None:
        raise PurityError(str(error), element=error.element)
    return section


def retraction_from_section(seq: ShortExactSequence, s: Section) -> Homomorphism:
    """r: B -> A with r∘f = id, via r(b) = f⁻¹(b - s(g(b)))."""
    proj = IntMatrix.identity(seq.B.generator_count) - s.s.matrix @ seq.g.matrix
    r = factor_through(Homomorphism(seq.B, seq.B, proj), seq.f)
    if seq.A._disagreement(r.matrix @ seq.f.matrix):
        raise InputError("retraction verification failed")
    return r


def section_from_retraction(seq: ShortExactSequence, r: Homomorphism) -> Section:
    """s(c) = b - f(r(b)) for any preimage b of c; independent of the choice."""
    if r.source != seq.B or r.target != seq.A:
        raise InputError("retraction must map B onto A")
    if seq.A._disagreement(r.matrix @ seq.f.matrix):
        raise InputError("not a retraction: r∘f is not the identity")
    fr = seq.f.matrix @ r.matrix
    bs = seq.C.solve_columns(seq.g.matrix, [c.coords for c in seq.C.generators()])
    if bs is None:
        raise InputError("g is not surjective")  # impossible for a SES
    mat = IntMatrix.from_columns(seq.B.generator_count,
                                 [tuple(x - y for x, y in zip(b, fr.apply(b))) for b in bs])
    return Section(seq, Homomorphism(seq.C, seq.B, mat))


# ---------------------------------------------------------------------------
# Pontryagin duality (finite groups)
# ---------------------------------------------------------------------------


def _dual_data(g: FgAbGroup) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    if not g.is_finite:
        raise UnsupportedError("Pontryagin duality implemented for finite groups")
    full = g._full_diagonal()
    return full, g.snf.U, g.snf.U_inv


@singledispatch
def pontryagin_dual(obj):
    """Dual group Hom(G, Q/Z) of a finite group, or dual of a homomorphism.

    The dual group is presented on coordinates relative to the SNF basis of
    the original: a character vector (c_i) pairs with x as
    sum c_i (Ux)_i / d_i mod 1.
    """
    raise InputError(f"cannot dualize {type(obj).__name__}")


@pontryagin_dual.register
def _(g: FgAbGroup) -> FgAbGroup:
    full, _, _ = _dual_data(g)
    return FgAbGroup(g.generator_count, IntMatrix.diagonal(full))


@pontryagin_dual.register
def _(h: Homomorphism) -> Homomorphism:
    src_full, src_u, src_uinv = _dual_data(h.source)
    tgt_full, tgt_u, _ = _dual_data(h.target)
    conj = tgt_u @ h.matrix @ src_uinv
    gs, gt = h.source.generator_count, h.target.generator_count
    entries = []
    for j in range(gs):
        for i in range(gt):
            num = src_full[j] * conj[i, j]
            if num % tgt_full[i]:
                raise InputError("dual matrix is not integral; "
                                 "source map was not well-defined")
            entries.append(num // tgt_full[i])
    mat = IntMatrix(gs, gt, tuple(entries))
    return Homomorphism(pontryagin_dual(h.target), pontryagin_dual(h.source), mat)


def character_pairing(chi: GroupElement, x: GroupElement) -> Fraction:
    """Value in Q/Z of a character against a group element, in [0, 1)."""
    # imported here: fractions loads numbers and decimal, which no verb needs
    from fractions import Fraction

    dual = chi.group
    g = x.group
    if dual != pontryagin_dual(g):
        raise InputError("character group does not match the element's group")
    full, u, _ = _dual_data(g)
    ux = u.apply(x.coords)
    total = Fraction(0)
    for c, y, d in zip(chi.coords, ux, full):
        total += Fraction(c * y, d)
    return total - math.floor(total)


def double_dual_iso(g: FgAbGroup) -> Homomorphism:
    """Natural evaluation isomorphism G -> dual(dual(G))."""
    _, u, _ = _dual_data(g)
    return Homomorphism(g, pontryagin_dual(pontryagin_dual(g)), u)


def double_dual_inverse(g: FgAbGroup) -> Homomorphism:
    _, _, uinv = _dual_data(g)
    return Homomorphism(pontryagin_dual(pontryagin_dual(g)), g, uinv)


def dualize_sequence(seq: ShortExactSequence) -> ShortExactSequence:
    """0 -> dual(C) -> dual(B) -> dual(A) -> 0."""
    return check_exact(pontryagin_dual(seq.g), pontryagin_dual(seq.f))


# ---------------------------------------------------------------------------
# m-rank
# ---------------------------------------------------------------------------


def rank_m(g: FgAbGroup, m: int) -> int:
    """Largest r with a subgroup isomorphic to (Z/m)^r: the number of
    invariant factors that m divides.

    For m = p^t it is the number of factors with p-adic valuation >= t, and
    for composite m the least such number over the prime-power parts. The
    factors form a divisibility chain, so each part's factors are a suffix
    of it and their intersection is the factors m divides; m is never
    factored. A free summand holds no element of finite order.
    """
    if m < 2:
        raise InputError("rank is defined for m >= 2")
    return sum(d % m == 0 for d in g.invariant_factors)

"""Finitely generated abelian groups given by integer presentations.

A group is Z^g modulo the column span of a relation matrix. Elements are
stored in a canonical reduced form (via the Hermite form of the relations),
so equality and hashing are structural. Homomorphisms carry a
well-definedness certificate checked at construction time.

Infinite groups (positive free rank) are first-class here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .errors import InputError
from .matrices import (
    HermiteColumnForm,
    IntMatrix,
    MatrixEquationSystem,
    SmithDecomposition,
    _diagonal_of,
    _smith_form,
    _tracked_elimination,
    block_diag,
    hermite_column_form,
    hstack,
    int_tuple,
    smith_normal_form,  # noqa: F401  (perfbench's tracer test reads it here)
    solve_modular_columns,
)

__all__ = [
    "FgAbGroup",
    "GroupElement",
    "Homomorphism",
    "DirectSum",
    "Simplified",
    "common_exponent",
    "solve_congruences",
    "kernel",
    "image",
    "cokernel",
    "direct_sum",
    "subgroup_generated",
    "hom_from_images",
    "factor_through",
    "kernel_witness",
    "cokernel_witness",
    "is_injective",
    "is_surjective",
    "is_isomorphism",
    "invert_isomorphism",
    "INFINITE",
]

# Additive order / group order of something with a free part.
INFINITE = math.inf

# Pure kernel results, such as a group's Smith and Hermite forms, by kind and
# full input, least recently used first, so that equal inputs built
# separately share one result, also after the objects that asked for it are
# gone. A key weighs one plus the number of matrix and vector entries in it,
# and the weights stay within the budget; a key heavier than the budget is
# not stored.
_MEMO_BUDGET = 49_152
_MEMO: dict[tuple, tuple[int, object]] = {}
_memo_weight = 0


def _key_weight(key) -> int:
    """The matrix and vector entries in a key."""
    if isinstance(key, IntMatrix):
        return key.rows * key.cols
    if isinstance(key, tuple):
        return sum(map(_key_weight, key))
    return 1 if isinstance(key, int) else 0


def _memo(kind: str, key, make):
    """The memoized ``make()`` for (kind, key), computed on a miss; ``key``
    must determine the result."""
    global _memo_weight
    slot = (kind, key)
    entry = _MEMO.pop(slot, None)
    if entry is None:
        entry = (1 + _key_weight(key), make())
        if entry[0] > _MEMO_BUDGET:
            return entry[1]
        _memo_weight += entry[0]
        while _memo_weight > _MEMO_BUDGET:
            _memo_weight -= _MEMO.pop(next(iter(_MEMO)))[0]
    _MEMO[slot] = entry
    return entry[1]


@dataclass(frozen=True)
class FgAbGroup:
    """Z^generator_count modulo the column span of ``relations``."""

    generator_count: int
    relations: IntMatrix

    def __post_init__(self):
        if self.generator_count < 0:
            raise InputError("negative generator count")
        if self.relations.rows != self.generator_count:
            raise InputError(
                f"relations have {self.relations.rows} rows, "
                f"expected {self.generator_count}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def free(cls, n: int) -> "FgAbGroup":
        return cls(n, IntMatrix.zeros(n, 0))

    @classmethod
    def cyclic(cls, m: int) -> "FgAbGroup":
        """Z/m for m >= 1, Z for m = 0."""
        if m < 0:
            raise InputError("cyclic order must be nonnegative")
        if m == 0:
            return cls.free(1)
        return cls(1, IntMatrix.from_rows([[m]]))

    @classmethod
    def of_orders(cls, *orders: int) -> "FgAbGroup":
        """Direct sum of cyclic groups of the given orders (0 means Z)."""
        cols = [IntMatrix.column([0] * i + [m] + [0] * (len(orders) - i - 1))
                for i, m in enumerate(orders) if m != 0]
        if not cols:
            return cls.free(len(orders))
        return cls(len(orders), hstack(*cols))

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls.free(0)

    # -- structure ---------------------------------------------------------

    @cached_property
    def snf(self) -> SmithDecomposition:
        """Smith form of the relations with U, S and U_inv only, the parts a
        group reads (``matrices._smith_form``): V and V_inv are None."""
        return _memo("snf", self.relations,
                     lambda: _smith_form(self.relations, columns=False))

    @cached_property
    def hermite(self) -> HermiteColumnForm:
        return _memo("hermite", self.relations, lambda: hermite_column_form(self.relations))

    @cached_property
    def _moduli(self) -> Optional[tuple[int, ...]]:
        """d_i for each generator i if the relations are diagonal (relator i
        is d_i times generator i; d_i = 0 past the relators), else None."""
        diag = _diagonal_of(self.relations)
        return None if diag is None else diag + (0,) * (self.generator_count - len(diag))

    def _full_diagonal(self) -> tuple[int, ...]:
        """SNF diagonal padded with zeros up to generator_count."""
        diag = self.snf.diagonal
        return diag + (0,) * (self.generator_count - len(diag))

    @cached_property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.snf.diagonal if d > 1)

    @cached_property
    def free_rank(self) -> int:
        return self.generator_count - self.snf.rank

    @property
    def exponent(self) -> Union[int, float]:
        if self.free_rank:
            return INFINITE
        facts = self.invariant_factors
        return facts[-1] if facts else 1

    @property
    def order(self) -> Union[int, float]:
        if self.free_rank:
            return INFINITE
        return math.prod(self.invariant_factors)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @cached_property
    def simplified(self) -> "Simplified":
        """Isomorphic diagonal presentation with trivial summands dropped.

        Solving linear problems over the simplified presentation and
        transporting back is much cheaper than working with a raw relation
        matrix, and both transport maps here are exact mutual inverses.
        """
        g = self.generator_count
        dec = self.snf
        full = self._full_diagonal()
        keep = [i for i in range(g) if full[i] != 1]
        torsion = [full[i] for i in keep if full[i] != 0]
        # torsion indices precede free ones inside keep (zeros trail in SNF)
        rel = IntMatrix.diagonal(torsion, rows=len(keep), cols=len(torsion))
        simple = FgAbGroup(len(keep), rel)
        to_mat = dec.U.select(keep, range(g))
        from_mat = dec.U_inv.select(range(g), keep)
        return Simplified(
            group=simple,
            to_simple=Homomorphism(self, simple, to_mat),
            from_simple=Homomorphism(simple, self, from_mat),
        )

    # -- elements ----------------------------------------------------------

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, int_tuple(coords))

    @property
    def zero(self) -> "GroupElement":
        return self.element((0,) * self.generator_count)

    def generator(self, i: int) -> "GroupElement":
        if not 0 <= i < self.generator_count:
            raise InputError(f"no generator {i}")
        return self.element(tuple(int(j == i) for j in range(self.generator_count)))

    def generators(self) -> list["GroupElement"]:
        return [self.generator(i) for i in range(self.generator_count)]

    # -- lattice questions --------------------------------------------------

    def span(self, cols: IntMatrix) -> HermiteColumnForm:
        """Hermite form of the lattice spanned by ``cols`` and the relations,
        i.e. of the preimage in Z^g of the subgroup the columns generate."""
        return hermite_column_form(hstack(cols, self.relations))

    def solve(self, mat: IntMatrix, rhs: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Some integer x with mat @ x = rhs in this group, or None: the
        one-column case of ``solve_columns``."""
        sols = self.solve_columns(mat, [rhs])
        return None if sols is None else sols[0]

    def solve_columns(self, mat: IntMatrix, rhss: Sequence[Sequence[int]]
                      ) -> Optional[list[tuple[int, ...]]]:
        """For each rhs, some integer x with mat @ x = rhs in this group; or
        None if some rhs has none.

        That is, mat @ x - rhs lies in the relation lattice. A finite group's
        lattice contains exponent * Z^g, so there the congruence is solved
        with arithmetic modulo the exponent (Cohen, GTM 138, §2.4), which
        keeps coefficients small; the answer is the same as over Z. Otherwise
        x is back-substituted through the shared elimination of
        [mat | relations]: the coordinates of rhs in its image, times the
        transform rows that reach it. One elimination serves every rhs.
        Both kinds of answer are memoized by their full input, and each call
        returns a list of its own.
        """
        m = common_exponent(self)
        if m is not None:
            rhss = tuple(map(int_tuple, rhss))

            def solve() -> Optional[tuple[tuple[int, ...], ...]]:
                sols = solve_modular_columns(hstack(mat, self.relations), rhss, m)
                return None if None in sols else tuple(sol[:mat.cols] for sol in sols)
            sols = _memo("solve", (mat, self.relations, rhss), solve)
            return None if sols is None else list(sols)
        elim = _shared_elimination(mat, self.relations)
        ys = [elim.image_form.coordinates(rhs) for rhs in rhss]
        if None in ys:
            return None
        lift = IntMatrix.from_columns(mat.cols, elim.top)
        return [lift.apply(y) for y in ys]

    def _disagreement(self, one: IntMatrix, two: Optional[IntMatrix] = None
                      ) -> Optional["GroupElement"]:
        """The first column of one - two (two defaults to the identity) that is
        nonzero in this group, or None: maps into a group agree exactly modulo
        its relation lattice (Cohen, GTM 138, §2.4), so no composite is built."""
        diff = one - (IntMatrix.identity(self.generator_count) if two is None else two)
        j = self.hermite.outside(diff)
        return None if j is None else self.element(diff.col(j))

    def __repr__(self) -> str:
        parts = [f"Z/{d}" for d in self.invariant_factors]
        parts += ["Z"] * self.free_rank
        name = " + ".join(parts) if parts else "0"
        return f"FgAbGroup<{name}>"


def _first_outside(moduli: tuple[int, ...], mat: IntMatrix, scales: Sequence[int]
                   ) -> Optional[int]:
    """The first j for which scales[j] times column j of mat leaves the
    lattice spanned by the moduli[i] e_i, or None: entry i must be a multiple
    of moduli[i], and zero where that is 0. Columns scaled by 0 stay in."""
    for j, d in enumerate(scales):
        if d and any(x * d % c if c else x for x, c in zip(mat.col(j), moduli)):
            return j
    return None


@dataclass(frozen=True)
class GroupElement:
    """Element of an FgAbGroup in canonical reduced coordinates."""

    group: FgAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.group.generator_count:
            raise InputError(
                f"element has {len(self.coords)} coordinates, group has "
                f"{self.group.generator_count} generators"
            )
        reduced = self.group.hermite.reduce(self.coords)
        if reduced != self.coords:
            object.__setattr__(self, "coords", reduced)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._same_group(other)
        return GroupElement(self.group,
                            tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._same_group(other)
        return GroupElement(self.group,
                            tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def __rmul__(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(k * a for a in self.coords))

    def __bool__(self) -> bool:
        return any(self.coords)

    def _same_group(self, other: "GroupElement") -> None:
        if self.group != other.group:
            raise InputError("elements of different groups")

    def order(self) -> Union[int, float]:
        """Least n > 0 with n*x = 0, or infinite."""
        dec = self.group.snf
        y = dec.U.apply(self.coords)
        full = self.group._full_diagonal()
        n = 1
        for d, yi in zip(full, y):
            if d == 0:
                if yi:
                    return INFINITE
            else:
                n = math.lcm(n, d // math.gcd(d, yi))
        return n


@dataclass(frozen=True)
class Homomorphism:
    """Integer matrix on presentation generators, checked well-defined."""

    source: FgAbGroup
    target: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.shape != (self.target.generator_count,
                                 self.source.generator_count):
            raise InputError(
                f"matrix is {self.matrix.rows}x{self.matrix.cols}, expected "
                f"{self.target.generator_count}x{self.source.generator_count}"
            )
        src, tgt = self.source._moduli, self.target._moduli
        if src is None or tgt is None:
            j = self.target.hermite.outside(self.matrix @ self.source.relations)
        else:  # relator j is src[j] e_j, so it maps to src[j] times column j
            j = _first_outside(tgt, self.matrix, src)
        if j is not None:
            raise InputError(
                f"not a homomorphism: relator {j} maps to a nonzero element "
                "of the target")

    @cached_property
    def _elimination(self) -> "_Elimination":
        """The elimination of [matrix | target relations], shared by every
        map with the same two matrices while the memo keeps it."""
        return _shared_elimination(self.matrix, self.target.relations)

    @property
    def image_form(self) -> HermiteColumnForm:
        """Hermite form of the image lattice, ``target.span(matrix)``."""
        return self._elimination.image_form

    @property
    def kernel_form(self) -> HermiteColumnForm:
        """The kernel lattice, ``preimage_lattice(matrix, target.relations)``."""
        return self._elimination.kernel_form

    @classmethod
    def identity(cls, g: FgAbGroup) -> "Homomorphism":
        return cls(g, g, IntMatrix.identity(g.generator_count))

    @classmethod
    def zero(cls, source: FgAbGroup, target: FgAbGroup) -> "Homomorphism":
        return cls(source, target,
                   IntMatrix.zeros(target.generator_count, source.generator_count))

    def __call__(self, x: GroupElement) -> GroupElement:
        if x.group != self.source:
            raise InputError("element does not belong to the source group")
        return self.target.element(self.matrix.apply(x.coords))

    def __matmul__(self, other: "Homomorphism") -> "Homomorphism":
        """Composition self ∘ other."""
        if other.target != self.source:
            raise InputError("homomorphisms do not compose")
        return Homomorphism(other.source, self.target, self.matrix @ other.matrix)

    def same_map(self, other: "Homomorphism") -> bool:
        """Equality as maps (matrices may differ by relations)."""
        if self.source != other.source or self.target != other.target:
            raise InputError("comparing maps between different groups")
        return self.target._disagreement(self.matrix, other.matrix) is None

    def is_identity(self) -> bool:
        return self.source == self.target and self.target._disagreement(self.matrix) is None


class _Elimination:
    """``_tracked_elimination`` of a map's matrix and its target relations:
    the image lattice, raw kernel generators and the transform rows that
    solve into the image; and the kernel lattice, computed once."""

    def __init__(self, mat: IntMatrix, target_relations: IntMatrix):
        self.image_form, self.kernel_gens, self.top = _tracked_elimination(mat, target_relations)

    @cached_property
    def kernel_form(self) -> HermiteColumnForm:
        return hermite_column_form(self.kernel_gens)


def _shared_elimination(mat: IntMatrix, relations: IntMatrix) -> _Elimination:
    """The memoized elimination of [mat | relations]."""
    return _memo("elimination", (mat, relations), lambda: _Elimination(mat, relations))


def hom_from_images(source: FgAbGroup, target: FgAbGroup,
                    images: Sequence[GroupElement]) -> Homomorphism:
    if len(images) != source.generator_count:
        raise InputError("one image per source generator required")
    mat = IntMatrix.from_columns(target.generator_count, [x.coords for x in images])
    return Homomorphism(source, target, mat)


def common_exponent(*groups: FgAbGroup) -> Optional[int]:
    """lcm of the exponents of finite groups, or None if one is infinite.

    A congruence modulo the relation lattices of all the groups may be
    solved with arithmetic modulo this number instead of over Z.
    """
    if not all(g.is_finite for g in groups):
        return None
    return math.lcm(*(int(g.exponent) for g in groups))


def solve_congruences(unknowns: dict[str, tuple[int, int]],
                      equations: Sequence[tuple[list, IntMatrix, FgAbGroup]]
                      ) -> Optional[dict[str, IntMatrix]]:
    """The named unknown blocks solving every congruence, or None.

    ``unknowns`` maps names to (rows, cols). An equation (terms, rhs, group)
    reads sum L @ X @ R = rhs modulo the relation lattice of ``group``, with
    terms (L, name, R) as in ``MatrixEquationSystem.add_equation``. Each
    equation gets a slack block after the named unknowns, in equation
    order, as -relations @ slack; that layout fixes which solution is
    returned. Every lattice contains common_exponent(*groups) * Z^g, so the
    system is solved modulo that number (exactly if a group is infinite)
    with the same feasibility as over Z. The answer is memoized by the
    unknowns, the terms, the right-hand sides and the relations, and each
    call returns a dict of its own.
    """
    def solve() -> Optional[tuple[tuple[str, IntMatrix], ...]]:
        system = MatrixEquationSystem()
        for name, (rows, cols) in unknowns.items():
            system.add_unknown(name, rows, cols)
        for i, (terms, rhs, group) in enumerate(equations):
            slack = f"<slack {i}>"
            system.add_unknown(slack, group.relations.cols, rhs.cols)
            system.add_equation([*terms, (-group.relations, slack, None)], rhs)
        sol = system.solve(mod=common_exponent(*(group for _, _, group in equations)))
        return None if sol is None else tuple((name, sol[name]) for name in unknowns)

    key = (tuple((name, tuple(shape)) for name, shape in unknowns.items()),
           tuple((tuple(map(tuple, terms)), rhs, group.relations)
                 for terms, rhs, group in equations))
    sol = _memo("congruences", key, solve)
    return None if sol is None else dict(sol)


# ---------------------------------------------------------------------------
# Subgroups, kernels, images, cokernels
# ---------------------------------------------------------------------------


def _lattice_subgroup(ambient: FgAbGroup, lattice: HermiteColumnForm
                      ) -> tuple[FgAbGroup, Homomorphism]:
    """Subgroup P/L of ambient Z^g/L for a sublattice P containing L.

    ``lattice`` must span a lattice containing the ambient relation
    lattice; its basis columns become the subgroup generators, and the
    subgroup relations are the coordinates of the ambient relations.
    """
    rel = ambient.relations
    qcols = [lattice.coordinates(rel.col(j)) for j in range(rel.cols)]
    if None in qcols:
        raise InputError("sublattice does not contain the relation lattice")
    basis = lattice.matrix
    sub = FgAbGroup(basis.cols, IntMatrix.from_columns(basis.cols, qcols))
    return sub, Homomorphism(sub, ambient, basis)


def subgroup_generated(ambient: FgAbGroup, elements: Iterable[GroupElement]
                       ) -> tuple[FgAbGroup, Homomorphism]:
    """Subgroup generated by the given elements, with its inclusion."""
    cols = IntMatrix.from_columns(ambient.generator_count, [x.coords for x in elements])
    return _lattice_subgroup(ambient, ambient.span(cols))


def kernel(h: Homomorphism) -> tuple[FgAbGroup, Homomorphism]:
    """Kernel subgroup with its inclusion into the source."""
    return _lattice_subgroup(h.source, h.kernel_form)


def image(h: Homomorphism) -> tuple[FgAbGroup, Homomorphism]:
    """Image subgroup with its inclusion into the target."""
    return _lattice_subgroup(h.target, h.image_form)


def cokernel(h: Homomorphism) -> tuple[FgAbGroup, Homomorphism]:
    """Cokernel with the projection from the target."""
    coker = FgAbGroup(h.target.generator_count,
                      hstack(h.target.relations, h.matrix))
    proj = Homomorphism(h.target, coker,
                        IntMatrix.identity(h.target.generator_count))
    return coker, proj


def kernel_witness(h: Homomorphism) -> Optional[GroupElement]:
    """A nonzero element of the kernel of h, or None if h is injective: the
    first Hermite basis column of the kernel lattice that is nonzero in the
    source. The raw kernel generators decide whether there is one."""
    if h.source.hermite.outside(h._elimination.kernel_gens) is None:
        return None
    basis = h.kernel_form.matrix
    return h.source.element(basis.col(h.source.hermite.outside(basis)))


def cokernel_witness(h: Homomorphism) -> Optional[GroupElement]:
    """The first target generator outside the image of h, or None if h is
    surjective: the first generator that ``cokernel(h)`` does not kill."""
    j = h.image_form.outside(IntMatrix.identity(h.target.generator_count))
    return None if j is None else h.target.generator(j)


def is_injective(h: Homomorphism) -> bool:
    return kernel_witness(h) is None


def is_surjective(h: Homomorphism) -> bool:
    return cokernel_witness(h) is None


def is_isomorphism(h: Homomorphism) -> bool:
    return is_injective(h) and is_surjective(h)


def invert_isomorphism(h: Homomorphism) -> Homomorphism:
    """Two-sided inverse of an isomorphism: the identity of the target
    factored through h, so h ∘ x = id, then checked for x ∘ h = id."""
    try:
        inv = factor_through(Homomorphism.identity(h.target), h)
    except InputError as exc:
        raise InputError("homomorphism is not invertible") from exc
    if h.source._disagreement(inv.matrix @ h.matrix):
        raise InputError("homomorphism is not invertible")
    return inv


def factor_through(h: Homomorphism, inj: Homomorphism) -> Homomorphism:
    """The map x with inj ∘ x = h, for an injection inj whose image holds
    the image of h: every column of h solved through inj by one
    elimination. The answer is unique because inj is injective, and is
    returned in canonical coordinates."""
    if h.target != inj.target:
        raise InputError("maps do not share a target")
    sols = inj.target.solve_columns(inj.matrix,
                                    [h.matrix.col(j) for j in range(h.matrix.cols)])
    if sols is None:
        raise InputError("map does not factor through the injection")
    sub = inj.source
    return Homomorphism(h.source, sub, IntMatrix.from_columns(
        sub.generator_count, [sub.hermite.reduce(x) for x in sols]))


# ---------------------------------------------------------------------------
# Direct sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectSum:
    group: FgAbGroup
    injections: tuple[Homomorphism, ...]
    projections: tuple[Homomorphism, ...]


def direct_sum(*summands: FgAbGroup) -> DirectSum:
    """Biproduct with canonical injections and projections."""
    total = sum(g.generator_count for g in summands)
    big = FgAbGroup(total, block_diag(*(g.relations for g in summands)))
    injections = []
    projections = []
    offset = 0
    for g in summands:
        n = g.generator_count
        inj = IntMatrix(total, n, tuple(int(i == offset + j)
                                        for i in range(total) for j in range(n)))
        proj = IntMatrix(n, total, tuple(int(offset + i == j)
                                         for i in range(n) for j in range(total)))
        injections.append(Homomorphism(g, big, inj))
        projections.append(Homomorphism(big, g, proj))
        offset += n
    return DirectSum(big, tuple(injections), tuple(projections))


@dataclass(frozen=True)
class Simplified:
    """Diagonal presentation of a group with exact transport isomorphisms.

    from_simple ∘ to_simple = id as maps; to_simple ∘ from_simple = id on
    the nose (matrix identity).
    """

    group: FgAbGroup
    to_simple: Homomorphism
    from_simple: Homomorphism

"""Independent brute-force oracles the library is checked against.

Everything here is deliberately naive: determinant expansions over all
k x k submatrices, exhaustive element searches. Slow but obviously right,
which is the point.
"""

from __future__ import annotations

import math
from itertools import combinations, product

from typing import Optional

from kummer.groups import GroupElement
from kummer.matrices import IntMatrix, lattice_intersection, smith_normal_form
from kummer.sequences import ShortExactSequence


def naive_det(mat: IntMatrix) -> int:
    n = mat.rows
    if n == 0:
        return 1
    if n == 1:
        return mat[0, 0]
    total = 0
    sign = 1
    for j in range(n):
        minor = mat.select([i for i in range(1, n)],
                           [c for c in range(n) if c != j])
        total += sign * mat[0, j] * naive_det(minor)
        sign = -sign
    return total


def minors_gcd_diagonal(mat: IntMatrix) -> list[int]:
    """Expected Smith diagonal: d_k = gcd of k x k minors / previous gcd."""
    r = min(mat.rows, mat.cols)
    gcds = []
    for k in range(1, r + 1):
        g = 0
        for rows in combinations(range(mat.rows), k):
            for cols in combinations(range(mat.cols), k):
                g = math.gcd(g, naive_det(mat.select(list(rows),
                                                     list(cols))))
        gcds.append(g)
        if g == 0:
            break
    diagonal = []
    prev = 1
    for g in gcds:
        if g == 0:
            break
        diagonal.append(g // prev)
        prev = g
    while len(diagonal) < r:
        diagonal.append(0)
    return diagonal


def brute_same_order_lift(seq: ShortExactSequence,
                          c: GroupElement) -> bool:
    """Search all of B for a preimage of c with the same order."""
    target = c.order()
    for b in seq.B.elements():
        if seq.g(b) == c and b.order() == target:
            return True
    return False


def brute_equivariant_section(seq) -> Optional[list[GroupElement]]:
    """Images of C's generators under some equivariant section of g, or
    None. Searches every assignment of elements of B to the generators of
    C for one that kills C's relators, lifts each generator through g and
    commutes with the two actions on every generator. Finite B only."""
    b, c = seq.B.group, seq.C.group

    def image(images, coords) -> GroupElement:
        return b.element([sum(x * y.coords[i] for x, y in zip(coords, images))
                          for i in range(b.generator_count)])

    gens = c.generators()
    lifts = [[y for y in b.elements() if seq.g(y) == x] for x in gens]
    rel = c.relations
    for images in product(*lifts):
        if (not any(image(images, rel.col(j)) for j in range(rel.cols))
                and all(seq.B.sigma(y) == image(images, seq.C.sigma(x).coords)
                        for x, y in zip(gens, images))):
            return list(images)
    return None


def verify_section_on_all(seq: ShortExactSequence, s) -> bool:
    return all(seq.g(s.s(c)) == c for c in seq.C.elements())


def brute_solve_mod(mat: IntMatrix, rhs: tuple[int, ...], m: int,
                    bound: int = 6) -> bool:
    """Does mat x = rhs (mod m) have a solution? Exhaustive over (Z/m)^n."""
    n = mat.cols
    if m ** n > bound ** 6:
        raise ValueError("system too large for the brute oracle")
    for x in product(range(m), repeat=n):
        if all(sum(mat[i, j] * x[j] for j in range(n)) % m == rhs[i] % m
               for i in range(mat.rows)):
            return True
    return False


def snf_solve(mat: IntMatrix, rhs: tuple[int, ...]):
    """Some integer x with mat @ x == rhs, or None, through the Smith form
    (itself checked against ``minors_gcd_diagonal``): U @ mat @ V == S is
    diagonal, so S @ w == U @ rhs is solved entry by entry and x = V @ w."""
    dec = smith_normal_form(mat)
    w = [0] * mat.cols
    for i, t in enumerate(dec.U.apply(rhs)):
        d = dec.S[i, i] if i < mat.cols else 0
        if (t % d if d else t):
            return None
        if d:
            w[i] = t // d
    return dec.V.apply(w)


def lattice_purity_comparisons(seq: ShortExactSequence,
                               ns) -> tuple[tuple[int, bool], ...]:
    """(n, nA == A ∩ nB) for each n, by comparing the Hermite forms of the
    preimages in Z^g of nA and of A ∩ nB (the lattices are taken together
    with B's relations, so equal forms mean equal subgroups of B)."""
    b_group = seq.B
    fa = seq.f.matrix
    a_lat = b_group.span(fa).matrix
    n_b_gens = IntMatrix.identity(b_group.generator_count)
    out = []
    for n in ns:
        if n == 0:
            out.append((0, True))
            continue
        n_a = b_group.span(fa.scaled(n)).matrix
        n_b = b_group.span(n_b_gens.scaled(n)).matrix
        out.append((n, n_a == b_group.span(
            lattice_intersection(a_lat, n_b)).matrix))
    return tuple(out)

"""Independent brute-force oracles the library is checked against.

Everything here is deliberately naive: determinant expansions over all
k x k submatrices, exhaustive element searches. Slow but obviously right,
which is the point. The exceptions: ``determinant`` (Bareiss), kept for
matrices too large to expand (the library itself never computes a
determinant), ``congruence_section``, which decides splitting by one
congruence system where the library lifts cyclic generators, the
witness formulas (``kernel_form`` to ``tower_map_violations``), which
eliminate a map's kernel and image separately where the library makes
one pass, ``tower_square_violations``, which compares checked composites
where the library compares product matrices, and the ``reference_*``
eliminations, earlier versions of the library's own loops whose results
it must reproduce exactly.
"""

from __future__ import annotations

import math
from itertools import combinations, product

from typing import Iterator, Optional, Sequence

from kummer.arith import vp
from kummer.errors import InputError, UnsupportedError
from kummer.groups import FgAbGroup, GroupElement, Homomorphism, solve_congruences
from kummer.matrices import (HermiteColumnForm, IntMatrix, SmithDecomposition, _diagonal_of,
                             _ext_gcd, _identity_rows, _is_diagonal, _is_smith_chain,
                             hermite_column_form, hstack, int_tuple, kernel_lattice,
                             smith_normal_form)
from kummer.sequences import Section, ShortExactSequence


def elements(g: FgAbGroup) -> Iterator[GroupElement]:
    """Every element of a finite group. Its canonical coordinates are the
    box of residues below the pivots of the relations' Hermite form."""
    if not g.is_finite:
        raise UnsupportedError("cannot enumerate an infinite group")
    h = g.hermite
    return (g.element(x) for x in product(*(range(h.matrix[r, c]) for r, c in h.pivots)))


def lattice_intersection(m1: IntMatrix, m2: IntMatrix) -> IntMatrix:
    """Generators (as columns) of colspan(m1) ∩ colspan(m2)."""
    ker = kernel_lattice(hstack(m1, -m2))
    return m1 @ ker.select(range(m1.cols), range(ker.cols))


def kernel_form(h: Homomorphism) -> HermiteColumnForm:
    """Hermite form of {x : h.matrix @ x in the target relations}: the top
    rows of the integer kernel of [h.matrix | target relations], reduced by
    a Hermite pass of their own, as ``preimage_lattice`` computes it."""
    ker = kernel_lattice(hstack(h.matrix, h.target.relations))
    return hermite_column_form(ker.select(range(h.matrix.cols), range(ker.cols)))


def image_form(h: Homomorphism) -> HermiteColumnForm:
    """Hermite form of [h.matrix | target relations], by a pass of its own."""
    return hermite_column_form(hstack(h.matrix, h.target.relations))


def kernel_witness(h: Homomorphism) -> Optional[GroupElement]:
    """The first column of the ``kernel_form(h)`` basis outside the source
    relations."""
    basis = kernel_form(h).matrix
    j = h.source.hermite.outside(basis)
    return None if j is None else h.source.element(basis.col(j))


def cokernel_witness(h: Homomorphism) -> Optional[GroupElement]:
    """The first target generator outside ``image_form(h)``."""
    j = image_form(h).outside(IntMatrix.identity(h.target.generator_count))
    return None if j is None else h.target.generator(j)


def exactness_failure(f: Homomorphism, g: Homomorphism
                      ) -> Optional[tuple[str, GroupElement]]:
    """The first condition that 0 -> A -f-> B -g-> C -> 0 fails, in the
    order mono, epi, complex, middle, with its witness; or None."""
    for condition, wit in (("mono", kernel_witness(f)), ("epi", cokernel_witness(g))):
        if wit is not None:
            return condition, wit
    ker_g = kernel_form(g)
    j = ker_g.outside(f.matrix)
    if j is not None:
        return "complex", g.target.element(g.matrix.apply(f.matrix.col(j)))
    j = image_form(f).outside(ker_g.matrix)
    return None if j is None else ("middle", f.target.element(ker_g.matrix.col(j)))


def tower_map_violations(t) -> list[tuple[int, str, GroupElement]]:
    """(level, check, witness) of every violation of the right maps of an
    upward tower (injective, image the p^level-torsion) or of the left maps
    of a downward one (onto, kernel p^level times the source)."""
    def difference(group: FgAbGroup, one: HermiteColumnForm, two: HermiteColumnForm):
        for inner, outer in ((one, two), (two, one)):
            j = outer.outside(inner.matrix)
            if j is not None:
                return group.element(inner.matrix.col(j))
        return None

    out = []
    for level, lm in enumerate(t.maps, 1):
        h = lm.gamma if t.upward else lm.alpha
        grp = h.target if t.upward else h.source
        scaled = IntMatrix.identity(grp.generator_count).scaled(t.p ** level)
        if t.upward:  # the p^level-torsion against the image
            tors = kernel_form(Homomorphism(grp, grp, scaled))
            wits = (kernel_witness(h), difference(grp, tors, image_form(h)))
        else:  # the kernel against p^level times the source
            multiples = hermite_column_form(hstack(scaled, grp.relations))
            wits = (cokernel_witness(h), difference(grp, kernel_form(h), multiples))
        out += [(level, "inclusion" if t.upward else "surjection", wit)
                for wit in wits if wit is not None]
    return out


def tower_square_violations(t) -> list[tuple[int, str, str, GroupElement]]:
    """(level, check, message, witness) of every square of t that does not
    commute, found the way the squares were once checked: by building both
    composites as checked homomorphisms and comparing them."""
    out = []
    for level, (lo, hi, lm) in enumerate(zip(t.seqs, t.seqs[1:], t.maps), 1):
        if t.upward:
            squares = ((lm.beta @ lo.f, hi.f @ lm.alpha), (lm.gamma @ lo.g, hi.g @ lm.beta))
        else:
            squares = ((lo.f @ lm.alpha, lm.beta @ hi.f), (lo.g @ lm.beta, lm.gamma @ hi.g))
        for name, (one, two) in zip(("left square", "right square"), squares):
            diff = one.matrix - two.matrix
            j = one.target.hermite.outside(diff)
            if j is not None:
                out.append((level, "square", f"{name} between levels {level} and "
                            f"{level + 1} does not commute", one.target.element(diff.col(j))))
    return out


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


def determinant(mat: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not mat.is_square:
        raise InputError("determinant of a non-square matrix")
    n = mat.rows
    if n == 0:
        return 1
    a = [list(mat.row(i)) for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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
    for b in elements(seq.B):
        if seq.g(b) == c and b.order() == target:
            return True
    return False


def lattice_same_order_lift(seq: ShortExactSequence, c: GroupElement) -> bool:
    """Whether c has a preimage of its own order, B finite or not. The
    preimages are b0 + f(a) modulo B's relations for one preimage b0 (read
    off the Smith form of [g | R_C]), and m(b0 + f(a)) = 0 for m = ord(c)
    exactly when m·b0 lies in the span of m·f and B's relations."""
    m = c.order()
    if m == math.inf:
        return True
    b0 = snf_solve(hstack(seq.g.matrix, seq.C.relations), c.coords)[:seq.B.generator_count]
    if seq.g(seq.B.element(b0)) != c:
        raise AssertionError("the Smith solve gave no preimage")
    return seq.B.span(seq.f.matrix.scaled(m)).contains(tuple(m * x for x in b0))


def congruence_section(seq: ShortExactSequence) -> Optional[Section]:
    """A verified section of g, or None (a proof that none exists).

    One integer congruence system in the generator images: s must be
    well-defined on C's relators and satisfy g∘s = id. Solved over the
    simplified presentations of B and C, then transported back. The library
    splits by lifting each cyclic generator of C instead, so this decides
    the same question by another route.
    """
    simp_b, simp_c = seq.B.simplified, seq.C.simplified
    g_s = (simp_c.to_simple @ seq.g) @ simp_b.from_simple
    sb, sc = simp_b.group, simp_c.group
    gb, gc = sb.generator_count, sc.generator_count
    sol = solve_congruences({"X": (gb, gc)}, [
        ([(None, "X", sc.relations)], IntMatrix.zeros(gb, sc.relations.cols), sb),
        ([(g_s.matrix, "X", None)], IntMatrix.identity(gc), sc),
    ])
    if sol is None:
        return None
    s_simple = Homomorphism(sc, sb, sol["X"])
    s = (simp_b.from_simple @ s_simple) @ simp_c.to_simple
    return Section(seq, s)


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
    lifts = [[y for y in elements(b) if seq.g(y) == x] for x in gens]
    rel = c.relations
    for images in product(*lifts):
        if (not any(image(images, rel.col(j)) for j in range(rel.cols))
                and all(seq.B.sigma(y) == image(images, seq.C.sigma(x).coords)
                        for x, y in zip(gens, images))):
            return list(images)
    return None


def verify_section_on_all(seq: ShortExactSequence, s) -> bool:
    return all(seq.g(s.s(c)) == c for c in elements(seq.C))


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


def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: multiplicity} of n >= 1, by trial division."""
    if n < 1:
        raise InputError(f"cannot factor non-positive integer {n}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def factored_rank_m(g: FgAbGroup, m: int) -> int:
    """rank_m by prime powers: the least, over the parts p^t of m, count of
    invariant factors with p-adic valuation at least t."""
    facts = g.invariant_factors
    return min(sum(1 for d in facts if vp(d, p) >= t) for p, t in factorint(m).items())


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


def reference_solve_modular_columns(mat: IntMatrix, rhss: Sequence[Sequence[int]], m: int
                                    ) -> list[Optional[tuple[int, ...]]]:
    """Solve mat @ x = rhs over Z/m (any m >= 1), or None, for each rhs.

    The library's solver before its loops were rewritten, kept as written
    (one closure call per reduced entry, a full pivot scan, a dense
    back-substitution); the library must return exactly what it returns.

    Diagonalizes by row/column operations with every entry kept reduced to
    the symmetric range, so entries never exceed m in size. The right-hand
    sides ride along as extra columns that take every row operation and
    no column operation; pivots are chosen among the columns of mat only,
    so each answer is the one a single-column solve gives. Deterministic:
    pivot is the smallest nonzero absolute value, leftmost-topmost ties.
    """
    if any(len(rhs) != mat.rows for rhs in rhss):
        raise InputError("right-hand side length does not match row count")
    if m < 1:
        raise InputError("modulus must be positive")
    r, c = mat.rows, mat.cols
    if m == 1:
        return [(0,) * c for _ in rhss]
    half = m // 2

    def red(x: int) -> int:
        x %= m
        return x - m if x > half else x

    rhss = [int_tuple(rhs) for rhs in rhss]
    a = [[red(x) for x in (*mat.row(i), *(rhs[i] for rhs in rhss))] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]

    t = 0
    mdim = min(r, c)
    while t < mdim:
        best = None
        bi = bj = -1
        for i in range(t, r):
            for j in range(t, c):
                x = a[i][j]
                if x:
                    key = (abs(x), j, i)
                    if best is None or key < best:
                        best, bi, bj = key, i, j
        if best is None:
            break
        a[bi], a[t] = a[t], a[bi]
        if bj != t:
            for i in range(r):
                a[i][bj], a[i][t] = a[i][t], a[i][bj]
            v[bj], v[t] = v[t], v[bj]
        while True:
            recheck = False
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    ai, at = a[i], a[t]
                    for j in range(len(ai)):
                        ai[j] = red(ai[j] - q * at[j])
                    if ai[t]:
                        a[i], a[t] = a[t], a[i]
                        recheck = True
            if recheck:
                continue
            for j in range(t + 1, c):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(r):
                        a[i][j] = red(a[i][j] - q * a[i][t])
                    vj, vt = v[j], v[t]
                    for i in range(c):
                        vj[i] = red(vj[i] - q * vt[i])
                    if a[t][j]:
                        for i in range(r):
                            a[i][j], a[i][t] = a[i][t], a[i][j]
                        v[j], v[t] = v[t], v[j]
                        recheck = True
            if not recheck:
                break
        t += 1

    def back(col: int) -> Optional[tuple[int, ...]]:
        w = [0] * c
        for i in range(r):
            rhs_i = a[i][col] % m
            d = a[i][i] % m if i < mdim else 0
            if d:
                g = math.gcd(d, m)
                if rhs_i % g:
                    return None
                mg = m // g
                if mg > 1:
                    w[i] = ((rhs_i // g) * pow((d // g) % mg, -1, mg)) % mg
            elif rhs_i:
                return None
        return tuple(sum(v[j][i] * w[j] for j in range(c)) % m for i in range(c))

    return [back(col) for col in range(c, c + len(rhss))]


# The library's Hermite pass, column pass and Smith form before each row
# started to carry its transform and untracked passes started to reduce
# once per several rows, kept as written: every tracked result (SNF
# transforms, kernel bases, solutions) depends on the step schedule, and
# the library must return exactly what these return.


def _reference_combine(i, k, x, y, z, w, direct, inv_t) -> None:
    """E = [[x, y], [z, w]] (determinant 1) on rows i and k."""
    for rows in direct:
        ri, rk = rows[i], rows[k]
        rows[i] = [x * s + y * t for s, t in zip(ri, rk)]
        rows[k] = [z * s + w * t for s, t in zip(ri, rk)]
    for rows in inv_t:
        ri, rk = rows[i], rows[k]
        rows[i] = [w * s - z * t for s, t in zip(ri, rk)]
        rows[k] = [x * t - y * s for s, t in zip(ri, rk)]


def _reference_sub(i, k, m, direct, inv_t) -> None:
    """E: row_i -= m * row_k."""
    for rows in direct:
        rows[i] = [s - m * t for s, t in zip(rows[i], rows[k])]
    for rows in inv_t:
        rows[k] = [s + m * t for s, t in zip(rows[k], rows[i])]


def reference_hermite_pass(a: list[list[int]], tr=(), tr_inv_t=()) -> list[int]:
    """Row Hermite form of ``a`` in place, reduced after every added row;
    each row step goes to every matrix in ``tr`` and its inverse transpose
    to every matrix in ``tr_inv_t``. Returns the pivot columns."""
    ncols = len(a[0]) if a else 0
    direct = (a, *tr)
    every = (a, *tr, *tr_inv_t)
    piv: list[int] = []
    for i in range(len(a)):
        t = low = len(piv)
        s = lead = 0
        while True:
            row = a[i]
            while lead < ncols and not row[lead]:
                lead += 1
            if lead == ncols:
                break
            while s < t and piv[s] < lead:
                s += 1
            if s == t or piv[s] != lead:
                flip = row[lead] < 0
                for rows in every:
                    rows.insert(s, rows.pop(i))
                    if flip:
                        rows[s] = [-x for x in rows[s]]
                piv.insert(s, lead)
                t += 1
                low = min(low, s)
                break
            p, q = a[s][lead], row[lead]
            m, rem = divmod(q, p)
            if rem:
                g, x, y = _ext_gcd(p, q)
                _reference_combine(s, i, x, y, -q // g, p // g, direct, tr_inv_t)
                low = min(low, s)
            else:
                _reference_sub(i, s, m, direct, tr_inv_t)
        changed = [(s, piv[s], a[s][piv[s]]) for s in range(low, t)]
        for k in range(t - 2, -1, -1):
            for s, j, p in changed[max(k + 1 - low, 0):]:
                m = a[k][j] // p
                if m:
                    _reference_sub(k, s, m, direct, tr_inv_t)
    return piv


def reference_column_pass(mat: IntMatrix, track: bool):
    """The reference pass on the columns of mat: (columns, pivot rows, T)."""
    cols = [list(mat.col(j)) for j in range(mat.cols)]
    t = _identity_rows(mat.cols) if track else []
    return cols, reference_hermite_pass(cols, (t,) if track else ()), t


def reference_smith_normal_form(mat: IntMatrix) -> SmithDecomposition:
    """Smith form by alternating reference passes and the gcd/lcm step."""
    r, c = mat.rows, mat.cols
    diag = _diagonal_of(mat)
    if diag is not None and _is_smith_chain(diag):
        u, v = IntMatrix.identity(r), IntMatrix.identity(c)
        return SmithDecomposition(U=u, S=mat, V=v, U_inv=u, V_inv=v)
    a = [list(mat.row(i)) for i in range(r)]
    u, u_inv_t = _identity_rows(r), _identity_rows(r)
    v_t, v_inv = _identity_rows(c), _identity_rows(c)
    while True:
        reference_hermite_pass(a, (u,), (u_inv_t,))
        if _is_diagonal(a):
            break
        a = [list(col) for col in zip(*a)]
        reference_hermite_pass(a, (v_t,), (v_inv,))
        a = [list(col) for col in zip(*a)]
        if _is_diagonal(a):
            break
    rank = sum(1 for i in range(min(r, c)) if a[i][i])
    for i in range(rank):
        for j in range(i + 1, rank):
            di, dj = a[i][i], a[j][j]
            if dj % di == 0:
                continue
            g, x, y = _ext_gcd(di, dj)
            a[i][i], a[j][j] = g, di // g * dj
            _reference_combine(i, j, x, y, -dj // g, di // g, (u,), (u_inv_t,))
            _reference_combine(i, j, 1, 1, -y * dj // g, x * di // g, (v_t,), (v_inv,))
    return SmithDecomposition(
        U=IntMatrix(r, r, tuple(x for row in u for x in row)),
        S=IntMatrix(r, c, tuple(x for row in a for x in row)),
        V=IntMatrix(c, c, tuple(x for col in zip(*v_t) for x in col)),
        U_inv=IntMatrix(r, r, tuple(x for col in zip(*u_inv_t) for x in col)),
        V_inv=IntMatrix(c, c, tuple(x for row in v_inv for x in row)),
    )

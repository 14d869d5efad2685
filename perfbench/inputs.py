"""Seeded benchmark inputs as plain integers and JSON text.

Nothing here imports kummer: every input is made from ``random.Random``
and integer arithmetic, so the library under test only ever receives the
finished inputs. A matrix is a ``(rows, cols, data)`` triple with
row-major ``data``. Each generator draws from the stream it is given, so
the same seed always yields the same inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Plain integer matrices
# ---------------------------------------------------------------------------


def entries(rng, k, bound=9):
    """k integers drawn uniformly from [-bound, bound]."""
    return [x - bound for x in rng.choices(range(2 * bound + 1), k=k)]


def random_matrix(rng, r, c, bound=9):
    return (r, c, tuple(entries(rng, r * c, bound)))


def identity(n):
    return (n, n, tuple(int(i == j) for i in range(n) for j in range(n)))


def diagonal(values, r, c):
    data = [0] * (r * c)
    for i, d in enumerate(values):
        data[i * c + i] = d
    return (r, c, tuple(data))


def matmul(a, b):
    ar, ac, ad = a
    br, bc, bd = b
    if ac != br:
        raise ValueError(f"cannot multiply {ar}x{ac} by {br}x{bc}")
    out = [0] * (ar * bc)
    for i in range(ar):
        for t in range(ac):
            x = ad[i * ac + t]
            if x:
                base, row = i * bc, t * bc
                for j in range(bc):
                    out[base + j] += x * bd[row + j]
    return (ar, bc, tuple(out))


def matvec(a, v):
    r, c, d = a
    return tuple(sum(d[i * c + j] * v[j] for j in range(c)) for i in range(r))


def column(a, j):
    r, c, d = a
    return tuple(d[i * c + j] for i in range(r))


def determinant(a):
    """Exact determinant by fraction-free elimination (small matrices)."""
    n, _, d = a
    m = [list(d[i * n:(i + 1) * n]) for i in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def unimodular(rng, n, steps=None):
    """A random unimodular U (small entries) and its exact inverse."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if steps is None else steps):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        # U <- (I + q e_ij) U ; U^-1 <- U^-1 (I - q e_ij)
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for row in v:
            row[j] -= q * row[i]
    flat = lambda m: (n, n, tuple(x for row in m for x in row))  # noqa: E731
    return flat(u), flat(v)


def planted_diagonal_system(rng, n, modulus, feasible):
    """M = U D V with U, V unimodular, and b = U e.

    Over Z the system M x = b is solvable iff every d_i divides e_i; modulo
    m iff gcd(d_i, m) divides e_i. Feasibility is therefore known by
    construction and the generator plants it either way.
    """
    choices = (1, 2, 3, 4, 6) if modulus is None else (1, 2, 3, 4, 5, 6, 8, 9, 12)
    ds = [rng.choice(choices) for _ in range(n)]
    gate = (lambda d: d) if modulus is None else (lambda d: math.gcd(d, modulus))
    if all(gate(d) == 1 for d in ds):
        ds[rng.randrange(n)] = 2 if modulus is None else math.gcd(modulus, 6)
    es = [d * y for d, y in zip(ds, entries(rng, n))]
    if not feasible:
        i = rng.choice([i for i, d in enumerate(ds) if gate(d) > 1])
        es[i] += 1
    u, _ = unimodular(rng, n)
    v, _ = unimodular(rng, n)
    m = matmul(matmul(u, diagonal(ds, n, n)), v)
    return m, matvec(u, es)


# ---------------------------------------------------------------------------
# Finite abelian groups and short exact sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceSpec:
    """0 -> A -f-> B -g-> C -> 0 in mixed presentations.

    ``pure`` is known by construction: the sequence is a direct sum of
    split pieces, plus (when impure) a non-split Z/p^i -> Z/p^(i+j) ->
    Z/p^j. ``b_inv`` and ``c_inv`` undo the presentation mixing, so
    membership in the relation lattice of B or C is a divisibility test by
    ``b_orders`` or ``c_orders``.
    """

    a_rel: tuple
    b_rel: tuple
    c_rel: tuple
    f: tuple
    g: tuple
    pure: bool
    b_inv: tuple
    b_orders: tuple
    c_inv: tuple
    c_orders: tuple


def _mixed_relations(rng, orders):
    n = len(orders)
    u, u_inv = unimodular(rng, n)
    w, _ = unimodular(rng, n)
    return matmul(matmul(u, diagonal(orders, n, n)), w), u, u_inv


def random_sequence(rng, pure):
    a_ord, b_ord, c_ord = [], [], []
    f_ent, g_ent = {}, {}
    count = rng.randint(1, 3)
    kinds = ["split"] * count
    if not pure:
        kinds[rng.randrange(count)] = "nonsplit"
    for kind in kinds:
        if kind == "split":
            a, c = rng.choice((1, 2, 3, 4, 5, 8, 9)), rng.choice((2, 3, 4, 5, 8, 9))
            if a > 1:
                f_ent[(len(b_ord), len(a_ord))] = 1
                a_ord.append(a)
                b_ord.append(a)
            g_ent[(len(c_ord), len(b_ord))] = 1
            b_ord.append(c)
            c_ord.append(c)
        else:
            p, i, j = rng.choice((2, 3)), rng.randint(1, 2), rng.randint(1, 2)
            f_ent[(len(b_ord), len(a_ord))] = p ** j
            g_ent[(len(c_ord), len(b_ord))] = 1
            a_ord.append(p ** i)
            b_ord.append(p ** (i + j))
            c_ord.append(p ** j)
    na, nb, nc = len(a_ord), len(b_ord), len(c_ord)
    f = (nb, na, tuple(f_ent.get((i, j), 0) for i in range(nb) for j in range(na)))
    g = (nc, nb, tuple(g_ent.get((i, j), 0) for i in range(nc) for j in range(nb)))
    a_rel, _, ua_inv = _mixed_relations(rng, a_ord)
    b_rel, ub, ub_inv = _mixed_relations(rng, b_ord)
    c_rel, uc, uc_inv = _mixed_relations(rng, c_ord)
    return SequenceSpec(
        a_rel=a_rel, b_rel=b_rel, c_rel=c_rel,
        f=matmul(matmul(ub, f), ua_inv), g=matmul(matmul(uc, g), ub_inv),
        pure=pure, b_inv=ub_inv, b_orders=tuple(b_ord),
        c_inv=uc_inv, c_orders=tuple(c_ord))


def in_lattice(inv, orders, vec):
    """vec lies in colspan(U diag(orders) W) when U^-1 vec is divisible."""
    return all(x % d == 0 for x, d in zip(matvec(inv, vec), orders))


def random_chain_group(rng, max_free=1):
    """Generators, relations, invariant factors and free rank of a group in
    a mixed presentation whose torsion orders form a divisibility chain."""
    chain = [rng.choice((2, 3))]
    for _ in range(rng.randint(0, 2)):
        chain.append(chain[-1] * rng.choice((1, 2, 3)))
    free = rng.randint(0, max_free)
    gens = len(chain) + free
    u, _ = unimodular(rng, gens)
    w, _ = unimodular(rng, len(chain))
    rel = matmul(matmul(u, diagonal(chain, gens, len(chain))), w)
    return gens, rel, tuple(chain), free


def random_sigma_matrix(rng, p, max_rank=3):
    """Rank r <= max_rank and an r x r matrix with det prime to p."""
    r = rng.randint(1, max_rank)
    while True:
        m = random_matrix(rng, r, r, bound=4)
        if determinant(m) % p:
            return r, m


# ---------------------------------------------------------------------------
# JSON wire documents (kummer's README format)
# ---------------------------------------------------------------------------


def enc_matrix(m):
    r, c, d = m
    return {"rows": r, "cols": c, "data": [str(x) for x in d]}


def enc_group(gens, rel):
    return {"generators": gens, "relations": enc_matrix(rel)}


def enc_hom(src, tgt, m):
    return {"source": src, "target": tgt, "matrix": enc_matrix(m)}


def dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def seq_doc(spec):
    a = enc_group(spec.a_rel[0], spec.a_rel)
    b = enc_group(spec.b_rel[0], spec.b_rel)
    c = enc_group(spec.c_rel[0], spec.c_rel)
    return {"f": enc_hom(a, b, spec.f), "g": enc_hom(b, c, spec.g)}


def tower_doc(rng, levels):
    """A valid upward tower: fixed parts Z/p^min(e,k) and s free parts
    Z/p^k, B mixed by one unimodular change, every level map times p.
    Returns the document, p, and the top level's g as a matrix."""
    p = rng.choice((2, 3))
    es = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
    s = rng.randint(1, 2)
    nf, nb = len(es), len(es) + s
    u, u_inv = unimodular(rng, nb)
    f = matmul(u, diagonal([1] * nf, nb, nf))
    g = matmul((s, nb, tuple(int(j == nf + i) for i in range(s) for j in range(nb))),
               u_inv)
    seqs, groups = [], []
    for k in range(1, levels + 1):
        a_ord = [p ** min(e, k) for e in es]
        b_ord = a_ord + [p ** k] * s
        a = enc_group(nf, diagonal(a_ord, nf, nf))
        b = enc_group(nb, matmul(u, diagonal(b_ord, nb, nb)))
        c = enc_group(s, diagonal([p ** k] * s, s, s))
        groups.append((a, b, c))
        seqs.append({"f": enc_hom(a, b, f), "g": enc_hom(b, c, g)})
    maps = []
    for k in range(levels - 1):
        lo, hi = groups[k], groups[k + 1]
        maps.append({name: enc_hom(lo[i], hi[i], diagonal([p] * n, n, n))
                     for i, (name, n) in enumerate((("alpha", nf), ("beta", nb),
                                                    ("gamma", s)))})
    doc = {"p": p, "n": levels, "direction": "up", "levels": seqs, "maps": maps}
    return doc, p, g


def _shift(d):
    return (d, d, tuple(int(i == (j + 1) % d) for i in range(d) for j in range(d)))


def _module(d, gens, rel, sigma):
    return {"d": d, "group": enc_group(gens, rel), "sigma": enc_matrix(sigma)}


def gmodule_doc(rng):
    """(Z/m)[C_d] with sigma the shift: induced, so cohomologically trivial."""
    d, m = rng.randint(2, 5), rng.randint(2, 6)
    return _module(d, d, diagonal([m] * d, d, d), _shift(d))


def gmodule_split_doc(p):
    """0 -> F_p[C_p] -> F_p[C_p] + F_p -> F_p -> 0: equivariantly split."""
    a = _module(p, p, diagonal([p] * p, p, p), _shift(p))
    sig_b = (p + 1, p + 1, tuple(
        int(i == (j + 1) % p) if i < p and j < p else int(i == j == p)
        for i in range(p + 1) for j in range(p + 1)))
    b = _module(p, p + 1, diagonal([p] * (p + 1), p + 1, p + 1), sig_b)
    c = _module(p, 1, diagonal([p], 1, 1), identity(1))
    f = diagonal([1] * p, p + 1, p)
    g = (1, p + 1, tuple(int(j == p) for j in range(p + 1)))
    return {"p": p, "A": a, "B": b, "C": c, "f": enc_matrix(f), "g": enc_matrix(g)}


def gmodule_augmentation_doc(p):
    """0 -> J -> F_p[C_p] -> F_p -> 0: splits plainly, never equivariantly."""
    k = p - 1
    # J has basis b_j = e_j - e_(j+1); sigma b_j = b_(j+1), sigma b_(k-1) = -sum b_i
    sig_a = (k, k, tuple((-1 if j == k - 1 else int(i == j + 1))
                         for i in range(k) for j in range(k)))
    a = _module(p, k, diagonal([p] * k, k, k), sig_a)
    b = _module(p, p, diagonal([p] * p, p, p), _shift(p))
    c = _module(p, 1, diagonal([p], 1, 1), identity(1))
    f = (p, k, tuple(int(i == j) - int(i == j + 1) for i in range(p) for j in range(k)))
    g = (1, p, (1,) * p)
    return {"p": p, "A": a, "B": b, "C": c, "f": enc_matrix(f), "g": enc_matrix(g)}


def big_integer(rng, digits):
    """A positive integer with exactly ``digits`` decimal digits, as text."""
    return str(rng.randint(1, 9)) + "".join(map(str, rng.choices(range(10), k=digits - 1)))

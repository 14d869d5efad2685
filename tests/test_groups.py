import gc
import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kummer import groups
from kummer.errors import InputError, NotExactError
from kummer.groups import (
    INFINITE,
    FgAbGroup,
    GroupElement,
    Homomorphism,
    _lattice_subgroup,
    cokernel,
    cokernel_witness,
    common_exponent,
    direct_sum,
    hom_from_images,
    image,
    invert_isomorphism,
    is_injective,
    is_isomorphism,
    is_surjective,
    kernel,
    kernel_witness,
    solve_congruences,
    subgroup_generated,
)
from kummer.matrices import (
    IntMatrix,
    MatrixEquationSystem,
    _smith_form,
    _tracked_elimination,
    block_diag,
    hermite_column_form,
    hstack,
    preimage_lattice,
    solve_integer_columns,
    solve_modular_columns,
)

from kummer.sequences import check_exact

import oracles
from builders import random_finite_group
from oracles import elements, snf_solve

orders_lists = st.lists(st.sampled_from([2, 3, 4, 5, 8, 9, 12]),
                        min_size=1, max_size=3)


@given(orders_lists)
def test_order_is_product_of_invariant_factors(orders):
    g = FgAbGroup.of_orders(*orders)
    expected = math.prod(orders)
    assert g.order == expected
    assert math.prod(g.invariant_factors) == expected
    for a, b in zip(g.invariant_factors, g.invariant_factors[1:]):
        assert b % a == 0


def test_infinite_and_trivial():
    assert FgAbGroup.free(2).order == INFINITE
    assert FgAbGroup.free(2).free_rank == 2
    assert FgAbGroup.trivial().is_trivial
    assert FgAbGroup.trivial().order == 1
    assert FgAbGroup.cyclic(1).is_trivial


@given(orders_lists, st.data())
def test_element_order_divides_exponent(orders, data):
    g = FgAbGroup.of_orders(*orders)
    coords = tuple(data.draw(st.integers(-10, 10))
                   for _ in range(g.generator_count))
    x = g.element(coords)
    n = x.order()
    assert int(g.exponent) % int(n) == 0
    assert not int(n) * x


def test_element_arithmetic_and_canonicalization():
    g = FgAbGroup.of_orders(4, 6)
    x = g.element((5, 7))
    assert x.coords == (1, 1)
    y = x + x
    assert y.coords == (2, 2)
    assert (x - x) == g.zero
    assert (-x + x) == g.zero
    assert x.order() == 12


def test_equal_groups_share_one_smith_and_hermite_form(empty_memo):
    def build():  # a fresh copy of the group, down to the relation matrix
        return FgAbGroup(2, IntMatrix.from_rows([[4, 2], [6, 8]]))

    a, b = build(), build()
    assert a.relations is not b.relations
    assert a.snf is b.snf and a.hermite is b.hermite
    dec, form = a.snf, a.hermite
    z2, z4 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
    assert z2.snf is not z4.snf and z2.hermite is not z4.hermite
    f0, f1 = FgAbGroup.free(0), FgAbGroup.free(1)
    assert f0.snf is not f1.snf and f0.hermite is not f1.hermite
    assert f0.snf.U.shape == (0, 0) and f1.snf.U.shape == (1, 1)
    del a, b
    gc.collect()
    c = build()  # both holders are gone, the memo still has their forms
    assert c.snf is dec and c.hermite is form


def test_equal_maps_share_one_elimination_also_after_both_are_collected(empty_memo):
    def build():  # a fresh copy of every object, down to the matrices
        src = FgAbGroup(2, IntMatrix.from_rows([[7919, 0], [0, 0]]))
        tgt = FgAbGroup(2, IntMatrix.from_rows([[3, 1], [0, 7919]]))
        return Homomorphism(src, tgt, IntMatrix.from_rows([[3, 5], [0, 1]]))

    one, two = build(), build()
    assert one.matrix is not two.matrix
    assert one._elimination is two._elimination
    assert one.kernel_form is two.kernel_form and one.image_form is two.image_form
    other = Homomorphism(one.source, one.target, IntMatrix.from_rows([[3, 5], [0, 2]]))
    assert other._elimination is not one._elimination
    elim = one._elimination
    del one, two, other
    gc.collect()
    assert build()._elimination is elim


def _memo_weight_is_consistent():
    weights = [weight for weight, _ in groups._MEMO.values()]
    assert groups._memo_weight == sum(weights) <= groups._MEMO_BUDGET
    return True


def test_the_memo_evicts_the_least_recently_used_entry_first(empty_memo):
    third = groups._MEMO_BUDGET // 3  # a 1 x (third - 1) key weighs third
    keys = [IntMatrix(1, third - 1, (i,) * (third - 1)) for i in range(4)]
    made = []

    def make(i):
        return lambda: made.append(i) or f"value {i}"

    for i in range(3):
        assert groups._memo("test", keys[i], make(i)) == f"value {i}"
    assert groups._memo_weight == 3 * third == groups._MEMO_BUDGET
    assert groups._memo("test", keys[0], make(0)) == "value 0"  # a hit
    assert made == [0, 1, 2]
    assert list(groups._MEMO) == [("test", keys[1]), ("test", keys[2]), ("test", keys[0])]
    assert groups._memo("test", keys[3], make(3)) == "value 3"
    assert list(groups._MEMO) == [("test", keys[2]), ("test", keys[0]), ("test", keys[3])]
    assert _memo_weight_is_consistent()
    assert groups._memo("test", keys[1], make(1)) == "value 1"  # evicted: made again
    assert made == [0, 1, 2, 3, 1] and ("test", keys[2]) not in groups._MEMO


def test_the_memo_stores_no_key_heavier_than_its_budget(empty_memo):
    small = IntMatrix.from_rows([[2]])
    groups._memo("test", small, lambda: "small")
    heavy = IntMatrix.zeros(1, groups._MEMO_BUDGET)  # weighs budget + 1
    made = []
    for _ in range(2):
        assert groups._memo("test", heavy, lambda: made.append(1) or "heavy") == "heavy"
    assert made == [1, 1]
    assert list(groups._MEMO) == [("test", small)] and groups._memo_weight == 2


def test_a_make_that_raises_stores_nothing(empty_memo):
    def fail():
        raise InputError("no result")

    key = IntMatrix.from_rows([[3]])
    for _ in range(2):
        with pytest.raises(InputError, match="^no result$"):
            groups._memo("test", key, fail)
    assert groups._MEMO == {} and groups._memo_weight == 0
    with pytest.raises(InputError):  # the same through a memoized site
        solve_congruences({"X": (1, 1)}, [([(IntMatrix.zeros(2, 1), "X", None)],
                                           IntMatrix.zeros(1, 1), FgAbGroup.cyclic(2))])
    assert groups._MEMO == {} and groups._memo_weight == 0


def test_the_memo_weight_never_exceeds_its_budget(empty_memo, monkeypatch):
    """Real sites under a small budget: every answer matches a fresh one
    while entries are evicted, and the key weight stays within the budget."""
    monkeypatch.setattr(groups, "_MEMO_BUDGET", 300)
    rng = random.Random(4242)
    pool = [_random_group(rng) for _ in range(12)]
    for _ in range(200):
        g = pool[rng.randrange(len(pool))]
        _check_memoized_sites(g, pool[rng.randrange(len(pool))], rng)
        assert _memo_weight_is_consistent()
    assert groups._memo_weight > 200


def _diagonal_group(rng: random.Random) -> FgAbGroup:
    """A diagonal presentation: zero, negative and unit entries, and more or
    fewer relation columns than generators."""
    g, k = rng.randint(0, 4), rng.randint(0, 5)
    diag = [rng.choice([0, 1, -1, 2, -2, 3, 4, -6, 8, 12]) for _ in range(min(g, k))]
    return FgAbGroup(g, IntMatrix.diagonal(diag, rows=g, cols=k))


def _some_matrix(rng: random.Random, rows: int, cols: int) -> IntMatrix:
    bound = rng.choice([1, 3, 25])
    return IntMatrix(rows, cols, tuple(rng.choice([0, rng.randint(-bound, bound)])
                                       for _ in range(rows * cols)))


diagonal_groups = st.tuples(st.integers(0, 4), st.integers(0, 5)).flatmap(
    lambda gk: st.lists(st.sampled_from([0, 1, -1, 2, -2, 3, 4, -6, 8, 12]),
                        min_size=min(gk), max_size=min(gk)).map(
        lambda diag: FgAbGroup(gk[0], IntMatrix.diagonal(diag, rows=gk[0], cols=gk[1]))))


def _assert_divisibility_is_the_hermite_test(src, tgt, mat):
    j = tgt.hermite.outside(mat @ src.relations)
    if j is None:
        Homomorphism(src, tgt, mat)
    else:
        with pytest.raises(InputError) as err:
            Homomorphism(src, tgt, mat)
        assert str(err.value) == (f"not a homomorphism: relator {j} maps to a "
                                  "nonzero element of the target")
    return j is not None


@settings(max_examples=150)
@given(diagonal_groups, diagonal_groups, st.data())
def test_diagonal_maps_are_checked_by_divisibility(src, tgt, data):
    """Between diagonal presentations, well-definedness is decided without
    the product matrix: the same verdict, first failing relator and message
    as the Hermite test of matrix @ source.relations."""
    mat = _draw_matrix(data, tgt.generator_count, src.generator_count)
    _assert_divisibility_is_the_hermite_test(src, tgt, mat)


def test_diagonal_maps_are_checked_by_divisibility_on_seeded_cases():
    rng = random.Random(2028)
    refused = 0
    for _ in range(10000):
        src, tgt = _diagonal_group(rng), _diagonal_group(rng)
        assert src._moduli is not None and tgt._moduli is not None
        mat = _some_matrix(rng, tgt.generator_count, src.generator_count)
        refused += _assert_divisibility_is_the_hermite_test(src, tgt, mat)
    assert 1000 < refused < 9000


def test_a_presentation_off_the_diagonal_has_no_moduli():
    assert FgAbGroup(2, IntMatrix.from_rows([[2, 1], [0, 2]]))._moduli is None
    assert FgAbGroup(2, IntMatrix.from_rows([[0, 2], [0, 0]]))._moduli is None
    assert FgAbGroup(3, IntMatrix.diagonal([4, -2], rows=3, cols=2))._moduli == (4, -2, 0)
    assert FgAbGroup(1, IntMatrix.from_rows([[3, 0, 0]]))._moduli == (3,)
    assert FgAbGroup.free(2)._moduli == (0, 0) and FgAbGroup.trivial()._moduli == ()


def test_hom_well_definedness_guard():
    src = FgAbGroup.cyclic(2)
    tgt = FgAbGroup.cyclic(3)
    with pytest.raises(InputError):
        Homomorphism(src, tgt, IntMatrix.from_rows([[1]]))
    ok = Homomorphism(src, tgt, IntMatrix.from_rows([[0]]))
    assert ok(src.generator(0)) == tgt.zero


def test_composition_rejects_mismatch():
    a, b = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
    f = Homomorphism(a, b, IntMatrix.from_rows([[2]]))
    with pytest.raises(InputError):
        f @ f


def test_kernel_image_cokernel_lagrange(rng):
    done = 0
    while done < 20:
        g = random_finite_group(rng, 48)
        h_mat = IntMatrix(g.generator_count, g.generator_count,
                          tuple(rng.randint(-4, 4)
                                for _ in range(g.generator_count ** 2)))
        try:
            h = Homomorphism(g, g, h_mat)
        except InputError:
            continue
        done += 1
        ker, inc = kernel(h)
        img, _ = image(h)
        coker, proj = cokernel(h)
        assert ker.order * img.order == g.order
        assert img.order * coker.order == g.order
        for j in range(ker.generator_count):
            assert h(inc(ker.generator(j))) == g.zero


def test_subgroup_generated_inclusion_is_mono(rng):
    g = FgAbGroup.of_orders(4, 9)
    sub, inc = subgroup_generated(g, [g.element((2, 3))])
    assert sub.order == 6
    k, _ = kernel(inc)
    assert k.is_trivial


def test_direct_sum_round_trip():
    a, c = FgAbGroup.cyclic(4), FgAbGroup.of_orders(2, 3)
    ds = direct_sum(a, c)
    assert ds.group.order == 24
    for i, part in enumerate((a, c)):
        comp = ds.projections[i] @ ds.injections[i]
        assert comp.is_identity()
    cross = ds.projections[1] @ ds.injections[0]
    assert all(cross(a.element(x.coords)) == c.zero for x in elements(a))


def test_invert_isomorphism_round_trip(rng):
    g = FgAbGroup.of_orders(3, 9)
    # multiplication by 2 is invertible mod powers of 3
    h = Homomorphism(g, g, IntMatrix.identity(2).scaled(2))
    assert is_isomorphism(h)
    inv = invert_isomorphism(h)
    assert (inv @ h).is_identity()
    assert (h @ inv).is_identity()


def test_invert_isomorphism_inverts_a_mixed_automorphism():
    g = FgAbGroup.of_orders(0, 3)
    # (x, y) -> (x, x + 2y): an automorphism of Z + Z/3 that is not diagonal
    h = Homomorphism(g, g, IntMatrix.from_rows([[1, 0], [1, 2]]))
    inv = invert_isomorphism(h)
    assert (inv @ h).is_identity() and (h @ inv).is_identity()
    assert not Homomorphism(g, g, IntMatrix.from_rows([[1, 0], [1, 1]])).is_identity()


@pytest.mark.parametrize("source, target, scale", [
    (3, 9, 3),  # injective, not surjective
    (9, 3, 1),  # surjective, not injective
    (0, 0, 2),  # injective, not surjective, infinite
], ids=["z3-into-z9", "z9-onto-z3", "double-on-z"])
def test_invert_isomorphism_rejects_non_isomorphisms(source, target, scale):
    h = Homomorphism(FgAbGroup.cyclic(source), FgAbGroup.cyclic(target),
                     IntMatrix.from_rows([[scale]]))
    with pytest.raises(InputError, match="not invertible"):
        invert_isomorphism(h)


def test_hom_from_images_matches_call():
    src = FgAbGroup.of_orders(2, 4)
    tgt = FgAbGroup.cyclic(8)
    images = [tgt.element((4,)), tgt.element((2,))]
    h = hom_from_images(src, tgt, images)
    assert h(src.generator(0)) == images[0]
    assert h(src.generator(1)) == images[1]


def test_elements_enumeration_counts():
    g = FgAbGroup.of_orders(2, 3)
    xs = list(elements(g))
    assert len(xs) == 6
    assert len({x.coords for x in xs}) == 6
    with pytest.raises(Exception):
        list(elements(FgAbGroup.free(1)))


# Presentations with 1-3 generators and 0-4 random relators: full-rank ones
# are finite, the rest have free rank.
presented_groups = st.integers(1, 3).flatmap(
    lambda g: st.integers(0, 4).flatmap(
        lambda k: st.lists(st.integers(-6, 6), min_size=g * k, max_size=g * k).map(
            lambda data: FgAbGroup(g, IntMatrix(g, k, tuple(data))))))
finite_groups = orders_lists.map(lambda orders: FgAbGroup.of_orders(*orders))
any_groups = st.one_of(finite_groups, presented_groups)


@given(any_groups, st.data())
def test_group_solve_agrees_with_exact_solve(g, data):
    n = data.draw(st.integers(1, 3))
    entries = st.integers(-9, 9)
    mat = IntMatrix(g.generator_count, n, tuple(
        data.draw(entries) for _ in range(g.generator_count * n)))
    rhs = tuple(data.draw(entries) for _ in range(g.generator_count))
    x = g.solve(mat, rhs)
    exact = snf_solve(hstack(mat, g.relations), rhs)
    assert (x is None) == (exact is None)
    if x is not None:
        residual = [a - b for a, b in zip(mat.apply(x), rhs)]
        assert g.hermite.contains(residual)


def _draw_matrix(data, rows, cols):
    entries = st.integers(-5, 5)
    return IntMatrix(rows, cols, tuple(data.draw(entries) for _ in range(rows * cols)))


# finite groups take the modular path, presented ones with free rank the
# exact path, and the trivial groups the m = 1 shortcut
solve_groups = st.one_of(finite_groups, presented_groups,
                         st.integers(1, 3).map(lambda g: FgAbGroup.of_orders(*[1] * g)))


@settings(max_examples=150)
@given(solve_groups, st.data())
def test_solve_columns_is_solve_on_each_column(g, data):
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
    mat = _draw_matrix(data, g.generator_count, n)
    rhss = []
    for _ in range(k):
        kind = data.draw(st.sampled_from(["planted", "random", "outside"]))
        if kind == "planted":
            x = _draw_matrix(data, n, 1)
            y = _draw_matrix(data, g.relations.cols, 1)
            rhss.append((mat @ x + g.relations @ y).col(0))
        elif kind == "random":
            rhss.append(_draw_matrix(data, g.generator_count, 1).col(0))
        else:  # the first generator outside the span, when there is one
            j = g.span(mat).outside(IntMatrix.identity(g.generator_count))
            if j is not None:
                rhss.append(g.generator(j).coords)
                assert g.solve(mat, rhss[-1]) is None
    singles = [g.solve(mat, rhs) for rhs in rhss]
    batched = g.solve_columns(mat, rhss)
    assert (batched is None) == (None in singles)
    if batched is not None:
        assert batched == singles


@st.composite
def infinite_presentations(draw):
    """Z^r ⊕ Z/k_1 ⊕ ... with free rank r in 1-2 and up to two torsion
    orders, presented diagonally or through a unimodular change of basis
    (an elementary row step on the relations), with or without a redundant
    relator; with no torsion the relation matrix has no columns."""
    free = draw(st.integers(1, 2))
    torsion = draw(st.lists(st.integers(2, 12), max_size=2))
    g = FgAbGroup.of_orders(*torsion, *[0] * free)
    rel, n = g.relations, g.generator_count
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            step = [[int(r == c) + (draw(st.integers(-3, 3)) if (r, c) == (i, j) else 0)
                     for c in range(n)] for r in range(n)]
            rel = IntMatrix.from_rows(step) @ rel
    if rel.cols and draw(st.booleans()):
        rel = hstack(rel, rel.select(range(n), [0]).scaled(draw(st.integers(-2, 2))))
    return FgAbGroup(n, rel)


@settings(max_examples=150)
@given(infinite_presentations(), st.data())
def test_an_infinite_group_solves_through_the_shared_elimination(g, data):
    """An infinite group's solve back-substitutes through the elimination of
    [mat | relations] and returns what the exact solve of that matrix gives,
    cut to mat's columns, and None where some column has no solution. mat
    may have no columns; it always has rows, since a group with free rank
    has a generator."""
    assert not g.is_finite
    n, k = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 4))
    mat = _draw_matrix(data, g.generator_count, n)
    rhss = []
    for _ in range(k):
        if data.draw(st.booleans()):  # planted: solvable
            x = _draw_matrix(data, n, 1)
            y = _draw_matrix(data, g.relations.cols, 1)
            rhss.append((mat @ x + g.relations @ y).col(0))
        else:  # random, or the first generator outside the span if any
            rhs = _draw_matrix(data, g.generator_count, 1).col(0)
            j = g.span(mat).outside(IntMatrix.identity(g.generator_count))
            rhss.append(rhs if j is None or data.draw(st.booleans()) else g.generator(j).coords)
    full = solve_integer_columns(hstack(mat, g.relations), rhss)
    assert g.solve_columns(mat, rhss) == (None if None in full else
                                          [x[:mat.cols] for x in full])


@settings(max_examples=100)
@given(any_groups, any_groups, st.booleans(), st.data())
def test_solve_congruences_matches_exact_slack_solve(g1, g2, planted, data):
    # X is 2xk and Y is 1xk; equation 1 lives in g1, equation 2 in g2:
    #   L1 @ X + M1 @ Y = rhs1 mod g1,   L2 @ X @ R2 = rhs2 mod g2
    k, k2 = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    n1, n2 = g1.generator_count, g2.generator_count
    l1, m1 = _draw_matrix(data, n1, 2), _draw_matrix(data, n1, 1)
    l2, r2 = _draw_matrix(data, n2, 2), _draw_matrix(data, k, k2)
    x0, y0 = _draw_matrix(data, 2, k), _draw_matrix(data, 1, k)
    rhs1 = l1 @ x0 + m1 @ y0 + g1.relations @ _draw_matrix(data, g1.relations.cols, k)
    rhs2 = l2 @ x0 @ r2 + g2.relations @ _draw_matrix(data, g2.relations.cols, k2)
    if not planted:  # usually infeasible, sometimes not: both sides must agree
        rhs1 = rhs1 + _draw_matrix(data, n1, k)
        rhs2 = rhs2 + _draw_matrix(data, n2, k2)
    terms1 = [(l1, "X", None), (m1, "Y", None)]
    terms2 = [(l2, "X", r2)]
    sol = solve_congruences({"X": (2, k), "Y": (1, k)},
                            [(terms1, rhs1, g1), (terms2, rhs2, g2)])

    exact = MatrixEquationSystem()
    exact.add_unknown("X", 2, k)
    exact.add_unknown("Y", 1, k)
    exact.add_unknown("S1", g1.relations.cols, k)
    exact.add_unknown("S2", g2.relations.cols, k2)
    exact.add_equation(terms1 + [(g1.relations, "S1", None)], rhs1)
    exact.add_equation(terms2 + [(g2.relations, "S2", None)], rhs2)
    assert (sol is None) == (exact.solve(mod=None) is None)
    if planted:
        assert sol is not None
    if sol is None:
        return
    assert set(sol) == {"X", "Y"}
    x, y = sol["X"], sol["Y"]
    for residual, g in ((l1 @ x + m1 @ y - rhs1, g1), (l2 @ x @ r2 - rhs2, g2)):
        assert all(g.hermite.contains(residual.col(j)) for j in range(residual.cols))


@given(st.lists(any_groups, min_size=1, max_size=3))
def test_common_exponent_kills_every_group(groups):
    m = common_exponent(*groups)
    if not all(g.is_finite for g in groups):
        assert m is None
        return
    assert m == math.lcm(*(int(g.exponent) for g in groups))
    for g in groups:
        assert all(not m * x for x in g.generators())


def _random_hom(coeff, src: FgAbGroup, tgt: FgAbGroup) -> Homomorphism:
    """A random well-defined map: an integer combination, each coefficient
    from coeff(), of a basis of the lattice of matrices M with
    M @ src.relations inside tgt's lattice."""
    gs, gt, rel = src.generator_count, tgt.generator_count, src.relations
    # row (j, a) of the constraint picks (M @ rel)[a, j] out of M's entries
    rows = [[rel[b, j] if a == a2 else 0 for a2 in range(gt) for b in range(gs)]
            for j in range(rel.cols) for a in range(gt)]
    cons = IntMatrix.from_rows(rows, cols=gt * gs)
    maps = preimage_lattice(cons, block_diag(*[tgt.relations] * rel.cols)).matrix
    coeffs = [coeff() for _ in range(maps.cols)]
    return Homomorphism(src, tgt, IntMatrix(gt, gs, maps.apply(coeffs)))


@given(any_groups, any_groups, st.data())
def test_kernel_and_cokernel_witnesses_match_the_groups(src, tgt, data):
    h = _random_hom(lambda: data.draw(st.integers(-3, 3)), src, tgt)
    k, inc = kernel(h)
    wit = kernel_witness(h)
    assert (wit is None) == k.is_trivial
    if wit is not None:
        assert wit == inc(next(x for x in k.generators() if x))
        assert not h(wit)
    c, proj = cokernel(h)
    wit = cokernel_witness(h)
    assert (wit is None) == c.is_trivial
    if wit is not None:
        assert wit == next(x for x in tgt.generators() if proj(x))
    assert is_injective(h) == k.is_trivial and is_surjective(h) == c.is_trivial


def _random_group(rng: random.Random) -> FgAbGroup:
    """A random finite group, with a free summand of rank 1 or 2 two times
    in three."""
    finite = random_finite_group(rng, 36)
    free = rng.randint(0, 2)
    return direct_sum(finite, FgAbGroup.free(free)).group if free else finite


def _map_pairs(rng: random.Random):
    """Pairs (f, g) around B/<P> and B/<P, Q> for random P and Q: one exact,
    one with g∘f nonzero, one with the kernel of g past the image of f, and
    two with a random f or g."""
    b = _random_group(rng)

    def picks(k):
        return [b.element([rng.randrange(6) for _ in range(b.generator_count)])
                for _ in range(k)]

    small = picks(rng.randint(0, 2))
    big = small + picks(rng.randint(1, 2))
    inc_s, inc_b = subgroup_generated(b, small)[1], subgroup_generated(b, big)[1]
    proj_s, proj_b = cokernel(inc_s)[1], cokernel(inc_b)[1]
    return [(inc_s, proj_s), (inc_b, proj_s), (inc_s, proj_b),
            (_random_hom(lambda: rng.randint(-3, 3), _random_group(rng), b), proj_s),
            (inc_s, _random_hom(lambda: rng.randint(-3, 3), b, _random_group(rng)))]


def _copy(g: FgAbGroup) -> FgAbGroup:
    """An equal group built separately, with no cached forms."""
    rel = g.relations
    return FgAbGroup(g.generator_count, IntMatrix(rel.rows, rel.cols, tuple(rel.data)))


def _fresh(fn, *args):
    """fn(*args) with every memoized site computing its result anew."""
    with mock.patch.object(groups, "_memo", lambda kind, key, make: make()):
        return fn(*args)


def _check_memoized_sites(g: FgAbGroup, h: FgAbGroup, rng: random.Random) -> None:
    """Each memoized site, called twice on equal inputs built separately,
    returns what a fresh computation returns, also after the caller changed
    the list or dict it was given."""
    def matrix(rows, cols):
        return _some_matrix(rng, rows, cols)

    for grp in (g, _copy(g)):
        assert grp.snf == _smith_form(g.relations, columns=False)
        assert grp.hermite == hermite_column_form(g.relations)
    n = rng.randint(0, 3)
    mat = matrix(g.generator_count, n)
    image_form, kernel_gens, top = _tracked_elimination(mat, g.relations)
    for copy in (mat, IntMatrix(mat.rows, mat.cols, tuple(mat.data))):
        elim = groups._shared_elimination(copy, _copy(g).relations)
        assert (elim.image_form, elim.kernel_gens, elim.top) == (image_form, kernel_gens, top)
        assert elim.kernel_form == hermite_column_form(kernel_gens)

    rhss = [(mat @ matrix(n, 1) + g.relations @ matrix(g.relations.cols, 1)).col(0)
            if rng.random() < 0.7 else matrix(g.generator_count, 1).col(0)
            for _ in range(rng.randint(0, 3))]
    fresh = _fresh(_copy(g).solve_columns, mat, rhss)
    if g.is_finite:
        fresh_sols = solve_modular_columns(hstack(mat, g.relations), rhss, common_exponent(g))
        assert fresh == (None if None in fresh_sols else [x[:n] for x in fresh_sols])
    for grp in (g, _copy(g)):
        sols = grp.solve_columns(mat, [list(rhs) for rhs in rhss])
        assert sols == fresh
        if sols is not None:
            sols.append(None)
            sols[:1] = []

    a, k, k2 = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
    left, left2, right2 = matrix(g.generator_count, a), matrix(h.generator_count, a), matrix(k, k2)
    x0 = matrix(a, k)
    rhs = left @ x0 + g.relations @ matrix(g.relations.cols, k)
    rhs2 = left2 @ x0 @ right2
    if rng.random() < 0.3:
        rhs2 = rhs2 + matrix(h.generator_count, k2)

    def system(one, two):
        return ({"X": (a, k)},
                [([(left, "X", None)], rhs, one), ([(left2, "X", right2)], rhs2, two)])

    fresh = _fresh(solve_congruences, *system(_copy(g), _copy(h)))
    for one, two in ((g, h), (_copy(g), _copy(h))):
        sol = solve_congruences(*system(one, two))
        assert sol == fresh
        if sol is not None:
            sol["X"] = IntMatrix.zeros(1, 1)
            sol["Y"] = sol.pop("X")


def test_memoized_sites_match_fresh_computations_on_seeded_groups(empty_memo):
    rng = random.Random(1931)
    pool = [_random_group(rng) for _ in range(8)]
    for _ in range(150):
        g, h = rng.choice(pool), rng.choice(pool)
        _check_memoized_sites(g, h, rng)
        _check_memoized_sites(g, h, random.Random(rng.randrange(3)))  # repeated inputs
    assert _memo_weight_is_consistent()


@given(any_groups, any_groups, st.integers(0, 2**32))
def test_memoized_sites_match_fresh_computations(g, h, seed):
    for _ in range(2):
        _check_memoized_sites(g, h, random.Random(seed))


def test_witnesses_agree_with_separate_eliminations():
    """kernel_witness, cokernel_witness and check_exact read one elimination
    per map, and name the witnesses that a kernel pass reduced by its own
    Hermite pass and a separate image pass name (``oracles``), on 60 seeded
    groups B with free rank 0 to 2."""
    rng = random.Random(2111)
    seen = Counter()
    for _ in range(60):
        for f, g in _map_pairs(rng):
            for h in (f, g):
                assert kernel_witness(h) == oracles.kernel_witness(h)
                assert cokernel_witness(h) == oracles.cokernel_witness(h)
            try:
                check_exact(f, g)
                got = None
            except NotExactError as exc:
                got = (exc.condition, exc.witness)
            assert got == oracles.exactness_failure(f, g)
            seen[None if got is None else got[0]] += 1
    assert set(seen) == {None, "mono", "epi", "complex", "middle"}, seen


@given(st.integers(1, 4), st.integers(0, 4), st.booleans(), st.data())
def test_coordinates_and_outside_agree_with_contains(rows, cols, planted, data):
    form = hermite_column_form(_draw_matrix(data, rows, cols))
    basis = form.matrix
    vecs = _draw_matrix(data, rows, 3)
    if planted:
        vecs = basis @ _draw_matrix(data, basis.cols, 3)
    for j in range(vecs.cols):
        v = vecs.col(j)
        x = form.coordinates(v)
        assert (x is not None) == form.contains(v)
        if x is not None:
            assert basis.apply(x) == v
    scan = [j for j in range(vecs.cols) if not form.contains(vecs.col(j))]
    assert form.outside(vecs) == (scan[0] if scan else None)


@given(any_groups, any_groups, st.data())
def test_lattice_subgroup_relations_match_a_per_column_solve(src, tgt, data):
    h = _random_hom(lambda: data.draw(st.integers(-3, 3)), src, tgt)
    cols = _draw_matrix(data, tgt.generator_count, data.draw(st.integers(0, 2)))
    for ambient, form in ((src, preimage_lattice(h.matrix, tgt.relations)),
                          (tgt, tgt.span(h.matrix)),
                          (tgt, tgt.span(cols))):
        sub, inc = _lattice_subgroup(ambient, form)
        rel = ambient.relations
        oracle = [snf_solve(form.matrix, rel.col(j))
                  for j in range(rel.cols)]
        assert sub.relations == IntMatrix.from_columns(form.matrix.cols, oracle)
        assert inc.matrix == form.matrix


def test_invert_isomorphism_checks_the_other_composite():
    """A split surjection factors the identity of its target through
    itself, so only the check x∘h = 1 refuses it."""
    h = Homomorphism(FgAbGroup.of_orders(2, 2), FgAbGroup.cyclic(2),
                     IntMatrix.from_rows([[1, 0]]))
    with pytest.raises(InputError, match="^homomorphism is not invertible$") as err:
        invert_isomorphism(h)
    assert err.value.__cause__ is None

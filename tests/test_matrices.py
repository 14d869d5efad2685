import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from kummer.errors import InputError
from kummer.groups import FgAbGroup
from kummer.matrices import (
    IntMatrix,
    MatrixEquationSystem,
    _column_pass,
    _hermite_pass,
    _smith_form,
    _tracked_elimination,
    hermite_column_form,
    hstack,
    image_and_kernel,
    kernel_lattice,
    preimage_lattice,
    smith_normal_form,
    solve_integer_columns,
    solve_integer_system,
    solve_modular,
    solve_modular_columns,
)

from oracles import (
    brute_solve_mod,
    determinant,
    lattice_intersection,
    minors_gcd_diagonal,
    naive_det,
    reference_column_pass,
    reference_smith_normal_form,
    reference_solve_modular_columns,
    snf_solve,
)

small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(st.integers(-10, 10), min_size=r * c,
                           max_size=r * c).map(
            lambda data: IntMatrix(r, c, tuple(data)))))


@given(small_matrices)
def test_smith_recomposition_and_chain(mat):
    dec = smith_normal_form(mat)
    assert (dec.U @ mat) @ dec.V == dec.S
    assert dec.U @ dec.U_inv == IntMatrix.identity(mat.rows)
    assert dec.V @ dec.V_inv == IntMatrix.identity(mat.cols)
    diag = dec.diagonal
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert all(d >= 0 for d in diag)


def _entries(n):
    return st.lists(st.integers(-9, 9), min_size=n, max_size=n)


# square, wide and tall matrices up to 16x16, and products L @ R through an
# inner dimension k below both sides, which have rank at most k
real_size_matrices = st.tuples(st.integers(1, 16), st.integers(1, 16)).flatmap(
    lambda rc: st.one_of(
        _entries(rc[0] * rc[1]).map(lambda d: IntMatrix(rc[0], rc[1], tuple(d))),
        st.integers(1, min(rc)).flatmap(lambda k: st.tuples(
            _entries(rc[0] * k), _entries(k * rc[1])).map(
            lambda lr: IntMatrix(rc[0], k, tuple(lr[0]))
            @ IntMatrix(k, rc[1], tuple(lr[1]))))))


@given(real_size_matrices)
def test_smith_properties_up_to_16x16(mat):
    dec = smith_normal_form(mat)
    assert dec.U @ mat @ dec.V == dec.S
    assert dec.U @ dec.U_inv == IntMatrix.identity(mat.rows)
    assert dec.V @ dec.V_inv == IntMatrix.identity(mat.cols)
    assert determinant(dec.U) in (1, -1)
    assert determinant(dec.V) in (1, -1)
    diag = dec.diagonal
    assert dec.S == IntMatrix.diagonal(diag, mat.rows, mat.cols)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b % a == 0) if a else b == 0


@pytest.mark.parametrize("shape", [(12, 12), (12, 14)])
def test_smith_transforms_stay_small(shape):
    rng = random.Random(20261018)
    rows, cols = shape
    mat = IntMatrix(rows, cols, tuple(rng.randint(-9, 9) for _ in range(rows * cols)))
    dec = smith_normal_form(mat)
    assert dec.U @ mat @ dec.V == dec.S
    bits = max(abs(x).bit_length()
               for m in (dec.U, dec.V, dec.U_inv, dec.V_inv) for x in m.data)
    assert bits < 512


@given(small_matrices)
def test_smith_diagonal_matches_minors_gcd(mat):
    dec = smith_normal_form(mat)
    assert list(dec.diagonal) == minors_gcd_diagonal(mat)


@given(small_matrices)
def test_unimodular_transforms(mat):
    dec = smith_normal_form(mat)
    assert naive_det(dec.U) in (1, -1)
    assert naive_det(dec.V) in (1, -1)


@given(small_matrices)
def test_hermite_membership_and_idempotence(mat):
    hnf = hermite_column_form(mat)
    again = hermite_column_form(hnf.matrix)
    assert again.matrix == hnf.matrix
    for j in range(mat.cols):
        assert hnf.contains(mat.col(j))
    h = hnf.matrix
    assert [c for _, c in hnf.pivots] == list(range(h.cols))
    prows = [r for r, _ in hnf.pivots]
    assert all(a < b for a, b in zip(prows, prows[1:]))
    for j, r in enumerate(prows):
        assert h.col(j)[:r] == (0,) * r and h[r, j] > 0
        assert all(0 <= h[r, k] < h[r, j] for k in range(j))
        x = solve_integer_system(mat, h.col(j))
        assert x is not None and mat.apply(x) == h.col(j)


def test_hermite_detects_non_membership():
    lat = hermite_column_form(IntMatrix.from_rows([[2, 0], [0, 4]]))
    assert lat.contains((2, 4))
    assert not lat.contains((1, 0))
    assert not lat.contains((0, 2))


@given(small_matrices)
def test_kernel_lattice_annihilates(mat):
    ker = kernel_lattice(mat)
    for j in range(ker.cols):
        assert mat.apply(ker.col(j)) == (0,) * mat.rows
    assert ker.cols == mat.cols - smith_normal_form(mat).rank
    # saturated: Z^n / ker is torsion-free, so ker is the whole kernel
    assert all(d == 1 for d in smith_normal_form(ker).diagonal)


def test_preimage_lattice_is_congruence_kernel():
    mat = IntMatrix.from_rows([[1, 1]])
    rel = IntMatrix.from_rows([[4]])
    lat = preimage_lattice(mat, rel).matrix
    for j in range(lat.cols):
        assert mat.apply(lat.col(j))[0] % 4 == 0


def test_lattice_intersection_small():
    a = hermite_column_form(IntMatrix.from_rows([[2, 0], [0, 3]])).matrix
    b = hermite_column_form(IntMatrix.from_rows([[3, 0], [0, 2]])).matrix
    inter = hermite_column_form(lattice_intersection(a, b)).matrix
    expected = hermite_column_form(IntMatrix.from_rows([[6, 0], [0, 6]])).matrix
    assert inter == expected


@given(st.integers(2, 8), st.data())
def test_solve_modular_agrees_with_brute_force(m, data):
    rows = data.draw(st.integers(1, 3))
    cols = data.draw(st.integers(1, 3))
    mat = IntMatrix(rows, cols, tuple(
        data.draw(st.integers(-6, 6)) for _ in range(rows * cols)))
    rhs = tuple(data.draw(st.integers(-6, 6)) for _ in range(rows))
    got = solve_modular(mat, rhs, m)
    expected = brute_solve_mod(mat, rhs, m)
    assert (got is not None) == expected
    if got is not None:
        for i in range(rows):
            lhs = sum(mat[i, j] * got[j] for j in range(cols))
            assert lhs % m == rhs[i] % m


@st.composite
def modular_systems(draw):
    """(mat, rhss, m): a system with 0 to 5 rows and columns and entries of
    any size, or near zero so that pivots tie; each rhs is random, mat @ x
    (feasible), or mat @ x plus a unit in an inserted zero row (planted
    infeasible)."""
    m = draw(st.sampled_from([1, 2, 36, 360, 2 ** 61 - 1]))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = st.one_of(st.integers(-3, 3), st.integers(-2 * m, 2 * m))
    data = list(draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)))
    dead = draw(st.one_of(st.none(), st.integers(0, rows)))
    if dead is not None:
        data[dead * cols:dead * cols] = [0] * cols
        rows += 1
    mat = IntMatrix(rows, cols, tuple(data))
    rhss, kinds = [], []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["random", "feasible", "infeasible"]))
        if kind == "random":
            rhs = draw(st.lists(entries, min_size=rows, max_size=rows))
        else:
            rhs = list(mat.apply(draw(st.lists(entries, min_size=cols, max_size=cols))))
            if kind == "infeasible" and dead is not None:
                rhs[dead] += draw(st.integers(1, m - 1)) if m > 1 else 1
            elif kind == "infeasible":
                kind = "feasible"
        rhss.append(tuple(rhs))
        kinds.append(kind)
    return mat, rhss, m, kinds


@settings(max_examples=300)
@given(modular_systems())
def test_modular_solver_matches_the_reference(system):
    mat, rhss, m, kinds = system
    got = solve_modular_columns(mat, rhss, m)
    assert got == reference_solve_modular_columns(mat, rhss, m)
    for rhs, kind, x in zip(rhss, kinds, got):
        if kind != "random":
            assert (x is None) == (kind == "infeasible" and m > 1)
        if x is not None:
            assert all((y - b) % m == 0 for y, b in zip(mat.apply(x), rhs))


@st.composite
def diagonal_matrices(draw, chain):
    """A diagonal matrix of any shape up to 5x5 with nonnegative entries,
    or, with ``chain``, a Smith form: each entry divides the next."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    diag = draw(st.lists(st.integers(0, 40), min_size=min(rows, cols),
                         max_size=min(rows, cols)))
    if chain:
        prev, out = 1, []
        for d in diag:
            prev *= d % 4
            out.append(prev)
        diag = out
    return IntMatrix.diagonal(diag, rows=rows, cols=cols)


@given(diagonal_matrices(chain=True))
def test_smith_form_inputs_come_back_with_identity_transforms(mat):
    dec = smith_normal_form(mat)
    u, v = IntMatrix.identity(mat.rows), IntMatrix.identity(mat.cols)
    assert (dec.U, dec.S, dec.V, dec.U_inv, dec.V_inv) == (u, mat, v, u, v)


@given(diagonal_matrices(chain=False))
def test_hermite_form_of_a_diagonal_input_is_the_pass_result(mat):
    cols = [list(mat.col(j)) for j in range(mat.cols)]
    piv = _hermite_pass(cols, mat.rows)
    form = hermite_column_form(mat)
    assert form.matrix == IntMatrix.from_columns(mat.rows, cols[:len(piv)])
    assert form.pivots == tuple((row, j) for j, row in enumerate(piv))


def _seeded_shapes(rng):
    """(mat, relations, rhss) over square, n x (n+2), tall, rank-deficient
    and empty shapes with sizes 0 to 40 and entries up to 10^6 in size;
    relations has mat's row count, and half the rhss are mat @ x."""
    def entries(k, bound):
        return tuple(rng.randint(-bound, bound) for _ in range(k))

    sizes = [0, 1, 2, 3, 5, 7, 8, 9, 12, 16, 17, 24, 33, 40]
    for case in range(60):
        n, bound = rng.choice(sizes), rng.choice([9, 1000, 10 ** 6])
        kind = case % 5
        rows, cols = {0: (n, n), 1: (n, n + 2), 2: (n + 3, max(n // 3, 1)),
                      3: (n, n), 4: rng.choice([(0, n), (n, 0)])}[kind]
        if n > 24 and kind != 2:
            bound = min(bound, 1000)  # keeps the largest squares quick
        if kind == 3 and rows:
            inner = rng.randint(0, rows - 1)
            mat = IntMatrix(rows, inner, entries(rows * inner, bound)) @ IntMatrix(
                inner, cols, entries(inner * cols, bound))
        else:
            mat = IntMatrix(rows, cols, entries(rows * cols, bound))
        extra = rng.randint(0, 3)
        relations = IntMatrix(rows, extra, entries(rows * extra, bound))
        rhss = [mat.apply(entries(cols, bound)) if i % 2 else entries(rows, bound)
                for i in range(4)]
        yield mat, relations, rhss


def test_eliminations_equal_the_reference_step_for_step():
    """The row layout, the batched untracked reduction and the pivot-row
    column steps change no result: every transform, form, kernel basis and
    solution equals the reference pass's, bit for bit."""
    for mat, relations, rhss in _seeded_shapes(random.Random(24)):
        assert smith_normal_form(mat) == reference_smith_normal_form(mat), mat.shape
        cols, piv, _ = reference_column_pass(mat, track=False)
        form = hermite_column_form(mat)
        assert form.matrix == IntMatrix.from_columns(mat.rows, cols[:len(piv)])
        assert form.pivots == tuple((row, j) for j, row in enumerate(piv))
        _, piv, t = reference_column_pass(mat, track=True)
        assert kernel_lattice(mat) == IntMatrix.from_columns(mat.cols, t[len(piv):])
        ys = [form.coordinates(rhs) for rhs in rhss]
        assert solve_integer_columns(mat, rhss) == [
            None if y is None else tuple(sum(yi * ti[j] for yi, ti in zip(y, t))
                                         for j in range(mat.cols)) for y in ys]
        both = hstack(mat, relations)
        cols, piv, t = reference_column_pass(both, track=True)
        image, kernel = image_and_kernel(mat, relations)
        assert image.matrix == IntMatrix.from_columns(mat.rows, cols[:len(piv)])
        assert kernel == IntMatrix.from_columns(
            mat.cols, [row[:mat.cols] for row in t[len(piv):]])
        for m in (2, 360, 2 ** 61 - 1):
            assert solve_modular_columns(both, rhss, m) \
                == reference_solve_modular_columns(both, rhss, m)


@st.composite
def relation_matrices(draw):
    """0-6 rows, 0-7 columns: random entries (negative ones too), products of
    lower rank, and diagonal inputs with zero, negative and unit entries."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["random", "product", "diagonal"]))
    if kind == "diagonal":
        diag = draw(st.lists(st.sampled_from([0, 1, -1, 2, -3, 4, 6, 12, 36]),
                             min_size=min(rows, cols), max_size=min(rows, cols)))
        return IntMatrix.diagonal(diag, rows=rows, cols=cols)
    if kind == "product" and rows and cols:
        inner = draw(st.integers(0, min(rows, cols) - 1))
        left = draw(st.lists(st.integers(-6, 6), min_size=rows * inner, max_size=rows * inner))
        right = draw(st.lists(st.integers(-6, 6), min_size=inner * cols, max_size=inner * cols))
        return IntMatrix(rows, inner, tuple(left)) @ IntMatrix(inner, cols, tuple(right))
    return IntMatrix(rows, cols, tuple(draw(st.lists(
        st.integers(-30, 30), min_size=rows * cols, max_size=rows * cols))))


def _assert_group_smith_form_agrees(mat):
    full, rows = smith_normal_form(mat), _smith_form(mat, columns=False)
    assert (rows.U, rows.S, rows.U_inv) == (full.U, full.S, full.U_inv), mat
    assert rows.V is None and rows.V_inv is None
    assert FgAbGroup(mat.rows, mat).snf == rows


@settings(max_examples=300)
@given(relation_matrices())
def test_a_group_smith_form_is_the_smith_form_without_v(mat):
    """The untracked column passes of ``_smith_form`` leave U, S and U_inv
    those of ``smith_normal_form``: the Hermite form of a^T is unique."""
    _assert_group_smith_form_agrees(mat)


def test_a_group_smith_form_is_the_smith_form_without_v_on_seeded_shapes():
    rng = random.Random(28)
    for mat, _, _ in _seeded_shapes(random.Random(24)):
        _assert_group_smith_form_agrees(mat)
    for _ in range(2000):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        bound = rng.choice([1, 3, 40, 10 ** 6])
        _assert_group_smith_form_agrees(IntMatrix(rows, cols, tuple(
            rng.randint(-bound, bound) for _ in range(rows * cols))))


def _assert_trimmed_pass_is_the_full_pass_cut(mat, relations):
    both = hstack(mat, relations)
    form, t = _column_pass(both, track=mat.cols)
    full_form, full_t = _column_pass(both, track=both.cols)
    cut = [row[:mat.cols] for row in full_t]
    assert (form, t) == (full_form, cut)
    rank = len(form.pivots)
    assert _tracked_elimination(mat, relations) == (
        form, IntMatrix.from_columns(mat.cols, cut[rank:]), cut[:rank])


@settings(max_examples=200)
@given(relation_matrices(), st.integers(0, 4), st.data())
def test_a_trimmed_elimination_is_the_full_pass_cut_to_the_map_columns(mat, extra, data):
    """T carried only on mat's columns is the full transform cut to them, so
    image, kernel generators and lift rows are unchanged."""
    relations = IntMatrix(mat.rows, extra, tuple(data.draw(st.lists(
        st.integers(-12, 12), min_size=mat.rows * extra, max_size=mat.rows * extra))))
    _assert_trimmed_pass_is_the_full_pass_cut(mat, relations)


def test_a_trimmed_elimination_is_the_full_pass_cut_on_seeded_shapes():
    for mat, relations, _ in _seeded_shapes(random.Random(25)):
        _assert_trimmed_pass_is_the_full_pass_cut(mat, relations)


def test_diagonal_inputs_off_the_pass_through_still_eliminate():
    # a broken chain, a negative entry and a nonzero off the diagonal
    assert smith_normal_form(IntMatrix.diagonal([2, 3])).diagonal == (1, 6)
    assert smith_normal_form(IntMatrix.diagonal([-4])).diagonal == (4,)
    assert hermite_column_form(IntMatrix.diagonal([-4])).matrix == IntMatrix.diagonal([4])
    assert hermite_column_form(IntMatrix.from_rows([[2, 1], [0, 2]])).matrix \
        == IntMatrix.from_rows([[1, 0], [2, 4]])


@settings(max_examples=200)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda rkc: st.tuples(_entries(rkc[0] * rkc[1]), _entries(rkc[1] * rkc[2])).map(
        lambda ab: (IntMatrix(rkc[0], rkc[1], tuple(ab[0])),
                    IntMatrix(rkc[1], rkc[2], tuple(ab[1]))))))
def test_product_matches_the_entry_sum(pair):
    a, b = pair
    assert (a @ b).data == tuple(
        sum(a[i, t] * b[t, j] for t in range(a.cols))
        for i in range(a.rows) for j in range(b.cols))


@st.composite
def integer_systems(draw):
    """(mat, rhs) with mat up to 6x8 of any shape, of rank at most k as a
    product of r x k and k x c factors, and rhs in the column lattice of mat
    or, when perturbed, usually outside it."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    k = draw(st.integers(0, min(r, c)))
    entries = st.integers(-4, 4)
    left = IntMatrix(r, k, tuple(draw(entries) for _ in range(r * k)))
    right = IntMatrix(k, c, tuple(draw(entries) for _ in range(k * c)))
    mat = left @ right
    rhs = mat.apply(tuple(draw(entries) for _ in range(c)))
    if draw(st.booleans()):
        rhs = tuple(x + draw(st.integers(-2, 2)) for x in rhs)
    return mat, rhs


@given(integer_systems())
@example((IntMatrix.from_rows([[2, 0], [0, 2]]), (1, 0)))
def test_integer_solve_matches_the_snf_oracle(system):
    mat, rhs = system
    x = solve_integer_system(mat, rhs)
    assert (x is None) == (snf_solve(mat, rhs) is None)
    if x is not None:
        assert mat.apply(x) == rhs


def test_solve_integer_system_with_relations():
    mat, rel = IntMatrix.from_rows([[3]]), IntMatrix.from_rows([[4]])
    sol = solve_integer_system(hstack(mat, rel), (1,))
    assert sol is not None
    assert (3 * sol[0]) % 4 == 1


def test_equation_system_sylvester_coefficients():
    # X must satisfy 2X = I mod 5: X = 3
    sys = MatrixEquationSystem()
    sys.add_unknown("X", 1, 1)
    sys.add_equation([(IntMatrix.from_rows([[2]]), "X", None)],
                     IntMatrix.identity(1))
    sol = sys.solve(mod=5)
    assert sol is not None
    assert (2 * sol["X"][0, 0]) % 5 == 1


def test_equation_system_two_sided():
    # L X R = I over Z with L = [[2]], R = [[3]] has no integer solution
    sys = MatrixEquationSystem()
    sys.add_unknown("X", 1, 1)
    sys.add_equation([(IntMatrix.from_rows([[2]]), "X",
                       IntMatrix.from_rows([[3]]))],
                     IntMatrix.identity(1))
    assert sys.solve() is None


def test_matrix_shape_guards():
    with pytest.raises(InputError):
        IntMatrix(2, 2, (1, 2, 3))
    a = IntMatrix.identity(2)
    b = IntMatrix.from_rows([[1, 2, 3]])
    with pytest.raises(InputError):
        a @ IntMatrix.identity(3)
    assert (a @ hstack(IntMatrix.column((1, 0)), IntMatrix.column((0, 1)))
            == IntMatrix.identity(2))
    assert b.transpose().shape == (3, 1)


def test_equation_system_accepts_unknowns_after_equations():
    # X is 1x1, Y is 1x2 and added after the first equation
    sys = MatrixEquationSystem()
    sys.add_unknown("X", 1, 1)
    sys.add_equation([(IntMatrix.from_rows([[2]]), "X", None)],
                     IntMatrix.from_rows([[4]]))
    sys.add_unknown("Y", 1, 2)
    sys.add_equation([(None, "X", IntMatrix.from_rows([[1, 1]])), (None, "Y", None)],
                     IntMatrix.from_rows([[3, 5]]))
    sol = sys.solve()
    assert sol["X"] == IntMatrix.from_rows([[2]])
    assert sol["Y"] == IntMatrix.from_rows([[1, 3]])


def test_from_columns():
    assert IntMatrix.from_columns(2, [(1, 2), (3, 4)]) == IntMatrix.from_rows([[1, 3], [2, 4]])
    assert IntMatrix.from_columns(3, []).shape == (3, 0)
    with pytest.raises(InputError):
        IntMatrix.from_columns(2, [(1, 2), (3,)])


@pytest.mark.parametrize("build", [
    lambda: IntMatrix(1, 2, (1.5, 2.9)),
    lambda: IntMatrix(1, 1, ("3",)),
    lambda: IntMatrix.from_rows([[1, 2.0]]),
    lambda: IntMatrix.column([0.5]),
    lambda: IntMatrix.diagonal([2, 1e3]),
    lambda: FgAbGroup.cyclic(4).element([1.5]),
], ids=["init", "string", "from_rows", "column", "diagonal", "element"])
def test_non_integer_entries_are_rejected(build):
    with pytest.raises(InputError):
        build()


# 2.5 would truncate to 2, which lies in the lattice 2Z
@pytest.mark.parametrize("call", [
    lambda m: hermite_column_form(m).contains((2.5,)),
    lambda m: hermite_column_form(m).coordinates((2.5,)),
    lambda m: solve_integer_system(m, (2.5,)),
    lambda m: solve_modular(m, (2.5,), 5),
], ids=["contains", "coordinates", "exact-solve", "modular-solve"])
def test_non_integer_vectors_are_rejected(call):
    with pytest.raises(InputError):
        call(IntMatrix.from_rows([[2]]))


def test_int_subclasses_convert_to_plain_ints():
    m = IntMatrix.from_rows([[True, False, 7]])
    assert m.data == (1, 0, 7)
    assert all(type(x) is int for x in m.data)


def test_a_map_into_the_trivial_group_is_eliminated_in_closed_form():
    """A 0-row map's image is 0 and its kernel everything: the result equals
    what the tracked column pass of [mat | relations] returns."""
    from kummer import matrices

    for c in range(7):
        for k in range(4):
            mat, rel = IntMatrix.zeros(0, c), IntMatrix.zeros(0, k)
            form, t = matrices._column_pass(hstack(mat, rel), track=c + k)
            top, rank = [row[:c] for row in t], len(form.pivots)
            assert matrices._tracked_elimination(mat, rel) == (
                form, IntMatrix.from_columns(c, top[rank:]), top[:rank])
            assert image_and_kernel(mat, rel) == (form, IntMatrix.from_columns(c, top[rank:]))


def test_apply_equals_the_product_with_a_column():
    rng = random.Random(11)
    for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (4, 2), (2, 5), (6, 6)]:
        for _ in range(5):
            m = IntMatrix(rows, cols, tuple(rng.randint(-10 ** 6, 10 ** 6)
                                            for _ in range(rows * cols)))
            v = [rng.randint(-50, 50) for _ in range(cols)]
            assert m.apply(v) == (m @ IntMatrix.column(v)).data

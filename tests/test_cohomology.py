import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from kummer.cohomology import (
    ChrisReport,
    CyclicGroupModule,
    GModuleMap,
    GModuleSequence,
    chris_verify,
    equivariant_section_exists,
    les_multiplication_by_p,
    reduce_mod_p,
    regular_extension_fixture,
    regular_module,
    tate_cohomology,
    tate_model,
)
from kummer.arith import is_prime
from kummer.errors import InputError
from kummer.groups import FgAbGroup, Homomorphism, direct_sum, hom_from_images, kernel
from kummer.matrices import IntMatrix
from kummer.sequences import section_exists

from oracles import brute_equivariant_section, elements


def test_negation_action_on_z():
    z = FgAbGroup.free(1)
    neg = CyclicGroupModule(2, z, Homomorphism(z, z,
                                               IntMatrix.from_rows([[-1]])))
    tate = tate_cohomology(neg)
    assert tate.zero.group.is_trivial
    assert tate.minus_one.group.invariant_factors == (2,)
    assert not tate.trivial


def test_sigma_must_have_the_right_order():
    z = FgAbGroup.free(1)
    with pytest.raises(InputError, match="^sigma does not have order dividing 3$"):
        CyclicGroupModule(3, z, Homomorphism(z, z,
                                             IntMatrix.from_rows([[-1]])))


def test_regular_modules_are_cohomologically_trivial():
    for d in (1, 2, 3, 4, 6):
        assert tate_cohomology(regular_module(d)).trivial


def test_tate_model_matrix_and_cohomology():
    m2 = tate_model(2)
    assert m2.sigma.matrix == IntMatrix.from_rows([[-1, 0], [2, 1]])
    for p in (2, 3, 5):
        model = tate_model(p)
        assert model.d == p
        assert model.power(p).is_identity()
        assert not model.power(1).is_identity()
        tate = tate_cohomology(model)
        assert tate.minus_one.group.invariant_factors == (p,)
        assert tate.zero.group.invariant_factors == (p,)


def _random_module(rng):
    """Block-diagonal module with sigma of exact known order: permutation
    blocks of size d, trivial-action blocks, and for even d sign blocks."""
    from kummer.matrices import block_diag

    d = rng.choice([1, 2, 3, 4])
    orders: list[int] = []
    blocks: list[IntMatrix] = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(["perm", "triv"] + (["neg"] if d % 2 == 0 else []))
        m = rng.choice([2, 3, 4, 8, 9])
        if kind == "perm":
            orders.extend([m] * d)
            blocks.append(IntMatrix(d, d, tuple(
                1 if i == (j + 1) % d else 0
                for i in range(d) for j in range(d))))
        elif kind == "neg":
            orders.append(m)
            blocks.append(IntMatrix.from_rows([[-1]]))
        else:
            orders.append(m)
            blocks.append(IntMatrix.identity(1))
    grp = FgAbGroup.of_orders(*orders)
    sig = Homomorphism(grp, grp, block_diag(*blocks))
    return CyclicGroupModule(d, grp, sig)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_herbrand_quotient_is_one_on_finite_modules(seed):
    import random

    module = _random_module(random.Random(seed))
    tate = tate_cohomology(module)
    assert tate.minus_one.group.order == tate.zero.group.order


def test_subquotient_round_trip_and_membership_guard():
    model = tate_model(3)
    tate = tate_cohomology(model)
    sq = tate.minus_one
    classes = list(elements(sq.group))
    reps = sq.representatives(classes)
    assert sq.classes_of(reps) == classes
    assert all(model.norm(rep) == model.group.zero for rep in reps)
    outside = model.group.generator(0)
    if model.norm(outside) != model.group.zero:
        with pytest.raises(InputError):
            sq.classes_of([outside])
        with pytest.raises(InputError):
            sq.classes_of([*reps, outside])


def test_augmentation_fixture_splits_plainly_but_not_equivariantly():
    for p in (2, 3, 5):
        seq = regular_extension_fixture(p)
        assert section_exists(seq.sequence) is not None
        assert equivariant_section_exists(seq) is None


def test_trivial_action_direct_sum_splits_equivariantly():
    p = 3
    zp = FgAbGroup.cyclic(p)
    ds = direct_sum(zp, zp)
    ident = Homomorphism.identity(ds.group)
    mod_b = CyclicGroupModule(1, ds.group, ident)
    mod_a = CyclicGroupModule(1, zp, Homomorphism.identity(zp))
    seq = GModuleSequence(GModuleMap(mod_a, mod_b, ds.injections[0]),
                          GModuleMap(mod_b, mod_a, ds.projections[1]))
    s = equivariant_section_exists(seq)
    assert s is not None
    for c in elements(zp):
        assert seq.g(s(c)) == c


def test_equivariant_check_decides_modules_not_killed_by_a_prime():
    """0 -> Z/2 -> Z/4 -> Z/2 -> 0 with the trivial action does not split."""
    z4 = FgAbGroup.cyclic(4)
    mod = CyclicGroupModule(1, z4, Homomorphism.identity(z4))
    sub = CyclicGroupModule(1, FgAbGroup.cyclic(2),
                            Homomorphism.identity(FgAbGroup.cyclic(2)))
    seq = GModuleSequence(
        GModuleMap(sub, mod, Homomorphism(sub.group, z4,
                                          IntMatrix.from_rows([[2]]))),
        GModuleMap(mod, sub, Homomorphism(z4, sub.group,
                                          IntMatrix.from_rows([[1]]))))
    assert equivariant_section_exists(seq) is None
    assert brute_equivariant_section(seq) is None


def _perm(d: int) -> list[list[int]]:
    return [[int(i == (j + 1) % d) for j in range(d)] for i in range(d)]


def _with_kernel(b_mod: CyclicGroupModule, c_mod: CyclicGroupModule,
                 g_rows) -> GModuleSequence:
    """0 -> ker g -> B -> C -> 0 with the action restricted to ker g."""
    g = Homomorphism(b_mod.group, c_mod.group, IntMatrix.from_rows(g_rows))
    a_grp, inc = kernel(g)
    sols = b_mod.group.solve_columns(
        inc.matrix, [b_mod.sigma(inc(x)).coords for x in a_grp.generators()])
    sigma_a = hom_from_images(a_grp, a_grp, [a_grp.element(x) for x in sols])
    a_mod = CyclicGroupModule(b_mod.d, a_grp, sigma_a)
    return GModuleSequence(GModuleMap(a_mod, b_mod, inc),
                           GModuleMap(b_mod, c_mod, g))


def regular_plus_trivial_sequence(rng) -> GModuleSequence:
    """B = (Z/m)[C_d] (+ Z/k with the trivial action), C = Z/n with the
    trivial action, g equivariant and onto, A its kernel; B's exponent is
    never prime."""
    while True:
        d, m = rng.choice([2, 3, 4]), rng.choice([2, 3, 4, 6, 8, 9, 12])
        k = rng.choice([0, 0, 2, 3, 4, 6])
        exp = math.lcm(m, k or 1)
        if m ** d * (k or 1) > 5000 or is_prime(exp):
            continue
        n = rng.choice([x for x in range(2, exp + 1) if exp % x == 0])
        a = rng.randrange(0, n, n // math.gcd(n, m))
        b = rng.randrange(0, n, n // math.gcd(n, k)) if k else 0
        if math.gcd(a, b, n) == 1:
            break
    size = d + (1 if k else 0)
    b_grp = FgAbGroup.of_orders(*[m] * d, *[k] * (size - d))
    sigma = [row + [0] * (size - d) for row in _perm(d)]
    sigma += [[0] * d + [1]] * (size - d)
    b_mod = CyclicGroupModule(d, b_grp, Homomorphism(
        b_grp, b_grp, IntMatrix.from_rows(sigma)))
    c_grp = FgAbGroup.cyclic(n)
    c_mod = CyclicGroupModule(d, c_grp, Homomorphism.identity(c_grp))
    return _with_kernel(b_mod, c_mod, [[a] * d + [b] * (size - d)])


def induced_extension(rng, k: int) -> GModuleSequence:
    """0 -> X[C_d] -> B -> Z/n -> 0 with X = Z/k (X = Z when k = 0) and
    the trivial action on Z/n. B has generators e_0..e_(d-1), t with
    n t = n y + c N and sigma t = t + (sigma - 1) y, where N is the sum of
    the e_i; it splits plainly exactly when c N lies in n X[C_d]."""
    d, n = rng.choice([2, 3]), rng.choice([2, 3, 4, 6])
    y = [rng.randint(-3, 3) for _ in range(d)]
    c = rng.randint(-6, 6)
    perm, eye = _perm(d), [[int(i == j) for j in range(d)] for i in range(d)]
    x_rel = [[k * x for x in row] for row in eye] if k else [[] for _ in range(d)]
    a_grp = FgAbGroup.of_orders(*[k] * d) if k else FgAbGroup.free(d)
    b_grp = FgAbGroup(d + 1, IntMatrix.from_rows(
        [row + [-n * y[i] - c] for i, row in enumerate(x_rel)]
        + [[0] * len(x_rel[0]) + [n]]))
    b_sigma = [row + [y[i - 1] - y[i]] for i, row in enumerate(perm)] + [[0] * d + [1]]
    a_mod = CyclicGroupModule(d, a_grp, Homomorphism(a_grp, a_grp, IntMatrix.from_rows(perm)))
    b_mod = CyclicGroupModule(d, b_grp, Homomorphism(b_grp, b_grp,
                                                     IntMatrix.from_rows(b_sigma)))
    c_grp = FgAbGroup.cyclic(n)
    c_mod = CyclicGroupModule(d, c_grp, Homomorphism.identity(c_grp))
    f = Homomorphism(a_grp, b_grp, IntMatrix.from_rows(eye + [[0] * d]))
    g = Homomorphism(b_grp, c_grp, IntMatrix.from_rows([[0] * d + [1]]))
    return GModuleSequence(GModuleMap(a_mod, b_mod, f), GModuleMap(b_mod, c_mod, g))


def _assert_equivariant_section(seq: GModuleSequence, s) -> None:
    assert isinstance(s, GModuleMap)
    assert (s.source, s.target) == (seq.C, seq.B)
    assert (seq.g.hom @ s.hom).is_identity()
    assert (s.hom @ seq.C.sigma).same_map(seq.B.sigma @ s.hom)


def test_equivariant_sections_match_the_brute_force_oracle():
    import random

    found = []
    for seed in range(44):
        seq = regular_plus_trivial_sequence(random.Random(seed))
        s = equivariant_section_exists(seq)
        assert (s is None) == (brute_equivariant_section(seq) is None), seed
        if s is not None:
            _assert_equivariant_section(seq, s)
        found.append(s is not None)
    assert any(found) and not all(found)


def test_equivariant_splitting_of_infinite_modules():
    z = FgAbGroup.free(1)
    aug = _with_kernel(regular_module(2),
                       CyclicGroupModule(2, z, Homomorphism.identity(z)), [[1, 1]])
    assert equivariant_section_exists(aug) is None
    assert section_exists(aug.sequence) is not None
    z2 = FgAbGroup.free(2)
    proj = _with_kernel(CyclicGroupModule(3, z2, Homomorphism.identity(z2)),
                        CyclicGroupModule(3, z, Homomorphism.identity(z)), [[0, 1]])
    _assert_equivariant_section(proj, equivariant_section_exists(proj))


@pytest.mark.parametrize("k", [0, 2, 3, 4, 6])
def test_induced_kernel_splits_equivariantly_iff_plainly(k):
    """With A induced, Hom(C, A) has no cohomology (Brown, Cohomology of
    Groups, III.5), so the cocycle by which a plain section fails to
    commute with sigma is a coboundary, and correcting the section by it
    gives an equivariant one."""
    import random

    found = []
    for seed in range(12):
        seq = induced_extension(random.Random(seed), k)
        s = equivariant_section_exists(seq)
        assert (s is None) == (section_exists(seq.sequence) is None), seed
        if s is not None:
            _assert_equivariant_section(seq, s)
        if k:
            assert (s is None) == (brute_equivariant_section(seq) is None), seed
        found.append(s is not None)
    assert any(found) and not all(found)


def test_les_shapes_for_the_divided_norm_module():
    for p in (2, 3):
        les = les_multiplication_by_p(tate_model(p), p)
        assert les.left.group.invariant_factors == (p,)
        assert les.middle.group.invariant_factors == (p, p)
        assert les.right.group.invariant_factors == (p,)


def test_les_guards():
    with pytest.raises(InputError):
        les_multiplication_by_p(tate_model(3), 2)
    z4 = FgAbGroup.cyclic(4)
    torsion = CyclicGroupModule(2, z4, Homomorphism.identity(z4))
    with pytest.raises(InputError):
        les_multiplication_by_p(torsion, 2)


def test_norm_and_reduction_helpers():
    model = tate_model(3)
    n = model.norm
    assert n.same_map(model.norm)
    red = reduce_mod_p(model, 3)
    assert red.group.exponent == 3
    assert red.d == model.d


def test_chris_verify_odd_primes():
    for p in (3, 5, 7):
        start = time.monotonic()
        report = chris_verify(p)
        elapsed = time.monotonic() - start
        assert isinstance(report, ChrisReport)
        assert report.valid
        assert report.p_odd
        assert report.h1_invariants == (p,)
        assert report.h2_invariants == (p,)
        assert report.h1_mod_p_invariants == (p, p)
        assert report.les_exact
        assert not report.equivariant_section_found
        assert report.plain_section_found
        assert elapsed < 5.0


def test_chris_verify_two_is_flagged_but_checked():
    report = chris_verify(2)
    assert not report.p_odd
    assert report.valid
    assert any("odd" in line for line in report.inference)


def test_chris_verify_rejects_composites():
    with pytest.raises(InputError):
        chris_verify(4)


@pytest.mark.parametrize("d, order", [(3, 2), (4, 3), (13, 2), (12, 5)])
def test_sigma_of_the_wrong_order_is_refused_by_name(d, order):
    """sigma^d = 1 is checked on the matrix power found by squaring."""
    grp = FgAbGroup.free(order)
    shift = Homomorphism(grp, grp, regular_module(order).sigma.matrix)
    with pytest.raises(InputError, match=f"^sigma does not have order dividing {d}$"):
        CyclicGroupModule(d, grp, shift)
    assert CyclicGroupModule(d * order, grp, shift).d == d * order


def test_sigma_powers_equal_the_repeated_products():
    fixture = regular_extension_fixture(5)
    for module in (tate_model(5), tate_model(13), regular_module(13), regular_module(1),
                   fixture.A, fixture.B):
        mat = IntMatrix.identity(module.group.generator_count)
        for i in range(2 * module.d + 1):
            power = module.power(i)
            assert (power.source, power.target, power.matrix) == (module.group, module.group, mat)
            mat = module.sigma.matrix @ mat


def test_a_map_that_does_not_commute_with_the_action_is_refused():
    swap = regular_module(2)
    z = FgAbGroup.free(1)
    trivial = CyclicGroupModule(2, z, Homomorphism.identity(z))
    first = Homomorphism(swap.group, z, IntMatrix.from_rows([[1, 0]]))
    with pytest.raises(InputError, match="^map does not commute with the group action$"):
        GModuleMap(swap, trivial, first)
    assert GModuleMap(swap, trivial, Homomorphism(swap.group, z, IntMatrix.from_rows([[1, 1]])))

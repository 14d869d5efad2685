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
    is_cohomologically_trivial,
    les_multiplication_by_p,
    reduce_mod_p,
    regular_extension_fixture,
    regular_module,
    tate_cohomology,
    tate_model,
)
from kummer.errors import InputError, UnsupportedError
from kummer.groups import FgAbGroup, Homomorphism, direct_sum
from kummer.matrices import IntMatrix
from kummer.sequences import section_exists


def test_negation_action_on_z():
    z = FgAbGroup.free(1)
    neg = CyclicGroupModule(2, z, Homomorphism(z, z,
                                               IntMatrix.from_rows([[-1]])))
    tate = tate_cohomology(neg)
    assert tate.zero.group.is_trivial
    assert tate.minus_one.group.invariant_factors == (2,)
    assert tate.one is tate.minus_one
    assert tate.two is tate.zero
    assert not is_cohomologically_trivial(neg)


def test_sigma_must_have_the_right_order():
    z = FgAbGroup.free(1)
    with pytest.raises(InputError):
        CyclicGroupModule(3, z, Homomorphism(z, z,
                                             IntMatrix.from_rows([[-1]])))


def test_regular_modules_are_cohomologically_trivial():
    for d in (1, 2, 3, 4, 6):
        assert is_cohomologically_trivial(regular_module(d))


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
    classes = list(sq.group.elements())
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
        assert equivariant_section_exists(seq, p) is None


def test_trivial_action_direct_sum_splits_equivariantly():
    p = 3
    zp = FgAbGroup.cyclic(p)
    ds = direct_sum(zp, zp)
    ident = Homomorphism.identity(ds.group)
    mod_b = CyclicGroupModule(1, ds.group, ident)
    mod_a = CyclicGroupModule(1, zp, Homomorphism.identity(zp))
    seq = GModuleSequence(GModuleMap(mod_a, mod_b, ds.injections[0]),
                          GModuleMap(mod_b, mod_a, ds.projections[1]))
    s = equivariant_section_exists(seq, p)
    assert s is not None
    for c in zp.elements():
        assert seq.g(s(c)) == c


def test_equivariant_check_requires_p_bounded_modules():
    p = 2
    z4 = FgAbGroup.cyclic(4)
    mod = CyclicGroupModule(1, z4, Homomorphism.identity(z4))
    sub = CyclicGroupModule(1, FgAbGroup.cyclic(2),
                            Homomorphism.identity(FgAbGroup.cyclic(2)))
    seq = GModuleSequence(
        GModuleMap(sub, mod, Homomorphism(sub.group, z4,
                                          IntMatrix.from_rows([[2]]))),
        GModuleMap(mod, sub, Homomorphism(z4, sub.group,
                                          IntMatrix.from_rows([[1]]))))
    with pytest.raises(UnsupportedError):
        equivariant_section_exists(seq, p)


def test_les_shapes_for_the_divided_norm_module():
    for p in (2, 3):
        les = les_multiplication_by_p(tate_model(p), p)
        assert les.left.group.invariant_factors == (p,)
        assert les.middle.group.invariant_factors == (p, p)
        assert les.right.group.invariant_factors == (p,)
        assert les.sequence.certificate == ("mono", "epi", "complex",
                                            "middle")


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

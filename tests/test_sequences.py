import ast
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import kummer
from kummer import groups, matrices
from kummer.arith import MR_BOUND, is_prime
from kummer.errors import InputError, NotExactError, PurityError
from kummer.groups import (
    FgAbGroup,
    Homomorphism,
    cokernel,
    direct_sum,
    subgroup_generated,
)
from kummer.matrices import IntMatrix, preimage_lattice
from kummer.sequences import (
    Section,
    character_pairing,
    check_exact,
    double_dual_inverse,
    double_dual_iso,
    dualize_sequence,
    is_pure,
    pontryagin_dual,
    pure_witness,
    rank_m,
    retraction_from_section,
    section_exists,
    section_from_purity,
    section_from_retraction,
    split_sequence,
)

from builders import (P61, Q82, cyclic_sequence, random_finite_group, random_subgroup_sequence,
                      time_limit)
from oracles import (
    brute_same_order_lift,
    congruence_section,
    elements,
    factored_rank_m,
    lattice_purity_comparisons,
    lattice_same_order_lift,
    verify_section_on_all,
)


def impure_sequence():
    z2, z4 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
    f = Homomorphism(z2, z4, IntMatrix.from_rows([[2]]))
    g = Homomorphism(z4, z2, IntMatrix.from_rows([[1]]))
    return check_exact(f, g)


def klein_sequence():
    ds = direct_sum(FgAbGroup.cyclic(2), FgAbGroup.cyclic(2))
    return check_exact(ds.injections[0], ds.projections[1])


def test_check_exact_names_every_violated_condition():
    z2, z4 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
    z8 = FgAbGroup.cyclic(8)
    with pytest.raises(NotExactError) as err:
        check_exact(Homomorphism.zero(z2, z4),
                    Homomorphism(z4, z2, IntMatrix.from_rows([[1]])))
    assert err.value.condition == "mono"
    assert err.value.witness is not None
    with pytest.raises(NotExactError) as err:
        check_exact(Homomorphism(z2, z4, IntMatrix.from_rows([[2]])),
                    Homomorphism.zero(z4, z2))
    assert err.value.condition == "epi"
    with pytest.raises(NotExactError) as err:
        check_exact(Homomorphism(z2, z4, IntMatrix.from_rows([[2]])),
                    Homomorphism(z4, z4, IntMatrix.identity(1)))
    assert err.value.condition == "complex"
    with pytest.raises(NotExactError) as err:
        check_exact(Homomorphism(z2, z8, IntMatrix.from_rows([[4]])),
                    Homomorphism(z8, z2, IntMatrix.from_rows([[1]])))
    assert err.value.condition == "middle"
    assert err.value.witness is not None


def test_impure_sequence_decided_with_witness():
    seq = impure_sequence()
    cert = is_pure(seq)
    assert not cert
    assert cert.failure is not None
    assert cert.failure.order() == 2
    assert not brute_same_order_lift(seq, cert.failure)
    assert section_exists(seq) is None
    assert congruence_section(seq) is None
    with pytest.raises(PurityError) as err:
        pure_witness(seq, cert.failure)
    assert err.value.element == cert.failure


def test_klein_sequence_splits_three_ways():
    """The lift loop, the congruence oracle, and a retraction built from
    the loop's section each give a section that holds on every element."""
    seq = klein_sequence()
    assert is_pure(seq)
    s1 = section_exists(seq)
    s2 = congruence_section(seq)
    assert s1 is not None and s2 is not None
    assert verify_section_on_all(seq, s1)
    assert verify_section_on_all(seq, s2)
    r = retraction_from_section(seq, s1)
    s3 = section_from_retraction(seq, r)
    assert verify_section_on_all(seq, s3)


def test_sequence_keeps_the_kernel_lattice_of_g():
    for seq in (impure_sequence(), klein_sequence()):
        assert seq.g.kernel_form == preimage_lattice(seq.g.matrix, seq.C.relations)


def test_split_sequence_constructor():
    seq = split_sequence(FgAbGroup.cyclic(4), FgAbGroup.of_orders(2, 3))
    assert seq.B.order == 24
    assert section_exists(seq) is not None


@given(st.integers(0, 10_000))
def test_pure_iff_split_on_random_sequences(seed):
    import random

    seq = random_subgroup_sequence(random.Random(seed), 64)
    cert = is_pure(seq)
    section = section_exists(seq)
    assert bool(cert) == (section is not None)
    if section is not None:
        assert verify_section_on_all(seq, section)
    else:
        assert cert.failure is not None
        assert not brute_same_order_lift(seq, cert.failure)


def test_elementwise_purity_matches_brute_force(rng):
    seqs = [impure_sequence(), klein_sequence()]
    for _ in range(15):
        seqs.append(random_subgroup_sequence(rng, 48))
    for seq in seqs:
        for c in elements(seq.C):
            brute = brute_same_order_lift(seq, c)
            try:
                b = pure_witness(seq, c)
                found = True
                assert seq.g(b) == c
                assert b.order() == c.order()
            except PurityError:
                found = False
            assert found == brute


def test_pruefer_decompositions():
    g = FgAbGroup(2, IntMatrix.from_rows([[4, 2], [0, 6]]))
    dec = g.simplified
    assert dec.group == FgAbGroup.of_orders(2, 12)
    assert [dec.from_simple(e).order() for e in dec.group.generators()] == [2, 12]
    assert (dec.to_simple @ dec.from_simple).is_identity()
    assert (dec.from_simple @ dec.to_simple).is_identity()


def test_pontryagin_double_dual_identity():
    g = FgAbGroup(2, IntMatrix.from_rows([[4, 2], [0, 6]]))
    dd = pontryagin_dual(pontryagin_dual(g))
    iso = double_dual_iso(g)
    inv = double_dual_inverse(g)
    assert (inv @ iso).is_identity()
    assert (iso @ inv).is_identity()
    assert pontryagin_dual(g).invariant_factors == g.invariant_factors


def test_pairing_bilinear_and_nondegenerate(rng):
    g = FgAbGroup(2, IntMatrix.from_rows([[4, 2], [0, 6]]))
    dual = pontryagin_dual(g)
    for _ in range(25):
        chi = dual.element((rng.randrange(12), rng.randrange(12)))
        x = g.element((rng.randrange(12), rng.randrange(12)))
        y = g.element((rng.randrange(12), rng.randrange(12)))
        lhs = character_pairing(chi, x + y)
        rhs = (character_pairing(chi, x) + character_pairing(chi, y)) % 1
        assert lhs == rhs
    for x in elements(g):
        if not x:
            continue
        assert any(character_pairing(chi, x) != Fraction(0)
                   for chi in elements(dual))


def test_dual_is_contravariant_on_maps():
    g = FgAbGroup.cyclic(4)
    h = FgAbGroup.cyclic(8)
    f = Homomorphism(g, h, IntMatrix.from_rows([[2]]))
    fd = pontryagin_dual(f)
    assert fd.source == pontryagin_dual(h)
    assert fd.target == pontryagin_dual(g)
    for chi in elements(pontryagin_dual(h)):
        for x in elements(g):
            assert character_pairing(fd(chi), x) == character_pairing(
                chi, f(x))


def test_dualize_sequence_swaps_ends():
    seq = impure_sequence()
    dual = dualize_sequence(seq)
    assert dual.A.invariant_factors == seq.C.invariant_factors
    assert dual.C.invariant_factors == seq.A.invariant_factors
    assert not is_pure(dual)


def test_rank_identities():
    assert rank_m(FgAbGroup.of_orders(2, 3), 6) == 1
    assert rank_m(FgAbGroup.cyclic(2), 6) == 0
    assert rank_m(FgAbGroup.cyclic(3), 6) == 0
    assert rank_m(FgAbGroup.of_orders(4, 2, 8), 4) == 2
    assert rank_m(FgAbGroup.of_orders(12, 18), 6) == 2
    with pytest.raises(InputError):
        rank_m(FgAbGroup.cyclic(2), 1)
    assert rank_m(FgAbGroup.free(1), 2) == 0


def test_rank_additivity_on_split_prime_power(rng):
    for _ in range(40):
        a = FgAbGroup.of_orders(*[rng.choice([2, 3, 4, 8, 9])
                                  for _ in range(rng.randint(1, 2))])
        c = FgAbGroup.of_orders(*[rng.choice([2, 3, 4, 8, 9])
                                  for _ in range(rng.randint(1, 2))])
        seq = split_sequence(a, c)
        p = rng.choice([2, 3])
        t = rng.randint(1, 3)
        m = p ** t
        assert rank_m(seq.B, m) == rank_m(a, m) + rank_m(c, m)


@pytest.mark.parametrize("p", [P61, Q82], ids=["p61", "q82"])
def test_rank_m_at_a_huge_prime_factors_nothing(p):
    with time_limit(10):
        assert rank_m(FgAbGroup.cyclic(p), p) == 1
        assert rank_m(FgAbGroup.of_orders(p, p * p, 6), p) == 2
        assert rank_m(FgAbGroup.cyclic(p), 2 * p) == 0


@given(st.lists(st.integers(0, 72), max_size=4), st.integers(2, 144))
def test_rank_m_counts_the_invariant_factors_m_divides(orders, m):
    g = FgAbGroup.of_orders(*orders)
    assert rank_m(g, m) == factored_rank_m(g, m)


def test_purity_for_infinite_middle():
    z = FgAbGroup.free(1)
    z2 = FgAbGroup.cyclic(2)
    f = Homomorphism(z, z, IntMatrix.from_rows([[2]]))
    g = Homomorphism(z, z2, IntMatrix.from_rows([[1]]))
    seq = check_exact(f, g)
    cert = is_pure(seq)
    assert not cert
    assert cert.failure == z2.generator(0)


def multiples_sequence(rng: random.Random, b: FgAbGroup):
    """0 -> A -> B -> B/A -> 0 for A generated by up to two random multiples
    k·x (k <= 4), so that many of these sequences are impure."""
    picks = []
    for _ in range(rng.randint(0, 2)):
        k = rng.randint(1, 4)
        picks.append(b.element(tuple(k * rng.randint(-6, 6)
                                     for _ in range(b.generator_count))))
    _, inc = subgroup_generated(b, picks)
    _, proj = cokernel(inc)
    return check_exact(inc, proj)


@settings(max_examples=200)
@given(st.integers(0, 10_000), st.booleans())
def test_purity_comparisons_match_the_lattice_oracle(seed, finite):
    """is_pure's verdict is nA = A ∩ nB, compared by Hermite forms, for
    every divisor n of e = lcm(d_B, d_C), which is exp(B) for finite B; the
    middle group is a mixed finite presentation or Z^r ⊕ Z/k_1 ⊕ ... . The
    divisors suffice: if a = nb lies in A ∩ nB but not in nA and g(b) has
    order m, then m divides n and d_C, and mb lies in A ∩ mB but not in mA.
    An impure verdict's witness has no lift of its order."""
    rng = random.Random(seed)
    if finite:
        seq = multiples_sequence(rng, random_finite_group(rng, 64))
    else:
        orders = [0] * rng.randint(1, 2) + [rng.randint(1, 12)
                                            for _ in range(rng.randint(0, 2))]
        seq = multiples_sequence(rng, FgAbGroup.of_orders(*orders))
    e = math.lcm(*seq.B.invariant_factors, *seq.C.invariant_factors)
    if finite:
        assert e == seq.B.exponent
    ns = [n for n in range(1, e + 1) if e % n == 0]
    cert = is_pure(seq)
    assert cert.pure == all(ok for _, ok in lattice_purity_comparisons(seq, ns))
    assert (cert.failure is None) == cert.pure
    if not cert.pure:
        lifts = brute_same_order_lift if seq.B.is_finite else lattice_same_order_lift
        assert not lifts(seq, cert.failure)


@st.composite
def fg_sequence_params(draw):
    """(free rank 0-2, torsion orders, generators of A): B = Z/k_1 ⊕ ... ⊕ Z^r
    and A generated by up to two multiples k·x (k <= 4) of random x."""
    free = draw(st.integers(0, 2))
    torsion = draw(st.lists(st.integers(2, 12), max_size=2))
    size = len(torsion) + free
    picks = draw(st.lists(st.tuples(st.integers(1, 4),
                                     st.lists(st.integers(-6, 6), min_size=size,
                                              max_size=size)),
                          max_size=2))
    return free, torsion, [[k * x for x in vec] for k, vec in picks]


@settings(max_examples=100)
@given(fg_sequence_params())
@example((1, [], [[2]]))  # 0 -> Z -×2-> Z -> Z/2 -> 0 does not split
@example((1, [2], [[1, 0]]))  # 0 -> Z -> Z ⊕ Z/2 -> Z/2 -> 0 splits
def test_one_lift_loop_decides_every_finitely_generated_sequence(params):
    """Pure ⇔ split for finitely generated sequences, infinite groups
    included: the lift loop splits exactly where the congruence oracle
    does, the default test set agrees with every n up to 2e + 1, the loop
    splits exactly the pure ones, and an impure one's witness has no
    same-order lift."""
    free, torsion, picks = params
    b = FgAbGroup.of_orders(*torsion, *[0] * free)
    _, inc = subgroup_generated(b, [b.element(v) for v in picks])
    _, proj = cokernel(inc)
    seq = check_exact(inc, proj)
    cert = is_pure(seq)
    split = section_exists(seq) is not None
    assert split == (congruence_section(seq) is not None)
    assert cert.pure == split
    e = math.lcm(*seq.B.invariant_factors, *seq.C.invariant_factors)
    every_n = lattice_purity_comparisons(seq, range(1, 2 * e + 2))
    assert all(ok for _, ok in every_n) == cert.pure
    if cert.pure:
        assert cert.failure is None
        assert section_from_purity(seq).seq is seq
    else:
        with pytest.raises(PurityError):
            section_from_purity(seq)
        with pytest.raises(PurityError) as err:
            pure_witness(seq, cert.failure)
        assert err.value.element == cert.failure


def test_no_assert_statements_in_the_library():
    """Checks that guard returned results raise, so ``python -O`` keeps
    them."""
    src = Path(kummer.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_section_constructor_verifies():
    seq = impure_sequence()
    with pytest.raises(InputError):
        Section(seq, Homomorphism(seq.C, seq.B, IntMatrix.from_rows([[1]])))


def _unbuilt_sequence(seed: int, pure: bool) -> list[IntMatrix]:
    """The relations of A, B, C and the matrices of f, g of the first seeded
    subgroup sequence with A and C nontrivial that is (or is not) pure, as
    plain matrices, so that no object built from them keeps a result."""
    rng = random.Random(seed)
    while True:
        seq = random_subgroup_sequence(rng, 64)
        if not (seq.A.is_trivial or seq.C.is_trivial) and bool(is_pure(seq)) == pure:
            return [seq.A.relations, seq.B.relations, seq.C.relations, seq.f.matrix, seq.g.matrix]


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "impure"])
def test_each_matrix_is_eliminated_once_and_each_sequence_lifts_once(pure, empty_memo):
    """check_exact, is_pure, section_exists and section_from_purity, each
    called twice, run the column pass at most once on any matrix and solve
    for the preimages of C's generators through g once."""
    a_rel, b_rel, c_rel, f_mat, g_mat = _unbuilt_sequence(21, pure)
    empty_memo()  # forget the eliminations that picked the sequence
    passes = mock.patch.object(matrices, "_column_pass", wraps=matrices._column_pass)
    solves = mock.patch.object(FgAbGroup, "solve_columns", autospec=True,
                               side_effect=FgAbGroup.solve_columns)
    with passes as column_pass, solves as solve_columns:
        a, b, c = (FgAbGroup(rel.rows, rel) for rel in (a_rel, b_rel, c_rel))
        f, g = Homomorphism(a, b, f_mat), Homomorphism(b, c, g_mat)
        seq = check_exact(f, g)
        check_exact(f, g)
        for _ in range(2):
            assert bool(is_pure(seq)) == pure
            assert (section_exists(seq) is not None) == pure
            try:
                section_from_purity(seq)
            except PurityError:
                assert not pure
    eliminated = Counter(call.args[0] for call in column_pass.call_args_list)
    assert eliminated and max(eliminated.values()) == 1, eliminated
    assert sum(call.args[1] == g_mat for call in solve_columns.call_args_list) == 1


def test_an_infinite_quotient_lifts_through_the_pass_that_checked_g(empty_memo):
    """0 -> Z/2 -> Z/2 + Z -> Z -> 0: with C infinite, the lift loop reads
    the preimages of C's generators from the tracked pass of [g | R_C]
    that the exactness check ran, and does not eliminate it again."""
    a, c = FgAbGroup.cyclic(2), FgAbGroup.free(1)
    b = FgAbGroup(2, IntMatrix.from_rows([[2], [0]]))
    f, g_rc = IntMatrix.from_rows([[1], [0]]), IntMatrix.from_rows([[0, 1]])
    with mock.patch.object(matrices, "_column_pass", wraps=matrices._column_pass) as column_pass:
        seq = check_exact(Homomorphism(a, b, f), Homomorphism(b, c, g_rc))
        section = section_exists(seq)
    assert section is not None and (seq.g @ section.s).is_identity()
    assert sum(call.args[0] == g_rc for call in column_pass.call_args_list) == 1


@settings(max_examples=60)
@given(fg_sequence_params())
@example((1, [], []))  # 0 -> 0 -> Z -> Z -> 0
@example((2, [4], [[2, 2, 0]]))  # C = Z/2 ⊕ Z/4 ⊕ Z, impure
def test_an_infinite_quotient_adds_no_elimination_of_g(params):
    """With C infinite, the lift loop's one solve in C reads the elimination
    of [g | R_C] that the exactness check ran: is_pure and section_exists
    call ``_tracked_elimination`` on g's matrix and C's relations no more
    often than check_exact already did (at most once, the entry is shared)."""
    free, torsion, picks = params
    b = FgAbGroup.of_orders(*torsion, *[0] * free)
    _, inc = subgroup_generated(b, [b.element(v) for v in picks])
    _, proj = cokernel(inc)
    assume(not proj.target.is_finite)
    key = (proj.matrix, proj.target.relations)
    with mock.patch.object(groups, "_tracked_elimination",
                           wraps=groups._tracked_elimination) as tracked:
        seq = check_exact(inc, proj)
        checked = sum(call.args == key for call in tracked.call_args_list)
        tracked.reset_mock()
        assert bool(is_pure(seq)) == (section_exists(seq) is not None)
    assert checked <= 1
    assert sum(call.args == key for call in tracked.call_args_list) == 0


def test_huge_prime_sequences_are_decided_without_factoring():
    """0 -> 0 -> Z/P -> Z/P -> 0 (P = 2^61 - 1) is pure and
    0 -> Z/Q -×Q-> Z/Q² -> Z/Q -> 0 (Q the last prime below MR_BOUND) is
    not; the lift loop decides both without factoring an exponent."""
    assert is_prime(Q82) and not any(is_prime(n) for n in range(Q82 + 1, MR_BOUND))
    cert = is_pure(cyclic_sequence(1, P61))
    assert cert.pure and cert.failure is None
    seq = cyclic_sequence(Q82, Q82 * Q82)
    cert = is_pure(seq)
    assert not cert.pure and cert.failure == seq.C.generator(0)


def _seeded_sequence(pure: bool):
    rng = random.Random(5)
    return next(s for s in iter(lambda: random_subgroup_sequence(rng, 64), None)
                if not (s.A.is_trivial or s.C.is_trivial) and bool(is_pure(s)) == pure)


def test_an_impure_sequence_keeps_its_witness():
    seq = _seeded_sequence(pure=False)
    failure = is_pure(seq).failure
    errors = []
    for _ in range(2):
        with pytest.raises(PurityError) as err:
            section_from_purity(seq)
        errors.append(err.value)
    assert failure is not None
    assert [e.element for e in errors] == [failure, failure]
    assert all(f"order {failure.order()}" in str(e) for e in errors)
    assert section_exists(seq) is None


def test_a_pure_sequence_returns_one_verified_section():
    seq = _seeded_sequence(pure=True)
    section = section_exists(seq)
    assert section is not None and section_exists(seq) is section
    assert section_from_purity(seq) is section
    assert verify_section_on_all(seq, section)


def test_a_map_that_is_not_a_section_is_refused():
    """g∘s = 1 is checked on matrices modulo the relations of C."""
    seq = split_sequence(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4))
    twice = Homomorphism(seq.C, seq.B, IntMatrix.from_rows([[0], [2]]))
    with pytest.raises(InputError, match="^not a section: g∘s is not the identity$"):
        Section(seq, twice)
    Section(seq, Homomorphism(seq.C, seq.B, IntMatrix.from_rows([[0], [5]])))


def test_a_map_that_is_not_a_retraction_is_refused_on_both_paths():
    seq = impure_sequence()  # 0 -> Z/2 -2-> Z/4 -> Z/2 -> 0: r = 0 is no retraction
    with pytest.raises(InputError, match="^not a retraction: r∘f is not the identity$"):
        section_from_retraction(seq, Homomorphism.zero(seq.B, seq.A))
    # a section of another sequence on the same B: 1 - s∘g is zero, so the
    # retraction it gives is zero and fails r∘f = 1
    z4 = FgAbGroup.cyclic(4)
    other = check_exact(Homomorphism.zero(FgAbGroup.trivial(), z4), Homomorphism.identity(z4))
    with pytest.raises(InputError, match="^retraction verification failed$"):
        retraction_from_section(seq, Section(other, Homomorphism.identity(z4)))


def test_two_certify_rounds_eliminate_no_zero_row_matrix(monkeypatch, empty_memo):
    """Maps into the trivial group (exactness checks of sequences onto 0,
    tower map checks) take the closed form, not a column pass. The rounds
    are the benchmark's certify mix, each output checked by its property."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench import workloads

    zero_rows = Counter()
    column_pass = matrices._column_pass

    def counted(mat, track):
        zero_rows[mat.rows == 0] += 1
        return column_pass(mat, track)

    monkeypatch.setattr(matrices, "_column_pass", counted)
    rng, ctx = random.Random(7), workloads.Context()
    for _ in range(2):
        for op in workloads.certify_round(rng):
            assert op.check(ctx, op.run(ctx)), op.tag
    # from an empty memo these rounds run 907 column passes (1,276 when
    # results were shared only among live objects); the floor shows that
    # the wrapper sees the passes
    assert zero_rows[False] > 800 and zero_rows[True] == 0

import random

import pytest

from kummer.errors import GlueError, InputError, TowerInvalidError
from kummer.groups import FgAbGroup, Homomorphism
from kummer.matrices import IntMatrix, block_diag, smith_normal_form
from kummer.sequences import check_exact, pontryagin_dual, split_sequence
from kummer.towers import (
    CrtGlue,
    KummerTower,
    LevelMaps,
    SigmaModel,
    crt_split,
    dual_tower,
    dual_tower_split,
    sigma_kummer_tower,
    tower_split,
    validate_tower,
)

from kummer.fixtures import random_sigma_model, split_tower
from builders import P61, default_sigma_models, invalid_tower, order_six_glued, time_limit
import oracles
from oracles import elements, verify_section_on_all


def test_sigma_model_reads_smith_data():
    m = SigmaModel(2, 1, IntMatrix.from_rows([[3]]))
    assert m.corank == 0
    assert m.valuations == (1,)
    assert m.unit_parts == (1,)
    ident = SigmaModel(3, 2, IntMatrix.identity(2))
    assert ident.corank == 2
    assert ident.valuations == ()
    # det 1, though no row or column is a unit vector
    assert SigmaModel(3, 2, IntMatrix.from_rows([[2, 1], [1, 1]])).corank == 0


def test_sigma_model_smith_data_is_the_smith_form_of_m_minus_one():
    rng = random.Random(356)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            model = random_sigma_model(rng, p, max_rank=5)
            dec = model.difference_smith
            full = smith_normal_form(model.M - IntMatrix.identity(model.r))
            assert (dec.U, dec.S, dec.U_inv) == (full.U, full.S, full.U_inv)
            assert dec.V is None and dec.V_inv is None


def test_sigma_model_rejects_non_automorphism():
    with pytest.raises(InputError):
        SigmaModel(2, 1, IntMatrix.from_rows([[4]]))
    with pytest.raises(InputError):
        SigmaModel(5, 2, IntMatrix.from_rows([[1, 0], [0, 5]]))
    with pytest.raises(InputError):
        SigmaModel(4, 1, IntMatrix.from_rows([[3]]))
    # det 3, though no entry is divisible by 3
    with pytest.raises(InputError, match=r"sigma is not an automorphism: det\(M\) is divisible by p"):
        SigmaModel(3, 2, IntMatrix.from_rows([[1, 1], [1, 4]]))


def test_sigma_tower_level_shapes():
    t = sigma_kummer_tower(SigmaModel(2, 1, IntMatrix.from_rows([[3]])), 3)
    for seq in t.seqs:
        assert seq.A.invariant_factors == (2,)
        assert seq.B.invariant_factors == (2,)
        assert seq.C.is_trivial
    assert validate_tower(t)


def test_sigma_identity_gives_trivial_fixed_part():
    t = sigma_kummer_tower(SigmaModel(3, 2, IntMatrix.identity(2)), 4)
    for k, seq in enumerate(t.seqs, start=1):
        assert seq.A.is_trivial
        assert seq.C.invariant_factors == (3 ** k, 3 ** k)
    assert validate_tower(t)
    s = tower_split(t)
    assert verify_section_on_all(t.top, s)


def test_sigma_unit_difference_gives_trivial_quotient():
    model = SigmaModel(5, 2, IntMatrix.from_rows([[2, 1], [1, 1]]))
    assert model.corank == 0
    t = sigma_kummer_tower(model, 3)
    for seq in t.seqs:
        assert seq.C.is_trivial
    assert validate_tower(t)


def _check_section(seq, s, rng, cap=4096):
    if seq.C.order <= cap:
        assert verify_section_on_all(seq, s)
        return
    for _ in range(50):
        c = seq.C.element([rng.randrange(1 << 20)
                           for _ in range(seq.C.generator_count)])
        assert seq.g(s(c)) == c


def test_default_and_random_sigma_towers_validate_and_split(rng):
    models = list(default_sigma_models())
    for _ in range(10):
        models.append(random_sigma_model(rng, rng.choice([2, 3, 5]), 3))
    for model in models:
        t = sigma_kummer_tower(model, rng.randint(2, 4))
        report = validate_tower(t)
        assert report, report.violations
        s = tower_split(t)
        _check_section(t.top, s, rng)


def test_handcrafted_split_towers(rng):
    for p in (2, 3):
        for mode in ("growing", "constant", "capped"):
            t = split_tower(p, 3, a_mode=mode, c_rank=rng.randint(1, 2))
            assert validate_tower(t)
            s = tower_split(t)
            assert verify_section_on_all(t.top, s)


def mixed_top_tower() -> KummerTower:
    """Levels 0 -> Z/2 -> Z/2 ⊕ (Z/2 ⊕ Z/2^k) -> Z/2 ⊕ Z/2^k -> 0 for
    k = 1..3, with alpha = id and gamma = diag(1, 2): the top C is
    Z/2 ⊕ Z/8, so its order-2 generator is lifted from level 1."""
    seqs = [split_sequence(FgAbGroup.cyclic(2), FgAbGroup.of_orders(2, 2 ** k))
            for k in (1, 2, 3)]
    maps = []
    for lo, hi in zip(seqs, seqs[1:]):
        alpha = Homomorphism(lo.A, hi.A, IntMatrix.identity(1))
        gamma = Homomorphism(lo.C, hi.C, IntMatrix.from_rows([[1, 0], [0, 2]]))
        maps.append(LevelMaps(alpha=alpha, gamma=gamma, beta=Homomorphism(
            lo.B, hi.B, block_diag(alpha.matrix, gamma.matrix))))
    return KummerTower(2, tuple(seqs), tuple(maps))


@pytest.mark.parametrize("t", [
    sigma_kummer_tower(SigmaModel(2, 2, IntMatrix.from_rows([[1, 2], [0, 1]])), 3),
    mixed_top_tower(),
], ids=["sigma", "mixed-top"])
def test_tower_split_lifts_each_cyclic_generator_to_its_order(t):
    assert validate_tower(t)
    s = tower_split(t)
    dec = t.top.C.simplified
    gens = [dec.from_simple(e) for e in dec.group.generators()]
    assert gens
    for c in gens:
        assert t.top.g(s(c)) == c
        assert s(c).order() == c.order()
    assert sorted(c.order() for c in gens) == sorted(t.top.C.invariant_factors)


def test_invalid_tower_reports_exactly_inclusion_violations():
    t = invalid_tower(2)
    report = validate_tower(t)
    assert not report
    kinds = {v.check for v in report.violations}
    assert kinds == {"inclusion"}
    for v in report.violations:
        assert v.level >= 1
        assert v.message
    with pytest.raises(TowerInvalidError) as err:
        tower_split(t)
    assert err.value.report is report  # the tower keeps the one report


def test_tower_constructor_rejects_bad_chains():
    t = sigma_kummer_tower(SigmaModel(2, 1, IntMatrix.from_rows([[3]])), 2)
    with pytest.raises(InputError):
        KummerTower(6, t.seqs, t.maps)
    with pytest.raises(InputError):
        KummerTower(2, t.seqs, t.maps[:0])


def test_order_six_crt_fixture_splits_everywhere():
    fix = order_six_glued()
    assert fix.m == 6
    section = crt_split(fix.m, fix.towers, fix.glue)
    seq = fix.glue.seq
    assert seq.C.order == 6
    for c in elements(seq.C):
        assert seq.g(section(c)) == c


def test_crt_glue_errors_name_their_component():
    fix = order_six_glued()
    with pytest.raises(GlueError) as err:
        fix.glue.for_prime(5)
    assert err.value.component == "5"
    with pytest.raises(GlueError):
        crt_split(10, fix.towers, fix.glue)
    missing = {2: fix.towers[2]}
    with pytest.raises(GlueError) as err:
        crt_split(6, missing, fix.glue)
    assert err.value.component == "primes"
    with pytest.raises(GlueError) as err:
        crt_split(12, fix.towers, fix.glue)
    assert err.value.component == "level:2"
    with pytest.raises(GlueError) as err:
        crt_split(2, fix.towers, fix.glue)
    assert err.value.component == "primes"


def test_crt_split_does_not_factor_m():
    """m = 6·P61 is refused for the prime P61 that no tower covers, without
    trial division up to its square root."""
    fix = order_six_glued()
    with time_limit(10), pytest.raises(GlueError) as err:
        crt_split(6 * P61, fix.towers, fix.glue)
    assert err.value.component == "primes"


def test_crt_glue_that_is_not_an_isomorphism_names_its_column():
    fix = order_six_glued()
    (p2, *maps2), (p3, *maps3) = fix.glue.embeddings
    zeros = tuple(Homomorphism.zero(h.source, h.target) for h in maps3)
    glue = CrtGlue(fix.glue.seq, ((p2, *maps2), (p3, *zeros)))
    with pytest.raises(GlueError) as err:
        crt_split(6, fix.towers, glue)
    assert err.value.component == "A"


def test_dual_tower_round_trip():
    t = sigma_kummer_tower(SigmaModel(2, 2, IntMatrix.from_rows(
        [[1, 2], [0, 1]])), 3)
    co = dual_tower(t)
    assert validate_tower(co)
    back = dual_tower(co)
    assert validate_tower(back)
    for orig, rt in zip(t.seqs, back.seqs):
        assert orig.A.invariant_factors == rt.A.invariant_factors
        assert orig.B.invariant_factors == rt.B.invariant_factors
        assert orig.C.invariant_factors == rt.C.invariant_factors


def test_dual_tower_split_retracts_the_original_injection():
    t = sigma_kummer_tower(SigmaModel(3, 2, IntMatrix.from_rows(
        [[1, 3], [0, 1]])), 2)
    co = dual_tower(t)
    s = dual_tower_split(co)
    assert verify_section_on_all(co.top, s)
    assert co.top.A.invariant_factors == pontryagin_dual(
        t.top.C).invariant_factors


def test_co_tower_constructor_rejects_upward_maps():
    from kummer.towers import CoKummerTower

    t = sigma_kummer_tower(SigmaModel(3, 2, IntMatrix.identity(2)), 2)
    with pytest.raises(InputError):
        CoKummerTower(3, t.seqs, t.maps)


def test_validate_tower_reports_on_either_direction():
    up = split_tower(2, 2)
    down = dual_tower(up)
    assert not down.upward
    assert validate_tower(down)
    broken = dual_tower(invalid_tower())
    report = validate_tower(broken)
    assert not report.valid
    assert {v.check for v in report.violations} == {"surjection"}


def test_tower_split_names_the_split_for_a_downward_tower():
    with pytest.raises(InputError, match="dual_tower_split"):
        tower_split(dual_tower(split_tower(2, 2)))


def test_dual_tower_split_names_the_split_for_an_upward_tower():
    with pytest.raises(InputError, match="tower_split"):
        dual_tower_split(split_tower(2, 2))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tower_violations_agree_with_separate_eliminations(p):
    """The inclusion and surjection checks read each level map's one
    elimination and name the witnesses that separate passes name."""
    for t in (invalid_tower(p), dual_tower(invalid_tower(p))):
        got = [(v.level, v.check, v.witness) for v in validate_tower(t).violations]
        assert got and got == oracles.tower_map_violations(t)


def _broken_square_tower(p: int, left: bool) -> KummerTower:
    """split_tower(p, 3) with the middle map out of level 1 replaced so that
    one square (the left one or the right one) no longer commutes and every
    other check still holds."""
    base = split_tower(p, 3)
    lo, hi = base.seqs[:2]
    lm = base.maps[0]
    a, c = lm.alpha.matrix, lm.gamma.matrix
    beta = block_diag(a.scaled(0), c) if left else block_diag(a, c.scaled(0))
    broken = LevelMaps(alpha=lm.alpha, beta=Homomorphism(lo.B, hi.B, beta), gamma=lm.gamma)
    return KummerTower(p, base.seqs, (broken, *base.maps[1:]))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
def test_a_square_that_does_not_commute_is_reported_with_its_witness(p, left):
    """The squares are compared on matrices modulo the target lattice; the
    report names the same level, message and witness as comparing checked
    composites does, in both directions."""
    for t in (_broken_square_tower(p, left), dual_tower(_broken_square_tower(p, left))):
        report = validate_tower(t)
        got = [(v.level, v.check, v.message, v.witness)
               for v in report.violations if v.check == "square"]
        assert len(got) == 1 and got == oracles.tower_square_violations(t)
        with pytest.raises(TowerInvalidError) as err:
            (tower_split if t.upward else dual_tower_split)(t)
        assert err.value.report is report


def test_a_tower_keeps_its_validation_report(monkeypatch):
    """validate_tower, tower_split and dual_tower_split read one report per
    tower: the level checks run once however often the tower is asked."""
    from kummer import towers

    calls = []
    check = towers._check_levels
    monkeypatch.setattr(towers, "_check_levels", lambda t: calls.append(t) or check(t))
    t = sigma_kummer_tower(SigmaModel(3, 2, IntMatrix.from_rows([[1, 3], [0, 1]])), 3)
    assert validate_tower(t) is validate_tower(t)
    tower_split(t)
    assert len(calls) == 1 and calls[0] is t
    co = dual_tower(t)
    dual_tower_split(co)
    assert validate_tower(co) and len(calls) == 3  # co, and the dual of co


@pytest.mark.parametrize("square", ["f", "g"])
def test_crt_glue_with_a_failing_square_names_it(square):
    """Zeroing the A (or C) embedding of the p = 3 part breaks the f-square
    (or g-square) of that prime only."""
    fix = order_six_glued()
    (p2, *maps2), (p3, a3, b3, c3) = fix.glue.embeddings
    if square == "f":
        a3 = Homomorphism.zero(a3.source, a3.target)
    else:
        c3 = Homomorphism.zero(c3.source, c3.target)
    glue = CrtGlue(fix.glue.seq, ((p2, *maps2), (p3, a3, b3, c3)))
    with pytest.raises(GlueError, match=f"^{square}-square fails for p=3$") as err:
        crt_split(6, fix.towers, glue)
    assert err.value.component == f"{square}:3"

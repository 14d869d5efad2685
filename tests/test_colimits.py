import dataclasses
import math

import pytest

from kummer.arith import vp
from kummer.colimits import (
    _probe_height,
    CaseOneEvidence,
    CaseTwoEvidence,
    ColimitElement,
    ColimitTower,
    colimit_height,
    counterexample_tower,
    direct_limit_split,
    divisible_tower,
    limit_no_section_certificate,
    limit_purity_witness,
    section_compatibility_solvable,
    stabilizing_tower,
)
from kummer.errors import (
    EvidenceError,
    InputError,
    TowerInvalidError,
    UnsupportedError,
)
from kummer.groups import FgAbGroup, Homomorphism, hom_from_images
from kummer.matrices import IntMatrix
from kummer.sequences import check_exact, section_exists
from kummer.towers import LevelMaps, tower_split, validate_tower

from kummer.fixtures import (
    divisible_case_one_evidence,
    doomed_bounded_evidence,
    doomed_divisible_evidence,
)
from oracles import elements, verify_section_on_all


@pytest.mark.parametrize("family", [counterexample_tower, stabilizing_tower, divisible_tower])
def test_connecting_maps_join_the_memoized_levels(family):
    t = family(3)
    for k in (1, 2):
        lm, lo, hi = t.step(k), t.sequence(k), t.sequence(k + 1)
        for h, col in ((lm.alpha, "A"), (lm.beta, "B"), (lm.gamma, "C")):
            assert h.source is getattr(lo, col) and h.target is getattr(hi, col)


def test_step_rejects_maps_that_do_not_run_between_the_levels():
    """A maps_fn whose alpha starts at level k+1 is refused by step(k), with
    the slot and both levels named, so a case-1 split stops at the first
    step it reads instead of running the evidence checks on the wrong map."""
    base = divisible_tower(3)

    def maps_fn(k, lo, hi):
        return dataclasses.replace(
            base.step(k), alpha=Homomorphism(hi.A, hi.A, IntMatrix.from_rows([[3]])))

    t = ColimitTower(3, base.sequence, maps_fn)
    message = "^alpha map between levels 1 and 2 has mismatched presentation$"
    with pytest.raises(InputError, match=message) as err:
        t.step(1)
    assert not isinstance(err.value, EvidenceError)
    with pytest.raises(InputError, match=message) as err:
        direct_limit_split(t, divisible_case_one_evidence(t, 3))
    assert not isinstance(err.value, EvidenceError)


def test_stabilizing_tower_rejects_the_level_before_the_prime():
    with pytest.raises(InputError, match="stabilization level"):
        stabilizing_tower(4, 0)
    with pytest.raises(InputError, match="4 is not prime"):
        stabilizing_tower(4, 1)


def constant_nine_tower():
    """0 -> Z/9 -> Z/9 -> 0 -> 0 at every level, with identity maps: B_1 is
    not killed by p = 3, so no prefix is a valid tower."""
    z9 = FgAbGroup.cyclic(9)
    seq = check_exact(Homomorphism.identity(z9), Homomorphism.zero(z9, FgAbGroup.trivial()))

    def maps_fn(k, lo, hi):
        return LevelMaps(*(Homomorphism.identity(g) for g in (lo.A, lo.B, lo.C)))

    return ColimitTower(3, lambda k: seq, maps_fn)


def test_case_two_rejects_an_invalid_prefix_as_tower_split_does():
    t = constant_nine_tower()
    with pytest.raises(TowerInvalidError, match="tower violates the splitting hypotheses"):
        direct_limit_split(t, CaseTwoEvidence(level=1))


def test_case_one_rejects_an_invalid_prefix_after_its_evidence_checks():
    """A = Z/9 claimed bounded by itself passes V1-V5 at level 2; the split
    of the prefix then refuses the tower."""
    t = constant_nine_tower()
    a = t.sequence(1).A
    ev = CaseOneEvidence(
        level=2, divisible_rank=0, precision=2, m_group=a,
        pi_divisible=(Homomorphism.zero(a, FgAbGroup.trivial()),) * 2,
        pi_bounded=(Homomorphism.identity(a),) * 2)
    with pytest.raises(TowerInvalidError, match="tower violates the splitting hypotheses"):
        direct_limit_split(t, ev)


def test_counterexample_levels_have_the_stated_shape():
    for p in (2, 3):
        t = counterexample_tower(p)
        for k in (1, 2, 3):
            seq = t.sequence(k)
            assert seq.A.invariant_factors == tuple(
                p ** i for i in range(1, k))
            assert seq.B.invariant_factors == tuple(
                p ** i for i in range(1, k + 1))
            assert seq.C.invariant_factors == (p ** k,)
        report = validate_tower(t.prefix(4))
        assert report, report.violations


def test_counterexample_squares_commute_exactly():
    for p in (2, 3):
        t = counterexample_tower(p)
        for k in range(1, 4):
            lo, hi = t.sequence(k), t.sequence(k + 1)
            lm = t.step(k)
            assert (hi.f @ lm.alpha).same_map(lm.beta @ lo.f)
            assert (hi.g @ lm.beta).same_map(lm.gamma @ lo.g)


def test_every_finite_level_splits():
    t = counterexample_tower(2)
    for n in range(1, 5):
        s = section_exists(t.sequence(n))
        assert s is not None
        assert verify_section_on_all(t.sequence(n), s)


def test_element_pushing_and_canonical_descent():
    t = counterexample_tower(2)
    e = t.element(1, "C", [1])
    up = e.push(4)
    assert up.level == 4
    assert up.canonical().level == 1
    assert up == e
    assert e != t.element(1, "C", [0])
    with pytest.raises(InputError):
        up.push(2)
    with pytest.raises(InputError):
        ColimitElement(t, 1, "D", t.sequence(1).C.generator(0))


def test_colimit_order_is_level_independent():
    t = counterexample_tower(3)
    e = t.element(1, "C", [1])
    assert e.value.order() == 3
    assert e.push(3).value.order() == 3


def test_heights_in_b_match_closed_form_and_probe():
    t = counterexample_tower(2)
    probe = colimit_height(t.element(1, "B", [1]), 3)
    assert (probe.height, probe.saturated, probe.exact) == (0, False, True)
    probe = colimit_height(t.element(2, "B", [0, 2]), 3)
    assert probe.height == 1 and not probe.saturated
    t3 = counterexample_tower(3)
    probe = colimit_height(t3.element(3, "B", [0, 0, 9]), 4)
    assert probe.height == 2
    zero = colimit_height(t.element(2, "B", [0, 0]), 3)
    assert zero.saturated


def test_heights_in_c_are_unbounded():
    t = counterexample_tower(2)
    for depth in (1, 3, 5):
        probe = colimit_height(t.element(1, "C", [1]), depth)
        assert probe.height == depth and probe.saturated


def test_closed_form_agrees_with_generic_probe_exhaustively():
    t = counterexample_tower(2)
    for level in (1, 2, 3):
        grp = t.sequence(level).B
        for x in elements(grp):
            e = ColimitElement(t, level, "B", x)
            closed = colimit_height(e, 3)
            generic = colimit_height(e.push(level + 1), 3)
            if closed.saturated:
                assert generic.saturated
            else:
                assert generic.height == closed.height
    # the certificate probes one element per orbit of the diagonal unit
    # group, with coordinates p^v mod p^i; each element's heights must equal
    # those of its representative
    for p in (2, 3, 5):
        t = counterexample_tower(p)
        for level in (1, 2):
            grp = t.sequence(level).B
            for x in elements(grp):
                rep = grp.element([p ** (vp(c, p) if c else i) % p ** i
                                   for i, c in enumerate(x.coords, 1)])
                e, r = (ColimitElement(t, level, "B", y) for y in (x, rep))
                assert colimit_height(e, 3) == colimit_height(r, 3)
                assert _probe_height(e, 3) == _probe_height(r, 3)


def test_compatibility_congruences():
    ce = counterexample_tower(2)
    for n in range(1, 5):
        assert not section_compatibility_solvable(ce, n)
    st = stabilizing_tower(2)
    assert section_compatibility_solvable(st, 2)
    assert section_compatibility_solvable(st, 3)


def test_no_section_certificate_is_valid():
    for p, depth in ((2, 4), (3, 3)):
        cert = limit_no_section_certificate(counterexample_tower(p), depth)
        assert cert.valid
        assert cert.p == p
        assert cert.divisibility_verified
        assert all(bad == 0 for _, bad in cert.heights_cross_checked)
        assert all(not ok for _, ok in cert.compatibility)
        assert len(cert.inference) >= 3
    with pytest.raises(UnsupportedError):
        limit_no_section_certificate(stabilizing_tower(2), 2)
    with pytest.raises(InputError):
        limit_no_section_certificate(counterexample_tower(2), 0)


def test_limit_purity_witnesses_up_to_p_cubed():
    for p in (2, 3):
        t = counterexample_tower(p)
        for k in (0, 1, 2, 3):
            for u in (1, p + 1):
                c = t.element(k or 1, "C", [u if k else 0])
                b = limit_purity_witness(t, c)
                assert b.value.order() == c.value.order()
                assert t.element(b.level, "C",
                                 t.sequence(b.level).g(b.value).coords) == \
                    c.push(b.level)


def test_purity_witness_rejects_non_c_elements():
    t = counterexample_tower(2)
    with pytest.raises(InputError):
        limit_purity_witness(t, t.element(1, "B", [0]))


def test_case_two_split_and_premature_claim():
    t = stabilizing_tower(2)
    res = direct_limit_split(t, CaseTwoEvidence(level=2))
    assert res.case == 2
    assert verify_section_on_all(t.sequence(res.level), res.section)
    with pytest.raises(EvidenceError) as err:
        direct_limit_split(t, CaseTwoEvidence(level=1))
    assert err.value.check == "stabilization"


def test_case_one_split_on_the_divisible_family():
    for p in (2, 3):
        t = divisible_tower(p)
        ev = divisible_case_one_evidence(t, 3)
        res = direct_limit_split(t, ev)
        assert res.case == 1
        seq = t.sequence(res.level)
        assert verify_section_on_all(seq, res.section)
        assert res.notes == ("divisible part handled at precision p^5, bounded "
                             "part of exponent p^0 split by purity",)


def test_counterexample_defeats_both_splitting_routes():
    t = counterexample_tower(2)
    with pytest.raises(EvidenceError) as err:
        direct_limit_split(t, CaseTwoEvidence(level=3))
    assert err.value.check == "stabilization"
    with pytest.raises(EvidenceError) as err:
        direct_limit_split(t, doomed_divisible_evidence(t, 3))
    assert err.value.check == "V4"
    assert "finite height" in str(err.value)
    with pytest.raises(EvidenceError) as err:
        direct_limit_split(t, doomed_bounded_evidence(t, 3))
    assert err.value.check == "V3"


def test_case_one_shape_checks_reject_malformed_evidence():
    t = divisible_tower(2)
    good = divisible_case_one_evidence(t, 2)
    with pytest.raises(EvidenceError) as err:
        direct_limit_split(t, CaseOneEvidence(
            level=2, divisible_rank=good.divisible_rank,
            precision=good.precision, m_group=FgAbGroup.free(1),
            pi_divisible=good.pi_divisible, pi_bounded=good.pi_bounded))
    assert err.value.check == "V1"
    with pytest.raises(EvidenceError) as err:
        direct_limit_split(t, divisible_case_one_evidence(t, 3, precision=2))
    assert err.value.check == "V5"


def twisted_divisible_tower(p):
    """The divisible family with B_k = Z/p^k + Z/p written so that
    g(x, y) = x + y: the first preimage of C's generator, (1, 0), has order
    p^k, so the lift loop must correct it by a kernel element."""

    def build(k):
        b = FgAbGroup.of_orders(p ** k, p)
        return check_exact(
            Homomorphism(FgAbGroup.cyclic(p ** k), b, IntMatrix.from_rows([[1], [-1]])),
            Homomorphism(b, FgAbGroup.cyclic(p), IntMatrix.from_rows([[1, 1]])))

    def maps_fn(k, lo, hi):
        return LevelMaps(
            alpha=Homomorphism(lo.A, hi.A, IntMatrix.from_rows([[p]])),
            beta=Homomorphism(lo.B, hi.B, IntMatrix.from_rows([[p, 0], [1, 1]])),
            gamma=Homomorphism(lo.C, hi.C, IntMatrix.identity(1)))

    return ColimitTower(p, build, maps_fn)


def bounded_part_evidence(t, level, j):
    """Honest divisible projections, and as bounded part M = Z/p^j the cone
    of the reduction A_level = Z/p^level -> Z/p^j, composed down the A
    column and re-reduced at each level."""
    honest = divisible_case_one_evidence(t, level)
    m_group = FgAbGroup.cyclic(t.p ** j)
    cone = [Homomorphism(t.sequence(level).A, m_group, IntMatrix.identity(1))]
    for k in range(level - 1, 0, -1):
        h = cone[-1] @ t.step(k).alpha
        cone.append(hom_from_images(h.source, m_group, [h(x) for x in h.source.generators()]))
    return CaseOneEvidence(
        level=level, divisible_rank=1, precision=honest.precision, m_group=m_group,
        pi_divisible=honest.pi_divisible, pi_bounded=tuple(reversed(cone)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_case_one_section_is_the_section_of_the_prefix_tower(p):
    """Case 1 only checks the evidence: its section is tower_split of the
    first `level` levels, and g∘s = id on every element of C. Covered at
    levels 1-4: the divisible family with M = 0 and with M = Z/p^j for every
    j up to the level, and the twisted family with M = 0 (the divisible
    projections as given and negated) and with every such M. Each of the
    twisted evidences with j < level was once refused: gluing the one
    section that each pushout's lift loop picked found no map C -> B."""
    for level in (1, 2, 3, 4):
        t, twisted = divisible_tower(p), twisted_divisible_tower(p)
        honest = divisible_case_one_evidence(twisted, level)
        negated = dataclasses.replace(honest, pi_divisible=tuple(
            Homomorphism(h.source, h.target, h.matrix.scaled(-1)) for h in honest.pi_divisible))
        cases = [(t, divisible_case_one_evidence(t, level)), (twisted, honest), (twisted, negated)]
        cases += [(tower, bounded_part_evidence(tower, level, j))
                  for tower in (t, twisted) for j in range(1, level + 1)]
        for tower, ev in cases:
            res = direct_limit_split(tower, ev)
            assert (res.case, res.level) == (1, level)
            assert res.section.s.matrix == tower_split(tower.prefix(level)).s.matrix
            assert verify_section_on_all(tower.sequence(level), res.section)


def test_prefix_is_cached_and_consistent():
    t = counterexample_tower(2)
    assert t.sequence(2) is t.sequence(2)
    pre = t.prefix(3)
    assert pre.n == 3
    assert pre.seqs[1] is t.sequence(2)


@pytest.mark.parametrize("part", ["divisible", "bounded"])
def test_case_one_evidence_that_is_not_a_cone_fails_v2(part):
    """The cone squares pi_{k+1}∘alpha_k = pi_k are checked on matrices
    modulo the projection's target."""
    p = 3
    t = divisible_tower(p)
    ev = divisible_case_one_evidence(t, 3)
    if part == "divisible":  # a unit multiple of the honest level-1 embedding
        first = ev.pi_divisible[0]
        bad = dataclasses.replace(ev, pi_divisible=(
            Homomorphism(first.source, first.target, first.matrix.scaled(2)),
            *ev.pi_divisible[1:]))
    else:  # reduction mod p on level 1 only: alpha is p, so no cone
        zp = FgAbGroup.cyclic(p)
        bounded = [Homomorphism.zero(t.sequence(k).A, zp) for k in range(1, 4)]
        bounded[0] = Homomorphism(t.sequence(1).A, zp, IntMatrix.from_rows([[1]]))
        bad = dataclasses.replace(ev, m_group=zp, pi_bounded=tuple(bounded))
    with pytest.raises(EvidenceError, match=f"^{part} projections do not form a cone "
                                            "at level 1$") as err:
        direct_limit_split(t, bad)
    assert err.value.check == "V2"

"""End-to-end CLI tests, mostly through subprocess so the exit-code
contract and byte-level stdout are what a shell user would see. Tests that
patch the library or run many documents call ``cli.main`` in-process."""

import contextlib
import io
import json
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kummer import jsonio
from kummer.arith import MR_BOUND
from kummer.cli import main
from kummer.groups import FgAbGroup, Homomorphism
from kummer.matrices import IntMatrix
from kummer.sequences import Section, check_exact, split_sequence
from kummer.towers import CoKummerTower, LevelMaps, validate_tower

from builders import P61, Q82, cyclic_sequence


def run_cli(argv, stdin="", timeout=120):
    return subprocess.run([sys.executable, "-m", "kummer", *argv],
                          input=stdin, capture_output=True, text=True,
                          timeout=timeout)


def run_main(argv, stdin=""):
    """(exit code, stdout, stderr) of ``cli.main`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


BIG_P = 1_000_000_007  # costs must grow with log p, not with p


def impure_doc() -> str:
    z2, z4 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
    seq = check_exact(Homomorphism(z2, z4, IntMatrix.from_rows([[2]])),
                      Homomorphism(z4, z2, IntMatrix.from_rows([[1]])))
    return jsonio.dumps(jsonio.document(jsonio.encode_seq(seq)))


def split_doc() -> str:
    from kummer.sequences import split_sequence

    seq = split_sequence(FgAbGroup.cyclic(2), FgAbGroup.cyclic(3))
    return jsonio.dumps(jsonio.document(jsonio.encode_seq(seq)))


def test_snf_exit_zero_and_diagonal():
    doc = jsonio.dumps(jsonio.document(
        jsonio.encode_matrix(IntMatrix.from_rows([[2, 4], [6, 8]]))))
    res = run_cli(["snf"], doc)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["diagonal"] == ["2", "4"]


def test_group_verb_reports_invariants():
    doc = jsonio.dumps(jsonio.document(
        jsonio.encode_group(FgAbGroup.of_orders(2, 12))))
    res = run_cli(["group"], doc)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["invariant_factors"] == ["2", "12"]
    assert out["order"] == "24"


def test_seq_check_impure_exits_one_with_witness():
    res = run_cli(["seq-check"], impure_doc())
    assert res.returncode == 1
    out = json.loads(res.stdout)
    assert out["exact"] is True
    assert out["pure"] is False
    assert out["split"] is False
    assert "witness" in out


def test_seq_check_split_exits_zero_with_section():
    res = run_cli(["seq-check"], split_doc())
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["split"] is True
    assert "section" in out


def test_seq_split_on_impure_input_exits_one():
    res = run_cli(["seq-split"], impure_doc())
    assert res.returncode == 1


Z, Z2 = FgAbGroup.free(1), FgAbGroup.cyclic(2)
INFINITE_SEQS = {
    "twice": check_exact(Homomorphism(Z, Z, IntMatrix.from_rows([[2]])),
                         Homomorphism(Z, Z2, IntMatrix.from_rows([[1]]))),
    "split": split_sequence(Z, Z2),
}


@pytest.mark.parametrize("verb", ["seq-check", "seq-split"])
@pytest.mark.parametrize("name", sorted(INFINITE_SEQS))
def test_sequences_with_an_infinite_middle_group_are_decided(verb, name):
    """0 -> Z -×2-> Z -> Z/2 -> 0 fails with a witness; Z -> Z ⊕ Z/2 -> Z/2
    splits with a verified section."""
    seq = INFINITE_SEQS[name]
    res = run_cli([verb], jsonio.dumps(jsonio.document(jsonio.encode_seq(seq))))
    out = json.loads(res.stdout)
    assert res.stderr == "" and out["exact"] is True
    if name == "twice":
        assert res.returncode == 1 and out["split"] is False
        assert out["witness"] == {"coords": ["1"]}
    else:
        assert res.returncode == 0 and out["split"] is True
        mat = jsonio.decode_matrix(out["section"]["matrix"], "$")
        Section(seq, Homomorphism(seq.C, seq.B, mat))


@pytest.mark.parametrize("verb", ["seq-check", "seq-split"])
@pytest.mark.parametrize("doc, expected", [(split_doc, 0), (impure_doc, 1)],
                         ids=["pure", "impure"])
def test_sequence_verbs_run_the_lift_loop_once_and_solve_no_congruence(verb, doc, expected):
    """A sequence verb decides once: both verbs read the section or the
    witness of one run of the lift loop, and seq-check prints its verdict
    as "pure". No congruence system is solved."""
    import kummer.sequences
    from kummer.matrices import MatrixEquationSystem

    text = doc()
    with mock.patch.object(MatrixEquationSystem, "solve",
                           side_effect=AssertionError("a congruence system was solved")), \
            mock.patch.object(kummer.sequences, "section_from_purity",
                              side_effect=kummer.sequences.section_from_purity) as loop:
        code, out, err = run_main([verb], text)
    assert (code, err) == (expected, "")
    assert json.loads(out)["split"] is (expected == 0)
    assert loop.call_count == 1


@pytest.mark.parametrize("verb", ["seq-check", "seq-split"])
@pytest.mark.parametrize("a, b, code", [(1, P61, 0), (Q82, Q82 * Q82, 1)],
                         ids=["2^61-1-pure", "82-bit-impure"])
def test_sequence_verbs_decide_huge_prime_orders_without_factoring(verb, a, b, code):
    """0 -> 0 -> Z/P -> Z/P -> 0 for P = 2^61 - 1 splits, and
    0 -> Z/Q -×Q-> Z/Q² -> Z/Q -> 0 for the 82-bit prime Q does not: both
    are decided within the timeout, since no exponent is factored."""
    doc = jsonio.dumps(jsonio.document(jsonio.encode_seq(cyclic_sequence(a, b))))
    res = run_cli([verb], doc, timeout=20)
    assert (res.returncode, res.stderr) == (code, "")
    out = json.loads(res.stdout)
    assert out["split"] is (code == 0)
    if verb == "seq-check":
        assert out["pure"] is (code == 0)
    if code == 0:
        assert out["section"]["matrix"]["data"] == ["1"]
    else:
        assert out["witness"]["coords"] == ["1"]


def test_case_one_limit_split_solves_no_congruence():
    """A case-1 direct-limit split checks the supplied decomposition, then
    splits the prefix tower by tower_split: no congruence system is
    solved, through the CLI verb or the library call."""
    from kummer.colimits import direct_limit_split, divisible_tower
    from kummer.fixtures import divisible_case_one_evidence
    from kummer.matrices import MatrixEquationSystem

    with mock.patch.object(MatrixEquationSystem, "solve",
                           side_effect=AssertionError("a congruence system was solved")):
        code, out, err = run_main(["limit-split"], json.dumps(
            {"family": "divisible", "p": 3, "case": 1, "level": 3}))
        assert (code, err) == (0, "")
        assert json.loads(out)["case"] == 1
        for p in (2, 5):
            t = divisible_tower(p)
            assert direct_limit_split(t, divisible_case_one_evidence(t, 3)).case == 1


def test_sequence_verbs_print_one_verified_section_on_random_pure_sequences():
    """On 12 seeded pure sequences with |C| <= 64, seq-check and seq-split
    print the same section, and it lifts every element of C."""
    from builders import random_subgroup_sequence
    from kummer.sequences import is_pure
    from oracles import verify_section_on_all

    rng = random.Random(20)
    seqs = []
    while len(seqs) < 12:
        seq = random_subgroup_sequence(rng, 64)
        if seq.C.order > 1 and is_pure(seq):
            seqs.append(seq)
    for seq in seqs:
        assert seq.C.order <= 64
        text = jsonio.dumps(jsonio.document(jsonio.encode_seq(seq)))
        (c_code, c_out, c_err), (s_code, s_out, s_err) = (
            run_main([verb], text) for verb in ("seq-check", "seq-split"))
        assert (c_code, c_err, s_code, s_err) == (0, "", 0, "")
        printed = json.loads(c_out)["section"]
        assert json.loads(s_out)["section"] == printed
        mat = jsonio.decode_matrix(printed["matrix"], "$")
        assert verify_section_on_all(seq, Section(seq, Homomorphism(seq.C, seq.B, mat)))


def test_malformed_json_is_a_schema_error():
    res = run_cli(["group"], "{\n  oops\n")
    assert res.returncode == 2
    out = json.loads(res.stdout)
    assert "invalid JSON at line 2" in out["error"]["message"]


def test_bad_field_reports_its_path():
    res = run_cli(["snf"], json.dumps(
        {"schema": 1, "rows": 1, "cols": 2, "data": ["1", "x"]}))
    assert res.returncode == 2
    out = json.loads(res.stdout)
    assert "$.data[1]" in out["error"]["message"]


def test_non_ascii_digits_are_a_schema_error():
    res = run_cli(["group"], '{"schema":1,"generators":1,'
                  '"relations":{"rows":1,"cols":1,"data":["²"]}}')
    assert res.returncode == 2
    assert res.stderr == ""
    out = json.loads(res.stdout)
    assert "$.relations.data[0]" in out["error"]["message"]


# past CPython's default 4,300-digit limit on int <-> str conversion
_rng = random.Random(5000)
BIG = str(_rng.randint(1, 9)) + "".join(_rng.choices("0123456789", k=4999))


@pytest.mark.parametrize("verb, doc, key, expected", [
    ("group", {"generators": 1, "relations": {"rows": 1, "cols": 1, "data": [BIG]}},
     "invariant_factors", [BIG]),
    ("snf", {"rows": 2, "cols": 2, "data": [BIG, "0", "0", "1"]},
     "diagonal", ["1", BIG]),
])
def test_5000_digit_integers_round_trip(verb, doc, key, expected):
    res = run_cli([verb], json.dumps(doc))
    assert res.returncode == 0
    assert res.stderr == ""
    assert json.loads(res.stdout)[key] == expected


@pytest.mark.parametrize("verb, doc, path", [
    ("snf", '{"rows":1%s,"cols":1,"data":["1"]}' % ("0" * 5000), "$.rows"),
    ("group", '{"generators":1%s,"relations":{"rows":0,"cols":0,"data":[]}}'
     % ("0" * 5000), "$.generators"),
    ("snf", json.dumps([[1]] * 1001), "$"),
    ("snf", json.dumps([[1] * 3000]), "$[0]"),
    ("snf", json.dumps([[1, 2], [1] * 1001]), "$[1]"),
    ("group", json.dumps({"generators": 1, "relations": [[1] * 1001]}), "$.relations[0]"),
], ids=["rows", "generators", "list-rows", "list-entries", "list-later-row",
        "list-relations"])
def test_counts_past_the_cap_are_input_errors(verb, doc, path):
    res = run_cli([verb], doc)
    assert res.returncode == 2
    assert res.stderr == ""
    message = json.loads(res.stdout)["error"]["message"]
    assert message.startswith(f"{path}: ")
    assert str(jsonio.MAX_COUNT) in message


def test_jsonio_converts_integers_of_any_length():
    n = 10**5000 + 12345
    text = "1" + "0" * 4995 + "12345"
    assert jsonio.encode_int(-n) == "-" + text
    assert jsonio.decode_int(text, "$") == n
    assert jsonio.loads_checked(f"[{text}, -{text}]") == [n, -n]


def test_primes_past_the_miller_rabin_bound_are_input_errors():
    res = run_cli(["tower-generate", "--sigma",
                   '{"p":3317044064679887385961981,"r":1,"M":[[3]]}'])
    assert res.returncode == 2
    assert res.stderr == ""
    assert "primality" in json.loads(res.stdout)["error"]["message"]


def test_generate_then_split_pipeline():
    gen = run_cli(["tower-generate", "--sigma", '{"p":2,"r":1,"M":[[3]]}',
                   "--n", "3"])
    assert gen.returncode == 0, gen.stderr
    split = run_cli(["tower-split"], gen.stdout)
    assert split.returncode == 0, split.stdout
    out = json.loads(split.stdout)
    assert "section" in out


def test_tower_validate_reports_violations(tmp_path):
    from builders import invalid_tower

    doc = jsonio.dumps(jsonio.document(jsonio.encode_tower(invalid_tower(2))))
    path = tmp_path / "tower.json"
    path.write_text(doc)
    res = run_cli(["tower-validate", "--input", str(path)])
    assert res.returncode == 1
    out = json.loads(res.stdout)
    assert out["valid"] is False
    assert all(v["check"] == "inclusion" for v in out["violations"])
    split = run_cli(["tower-split", "--input", str(path)])
    assert split.returncode == 2
    assert json.loads(split.stdout)["error"]["kind"] == "TowerInvalidError"


def test_counterexample_verb_certificate():
    res = run_cli(["counterexample", "--p", "2", "--depth", "3"])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["valid"] is True
    assert out["p"] == 2
    assert all(bad == 0 for _, bad in out["heights_cross_checked"])
    big = run_cli(["counterexample", "--p", str(BIG_P), "--depth", "32"], timeout=20)
    assert big.returncode == 0, big.stderr
    out = json.loads(big.stdout)
    assert out["valid"] is True and out["heights_cross_checked"] == [[1, 0], [2, 0]]


def test_limit_split_families():
    stab = run_cli(["limit-split"], json.dumps(
        {"family": "stabilizing", "p": 2, "case": 2, "level": 2}))
    assert stab.returncode == 0, stab.stdout
    div = run_cli(["limit-split"], json.dumps(
        {"family": "divisible", "p": 2, "case": 1, "level": 3}))
    assert div.returncode == 0, div.stdout
    assert json.loads(div.stdout)["case"] == 1
    ce = run_cli(["limit-split"], json.dumps(
        {"family": "counterexample", "p": 2, "case": 1, "level": 3}))
    assert ce.returncode == 2
    err = json.loads(ce.stdout)["error"]
    assert err["kind"] == "EvidenceError"
    assert err["check"] == "V4"
    big = run_cli(["limit-split"], json.dumps(
        {"family": "counterexample", "p": BIG_P, "case": 1, "level": 32}), timeout=20)
    assert big.returncode == 2
    assert json.loads(big.stdout)["error"]["check"] == "V4"


def test_limit_split_at_the_largest_accepted_prime():
    """The doomed evidence's cones keep reduced entries, so the largest
    prime below MR_BOUND (82 bits) costs about what 2^61 - 1 does."""
    big = run_cli(["limit-split"], json.dumps(
        {"family": "counterexample", "p": 3317044064679887385961813, "case": 1,
         "level": 32}), timeout=20)
    assert big.returncode == 2
    assert json.loads(big.stdout)["error"]["check"] == "V4"


def test_surjection_kernel_violation_carries_a_witness():
    """A downward tower whose left map Z/2 + Z/2 -> Z/2 is onto with kernel
    Z/2, not 2(Z/2 + Z/2) = 0: the witness (0, 1) lies in the kernel only."""
    lo = split_sequence(FgAbGroup.cyclic(2), FgAbGroup.cyclic(2))
    hi = split_sequence(FgAbGroup.of_orders(2, 2), FgAbGroup.cyclic(4))
    maps = LevelMaps(
        alpha=Homomorphism(hi.A, lo.A, IntMatrix.from_rows([[1, 0]])),
        beta=Homomorphism(hi.B, lo.B, IntMatrix.from_rows([[1, 0, 0], [0, 0, 1]])),
        gamma=Homomorphism(hi.C, lo.C, IntMatrix.from_rows([[1]])))
    tower = CoKummerTower(2, (lo, hi), (maps,))
    (violation,) = validate_tower(tower).violations
    assert violation.check == "surjection"
    assert violation.witness == hi.A.element((0, 1))
    res = run_cli(["tower-validate"], jsonio.dumps(jsonio.document(jsonio.encode_tower(tower))))
    assert res.returncode == 1
    (out,) = json.loads(res.stdout)["violations"]
    assert out["check"] == "surjection" and "witness" in out


def test_dual_verb_on_a_group():
    doc = json.dumps({"schema": 1, "kind": "group", "value": json.loads(
        jsonio.dumps(jsonio.encode_group(FgAbGroup.of_orders(2, 4))))})
    res = run_cli(["dual"], doc)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["kind"] == "group"


def test_gmod_split_verbs():
    from kummer.cohomology import regular_extension_fixture

    seq = regular_extension_fixture(3)
    doc = {
        "schema": 1,
        "p": 3,
        "A": {"group": jsonio.encode_group(seq.A.group), "d": 3,
              "sigma": jsonio.encode_matrix(seq.A.sigma.matrix)},
        "B": {"group": jsonio.encode_group(seq.B.group), "d": 3,
              "sigma": jsonio.encode_matrix(seq.B.sigma.matrix)},
        "C": {"group": jsonio.encode_group(seq.C.group), "d": 3,
              "sigma": jsonio.encode_matrix(seq.C.sigma.matrix)},
        "f": jsonio.encode_matrix(seq.f.hom.matrix),
        "g": jsonio.encode_matrix(seq.g.hom.matrix),
    }
    res = run_cli(["gmod-split"], json.dumps(doc))
    assert res.returncode == 1
    out = json.loads(res.stdout)
    assert out["equivariant"] is False
    assert out["plain"] is True
    coh = run_cli(["gmod-cohomology"], json.dumps(doc["B"]))
    assert coh.returncode == 0


def _gmod_doc(seq, **extra) -> str:
    from test_cli_golden import _module

    return json.dumps({"schema": 1, **extra, "A": _module(seq.A), "B": _module(seq.B),
                       "C": _module(seq.C), "f": jsonio.encode_matrix(seq.f.hom.matrix),
                       "g": jsonio.encode_matrix(seq.g.hom.matrix)})


def test_gmod_split_reads_no_p():
    from test_cli_golden import CASES

    doc = json.loads(CASES["gmod-split"][1]())
    expected = run_cli(["gmod-split"], json.dumps(doc))
    assert expected.returncode == 1
    for p in (None, 4, "x", [], HUGE):
        variant = {key: value for key, value in doc.items() if key != "p"}
        if p is not None:
            variant["p"] = p
        res = run_cli(["gmod-split"], json.dumps(variant))
        assert (res.stdout, res.stderr, res.returncode) == (
            expected.stdout, expected.stderr, expected.returncode), p


@pytest.mark.parametrize("seed", [0, 1, 2, 6])
def test_gmod_split_decides_modules_not_killed_by_p(seed):
    """Exit 0 with a checked section, or 1, as the brute-force search says."""
    from oracles import brute_equivariant_section
    from test_cohomology import regular_plus_trivial_sequence

    seq = regular_plus_trivial_sequence(random.Random(seed))
    res = run_cli(["gmod-split"], _gmod_doc(seq, p=2))
    brute = brute_equivariant_section(seq)
    assert res.returncode == (1 if brute is None else 0), res.stdout
    out = json.loads(res.stdout)
    assert out["equivariant"] is (brute is not None)
    if brute is not None:
        s = Homomorphism(seq.C.group, seq.B.group,
                         jsonio.decode_matrix(out["section"], "$.section"))
        assert (seq.g.hom @ s).is_identity()
        assert (s @ seq.C.sigma).same_map(seq.B.sigma @ s)


def test_demos_are_deterministic():
    for name in ("main-lemma", "counterexample", "dual-lemma",
                 "direct-limit", "chris"):
        first = run_cli(["demo", name])
        second = run_cli(["demo", name])
        assert first.returncode == 0, (name, first.stdout, first.stderr)
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)
    big = run_cli(["demo", "direct-limit", "--p", str(BIG_P)], timeout=20)
    assert big.returncode == 0, big.stderr
    assert json.loads(big.stdout)["case_one"]["verified_on"] == BIG_P


def test_demo_chris_small_prime():
    res = run_cli(["demo", "chris", "--p", "3"])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["h1_invariants"] == ["3"]
    assert out["valid"] is True


def test_pretty_and_timing_flags():
    doc = jsonio.dumps(jsonio.document(
        jsonio.encode_group(FgAbGroup.cyclic(6))))
    plain = run_cli(["group"], doc)
    pretty = run_cli(["group", "--pretty"], doc)
    assert json.loads(plain.stdout) == json.loads(pretty.stdout)
    assert pretty.stdout.count("\n") > plain.stdout.count("\n")
    timed = run_cli(["group", "--timing"], doc)
    assert "timing" in json.loads(timed.stdout)


def test_unknown_verb_is_a_usage_error():
    res = run_cli(["frobnicate"])
    assert res.returncode == 2
    assert res.stdout == ""


# A 5,000-digit number that is odd and 1 mod 4, written out by hand because
# json.dumps refuses ints past 4,300 digits.
HUGE = "1" + "0" * 4998 + "1"


def _error(res) -> dict:
    assert res.returncode == 2
    assert res.stderr == ""
    return json.loads(res.stdout)["error"]


def _not_a_hom_doc() -> str:
    # f: Z/HUGE -> Z/4 sends the relator HUGE to 1 != 0 in Z/4
    z4 = jsonio.dumps(jsonio.encode_group(FgAbGroup.cyclic(4)))
    big = '{"generators":1,"relations":{"rows":1,"cols":1,"data":[%s]}}' % HUGE
    one = '{"rows":1,"cols":1,"data":["1"]}'
    return ('{"f":{"source":%s,"target":%s,"matrix":%s},'
            '"g":{"source":%s,"target":%s,"matrix":%s}}' % (big, z4, one, z4, z4, one))


def _tower_doc_with_direction(direction: str) -> str:
    from kummer.fixtures import split_tower

    doc = jsonio.dumps(jsonio.encode_tower(split_tower(2, 2)))
    return doc.replace('"direction":"up"', f'"direction":{direction}')


@pytest.mark.parametrize("verb, doc, path", [
    ("seq-check", _not_a_hom_doc(), "$.f"),
    ("limit-split", '{"family":["stabilizing"]}', "$.family"),
    ("limit-split", '{"family":%s}' % HUGE, "$.family"),
    ("limit-split", '{"family":"stabilizing","case":%s}' % HUGE, "$.case"),
    ("dual", '{"kind":%s,"value":{}}' % HUGE, "$.kind"),
    ("tower-validate", _tower_doc_with_direction(HUGE), "$.direction"),
], ids=["relator-image", "family-list", "family-huge", "case-huge", "kind-huge",
        "direction-huge"])
def test_hostile_values_are_input_errors_with_a_path(verb, doc, path):
    assert _error(run_cli([verb], doc))["message"].startswith(f"{path}: ")


@pytest.mark.parametrize("verb", ["limit-split", "dual"])
@pytest.mark.parametrize("doc, kind", [("[]", "list"), ("1", "int"), ('"x"', "str")],
                         ids=["list", "int", "str"])
def test_non_object_documents_name_their_type(verb, doc, kind):
    assert _error(run_cli([verb], doc))["message"] == f"$: expected an object, got {kind}"


@pytest.mark.parametrize("argv, doc, path", [
    (["counterexample", "--depth", "64"], "", "--depth"),
    (["demo", "counterexample", "--depth", "64"], "", "--depth"),
    (["demo", "chris", "--p", "101"], "", "--p"),
    (["tower-generate", "--sigma", '{"p":2,"r":1,"M":[[3]]}', "--n", "100000"], "", "--n"),
    (["limit-split"], '{"family":"counterexample","case":1,"level":1000}', "$.level"),
    (["limit-split"], '{"family":"divisible","case":1,"precision":1%s}' % ("0" * 5000),
     "$.precision"),
    (["limit-split", "--precision", "100000"], '{"family":"divisible","case":1,"level":2}',
     "--precision"),
    (["limit-split"], '{"family":"stabilizing","n0":1%s}' % ("0" * 5000), "$.n0"),
], ids=["depth", "demo-depth", "chris-p", "tower-n", "level", "precision", "precision-flag",
        "n0"])
def test_structural_parameters_past_their_cap_fail_fast(argv, doc, path):
    res = subprocess.run([sys.executable, "-m", "kummer", *argv], input=doc,
                         capture_output=True, text=True, timeout=20)
    assert _error(res)["message"].startswith(f"{path}: ")


NEG_HUGE_BITS = jsonio._int_from_decimal(HUGE).bit_length()


def _tower_doc_with_p(p: int) -> dict:
    from kummer.fixtures import split_tower

    return dict(jsonio.encode_tower(split_tower(2, 2)), p=p)


@pytest.mark.parametrize("argv, doc, message", [
    (["limit-split"], '{"family":"stabilizing","p":4}', "$.p: 4 is not prime"),
    (["limit-split"], '{"family":"divisible","p":"%d"}' % MR_BOUND,
     f"$.p: primality is only decided below {MR_BOUND}, got a 82-bit number"),
    (["limit-split"], '{"family":"counterexample","p":"-%s"}' % HUGE,
     f"$.p: a {NEG_HUGE_BITS}-bit negative number is not prime"),
    (["limit-split"], '{"family":"stabilizing","n0":0}',
     "$.n0: expected a count from 1 to 1000"),
    (["limit-split"], '{"family":"stabilizing","p":4,"n0":0}', "$.p: 4 is not prime"),
    (["counterexample", "--p", "4"], "", "--p: 4 is not prime"),
    (["counterexample", "--depth", "0"], "", "--depth: expected a count from 1 to 32"),
    (["demo", "counterexample", "--p", "4"], "", "--p: 4 is not prime"),
    (["demo", "counterexample", "--depth", "0"], "", "--depth: expected a count from 1 to 32"),
    (["demo", "direct-limit", "--p", "4"], "", "--p: 4 is not prime"),
    (["demo", "chris", "--p", "4"], "", "--p: 4 is not prime"),
    (["tower-validate"], '{"p":"-%s","n":0,"levels":[],"maps":[]}' % HUGE,
     f"$.p: a {NEG_HUGE_BITS}-bit negative number is not prime"),
    *[(["limit-split"], json.dumps({"family": family, "case": case, "level": level}),
       "$.level: expected a count from 1 to 32")
      for family, case in (("divisible", 1), ("stabilizing", 2)) for level in (0, -1)],
    (["limit-split"], '{"family":"divisible","case":1,"precision":0}',
     "$.precision: expected a count from 1 to 1000"),
    (["limit-split", "--precision", "0"], '{"family":"divisible","case":1}',
     "--precision: expected a count from 1 to 1000"),
    (["tower-generate", "--sigma", '{"p":2,"r":1,"M":[[3]]}', "--n", "0"], "",
     "--n: expected a count from 1 to 1000"),
    (["tower-validate"], json.dumps(_tower_doc_with_p(4)), "$.p: 4 is not prime"),
    (["tower-split"], json.dumps(_tower_doc_with_p(4)), "$.p: 4 is not prime"),
    (["tower-generate", "--sigma", '{"p":4,"r":1,"M":[[3]]}'], "", "$.p: 4 is not prime"),
    (["dual"], json.dumps({"kind": "tower", "value": _tower_doc_with_p(4)}),
     "$.value.p: 4 is not prime"),
], ids=["p", "p-past-mr-bound", "p-too-long-to-print", "n0", "p-and-n0", "ce-p", "ce-depth",
        "demo-ce-p", "demo-ce-depth", "demo-limit-p", "demo-chris-p", "tower-p-too-long",
        "level-0-case-1", "level-minus-1-case-1", "level-0-case-2", "level-minus-1-case-2",
        "precision-0", "precision-flag-0", "tower-n-0", "tower-validate-p", "tower-split-p",
        "sigma-p", "dual-tower-p"])
def test_rejected_parameters_name_their_path(argv, doc, message):
    assert _error(run_cli(argv, doc, timeout=20))["message"] == message


HOSTILE = (HUGE, '"%s"' % HUGE, "-1", "0", "true", "null", "1.5", '"x"', "[]", "{}",
           str(10 ** 12), "[[1]]", str(2 ** 61 - 1))


def _paths(node, path=()):
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _fuzz_targets():
    """(name, argv, index of the document in argv or None for stdin, doc)."""
    from test_cli_golden import CASES

    out = []
    for name, (argv, stdin) in sorted(CASES.items()):
        text = stdin()
        if text:
            out.append((name, argv, None, json.loads(text)))
        elif "--sigma" in argv:
            i = argv.index("--sigma") + 1
            out.append((name, argv, i, json.loads(argv[i])))
    return out


FUZZ_TARGETS = _fuzz_targets()
_SLOT = "\x00hostile\x00"


def _replace(node, path, value):
    if not path:
        return value
    node = dict(node) if isinstance(node, dict) else list(node)
    node[path[0]] = _replace(node[path[0]], path[1:], value)
    return node


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.data())
def test_hostile_documents_keep_the_exit_code_contract(data):
    """One node of a pinned document replaced by a hostile value: main()
    must print one schema-1 document and exit 0, 1 or 2, never raise."""
    name, argv, slot, doc = data.draw(st.sampled_from(FUZZ_TARGETS))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(st.sampled_from(HOSTILE))
    text = json.dumps(_replace(doc, path, _SLOT)).replace(json.dumps(_SLOT), value)
    argv = list(argv)
    stdin = ""
    if slot is None:
        stdin = text
    else:
        argv[slot] = text
    code, out, err = run_main(argv, stdin)
    assert code in (0, 1, 2), (name, path, value)
    assert err == ""
    assert jsonio.loads_checked(out)["schema"] == 1


def _cyclic_hom(a: int, b: int, k: int) -> Homomorphism:
    """Multiplication by k from Z/a to Z/b."""
    return Homomorphism(FgAbGroup.cyclic(a), FgAbGroup.cyclic(b), IntMatrix.from_rows([[k]]))


# f and g as (a, b, k) for _cyclic_hom, failing the named condition first, and
# the group the witness lies in. Plain numbers, so no group outlives a test.
NOT_EXACT = {
    "mono": ((4, 4, 2), (4, 2, 1), "A"),
    "epi": ((2, 4, 2), (4, 4, 2), "C"),
    "complex": ((2, 4, 2), (4, 4, 1), "C"),
    "middle": ((2, 8, 4), (8, 2, 1), "B"),
}


def _violates(condition: str, f: Homomorphism, g: Homomorphism, w) -> bool:
    """Whether w shows that 0 -> A -f-> B -g-> C -> 0 fails ``condition``."""
    if condition == "mono":  # a nonzero element of A that f kills
        return bool(w) and not f(w)
    if condition == "epi":  # an element of C outside the image of g
        return g.target.solve(g.matrix, w.coords) is None
    if condition == "complex":  # a nonzero element of C in the image of g∘f
        return bool(w) and g.target.solve((g @ f).matrix, w.coords) is not None
    # an element of B that g kills, outside the image of f
    return not g(w) and f.target.solve(f.matrix, w.coords) is None


@pytest.mark.parametrize("verb", ["seq-check", "seq-split"])
@pytest.mark.parametrize("condition", sorted(NOT_EXACT))
def test_inexact_sequences_exit_one_with_a_witness_of_the_failed_condition(verb, condition):
    f, g, where = NOT_EXACT[condition]
    f, g = _cyclic_hom(*f), _cyclic_hom(*g)
    doc = jsonio.dumps(jsonio.document({"f": jsonio.encode_hom(f), "g": jsonio.encode_hom(g)}))
    res = run_cli([verb], doc)
    assert (res.returncode, res.stderr) == (1, "")
    out = json.loads(res.stdout)
    assert out["exact"] is False and out["split"] is False and out["condition"] == condition
    assert out.get("pure", False) is False
    group = {"A": f.source, "B": f.target, "C": g.target}[where]
    witness = group.element([jsonio.decode_int(c, "$") for c in out["witness"]["coords"]])
    assert _violates(condition, f, g, witness)
    assert not _violates(condition, f, g, group.zero)  # the check can say no


def test_dual_verb_on_a_hom_matches_the_library():
    from kummer.sequences import pontryagin_dual

    hom = Homomorphism(FgAbGroup.of_orders(2, 4), FgAbGroup.cyclic(8),
                       IntMatrix.from_rows([[4, 2]]))
    res = run_cli(["dual"], jsonio.dumps(jsonio.document(
        {"kind": "hom", "value": jsonio.encode_hom(hom)})))
    assert (res.returncode, res.stderr) == (0, "")
    out = json.loads(res.stdout)
    assert out["kind"] == "hom"
    assert out["value"] == json.loads(jsonio.dumps(jsonio.encode_hom(pontryagin_dual(hom))))


def test_tower_generate_reads_its_sigma_from_stdin():
    from test_cli_golden import SIGMA

    inline = run_cli(["tower-generate", "--sigma", SIGMA, "--n", "3"])
    piped = run_cli(["tower-generate", "--n", "3"], SIGMA)
    assert (inline.returncode, inline.stderr) == (0, "")
    assert (piped.stdout, piped.stderr, piped.returncode) == (
        inline.stdout, inline.stderr, inline.returncode)


def test_only_the_counterexample_demo_reads_depth():
    plain = run_cli(["demo", "chris"])
    deep = run_cli(["demo", "chris", "--depth", "99"])
    assert (plain.returncode, plain.stderr) == (0, "")
    assert (deep.stdout, deep.stderr, deep.returncode) == (
        plain.stdout, plain.stderr, plain.returncode)

"""Byte-level pins of the command line.

Each case runs one ``python -m kummer`` call and compares the sha256 of its
stdout and its exit code with values recorded from an earlier build. A
refactor that is meant to keep behaviour must keep every hash; a change
that alters output on purpose updates the affected entries here, and the
property tests at the end re-check what those entries print.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from kummer import jsonio
from kummer.cohomology import regular_extension_fixture, tate_model
from kummer.errors import PurityError
from kummer.fixtures import split_tower
from kummer.groups import FgAbGroup, Homomorphism
from kummer.matrices import IntMatrix
from kummer.sequences import check_exact, pure_witness
from kummer.towers import dual_tower

from builders import invalid_tower
from oracles import brute_same_order_lift


def _doc(payload) -> str:
    return jsonio.dumps(jsonio.document(payload))


def _exact(f_rows, g_rows, a, b, c):
    a, b, c = FgAbGroup.of_orders(*a), FgAbGroup.of_orders(*b), FgAbGroup.of_orders(*c)
    return check_exact(Homomorphism(a, b, IntMatrix.from_rows(f_rows)),
                       Homomorphism(b, c, IntMatrix.from_rows(g_rows)))


def _seq(f_rows, g_rows, a, b, c) -> dict:
    return jsonio.encode_seq(_exact(f_rows, g_rows, a, b, c))


IMPURE = ([[3], [0]], [[1, 0], [0, 1]], (3,), (9, 2), (3, 2))


def _module(m) -> dict:
    return {"group": jsonio.encode_group(m.group), "d": m.d,
            "sigma": jsonio.encode_matrix(m.sigma.matrix)}


def _gmod_split_doc() -> str:
    seq = regular_extension_fixture(3)
    return json.dumps({"schema": 1, "p": 3, "A": _module(seq.A), "B": _module(seq.B),
                       "C": _module(seq.C), "f": jsonio.encode_matrix(seq.f.hom.matrix),
                       "g": jsonio.encode_matrix(seq.g.hom.matrix)})


SIGMA = '{"p":3,"r":3,"M":[[1,3,0],[0,1,0],[2,0,4]]}'

CASES = {
    "snf": (["snf"], lambda: "[[2,4,4],[-6,6,12],[10,-4,-16]]"),
    "snf.bad-entry": (["snf"], lambda: '{"rows":1,"cols":2,"data":["1","x"]}'),
    "group": (["group"], lambda: _doc(jsonio.encode_group(FgAbGroup.of_orders(2, 12, 0)))),
    "seq-check.impure": (["seq-check"],
                         lambda: _doc(_seq([[2], [0]], [[1, 0], [0, 1]], (4,), (8, 3), (2, 3)))),
    "seq-check.pure": (["seq-check"],
                       lambda: _doc(_seq([[4]], [[1]], (3,), (12,), (4,)))),
    "seq-split.pure": (["seq-split"],
                       lambda: _doc(_seq([[4]], [[1]], (3,), (12,), (4,)))),
    "seq-split.impure": (["seq-split"], lambda: _doc(_seq(*IMPURE))),
    "tower-validate": (["tower-validate"],
                       lambda: _doc(jsonio.encode_tower(invalid_tower(2)))),
    "tower-split": (["tower-split"],
                    lambda: _doc(jsonio.encode_tower(split_tower(3, 3, "capped")))),
    "tower-split.down": (["tower-split"],
                         lambda: _doc(jsonio.encode_tower(dual_tower(split_tower(2, 3))))),
    "tower-generate": (["tower-generate", "--sigma", SIGMA, "--n", "3"], lambda: ""),
    "counterexample": (["counterexample", "--p", "3", "--depth", "4"], lambda: ""),
    "limit-split.stabilizing": (["limit-split"], lambda: json.dumps(
        {"family": "stabilizing", "p": 2, "case": 2, "level": 3})),
    "limit-split.divisible": (["limit-split"], lambda: json.dumps(
        {"family": "divisible", "p": 3, "case": 1, "level": 3})),
    "dual.seq": (["dual"], lambda: _doc(
        {"kind": "seq", "value": _seq([[4]], [[1]], (3,), (12,), (4,))})),
    "dual.tower-up": (["dual"], lambda: _doc(
        {"kind": "tower", "value": jsonio.encode_tower(split_tower(2, 3))})),
    "dual.tower-down": (["dual"], lambda: _doc(
        {"kind": "tower", "value": jsonio.encode_tower(dual_tower(split_tower(2, 3)))})),
    "gmod-cohomology": (["gmod-cohomology"], lambda: _doc(_module(tate_model(3)))),
    "gmod-split": (["gmod-split"], _gmod_split_doc),
    "demo.main-lemma": (["demo", "main-lemma"], lambda: ""),
    "demo.counterexample": (["demo", "counterexample"], lambda: ""),
    "demo.dual-lemma": (["demo", "dual-lemma"], lambda: ""),
    "demo.direct-limit": (["demo", "direct-limit"], lambda: ""),
    "demo.chris": (["demo", "chris"], lambda: ""),
}

# name -> (sha256 of stdout, exit code)
EXPECTED = {
    'counterexample': ('04342b4a6e947831692adcf532ecb0ddd76a03a26c186a2b7c994be5df5b9729', 0),
    'demo.chris': ('5060996d25d1f4d7be2a0d309ba612396d2c783fd3e618645f0a2afff461205d', 0),
    'demo.counterexample': ('94cae2595088367428740f4ed2b0fee7b47b1a5eb7b9ceaf5b91eb6eba48ae70', 0),
    'demo.direct-limit': ('91c472007dc4a8a39e414500d69508eb872b2e0176465339f1e35910ba5d6296', 0),
    'demo.dual-lemma': ('acae7a283f2c1c0ddee1f8c462bafc0a1f22119dc64781ad78b49b26d23029be', 0),
    'demo.main-lemma': ('131cbb7f0e8bdd71cf252b689ea5654657f77a2845821b8e1bd051e5ed495127', 0),
    'dual.seq': ('799d8e45c2db4464d7807dd6d8980829f973782240566df92a2732df7686f3b0', 0),
    'dual.tower-down': ('7e9596c2ffa21f99e42d2a3e4a59b1f092783a7a59cce3e8603fba820b478864', 0),
    'dual.tower-up': ('413d3b9a2259688460db23b23b8df152868e9fba7264aafc18e7f9abd44a3078', 0),
    'gmod-cohomology': ('fadca260c2ff5f0b48e1b8a635071aee2e4fb7d3618f44e115af5407ed263b4b', 0),
    'gmod-split': ('ddf0a7c26e130b05f239d6a50e655b3b8b919b17ef7c5e1bdc06b9611de747f1', 1),
    'group': ('d62c62d12089d9cb57be2c252daee06eb796e893d8526ba76279f49905af1f4d', 0),
    'limit-split.divisible': ('b16e71d709efd71a98792a6acfdc7573b7648d3be11d57940f08e6da74c53475', 0),
    'limit-split.stabilizing': ('869e175af5ceb9ce70b2978e9338fbcb5771b99f29fc6aefed1f81922fab8082', 0),
    'seq-check.impure': ('81c5199f58a7a8f860d03e2cd37ffe09bc31225950da6f6dad3ef71ab00774d4', 1),
    'seq-check.pure': ('270dad244c1da4754abce7fa43b26f036dce95dfec5604b7c4c9ee9fb17b0092', 0),
    'seq-split.impure': ('02be32324108b9243c573420fb9186806c0a66af950cc5ea6dadf6f71423c610', 1),
    'seq-split.pure': ('a5c939b661d0cf63f6396ac78ee8a0dac643c54838356cee37307ae497971511', 0),
    'snf': ('932a2a4f7b32ab7c3aa115ed98869cd305ce3faca015fcace9ccbe332af56d71', 0),
    'snf.bad-entry': ('376355118edb2d143ae53613c9aa90b8edc7a194c8080a8f3fc4e26c32223a40', 2),
    'tower-generate': ('550e58076e96684853a14e6c22b1e79b9fe0dae99ef65463e89f27497aaf9641', 0),
    'tower-split': ('26ba214b3d36a4edff1fefb728a927b41add870c15fd65196ced2461e65395a3', 0),
    'tower-split.down': ('207b668d96c12958c2e3b900675ec466745b6a11bc538441964292cfbdaa2aed', 0),
    'tower-validate': ('e8f9feae370b205ec28046e4083321deb8d835b6d94d1ab6d3e0492e13cce593', 1),
}


def run(name) -> subprocess.CompletedProcess:
    argv, stdin = CASES[name]
    return subprocess.run([sys.executable, "-m", "kummer", *argv], input=stdin(),
                          capture_output=True, text=True, timeout=120)


def digest(res) -> str:
    return hashlib.sha256(res.stdout.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_are_pinned(name):
    res = run(name)
    assert res.stderr == ""
    assert (digest(res), res.returncode) == EXPECTED[name]


def test_pinned_snf_is_a_smith_decomposition():
    out = json.loads(run("snf").stdout)
    mat = jsonio.decode_matrix(json.loads(CASES["snf"][1]()), "$")
    u, s, v, u_inv, v_inv = (jsonio.decode_matrix(out[k], k)
                             for k in ("u", "s", "v", "u_inv", "v_inv"))
    assert u @ mat @ v == s == IntMatrix.diagonal([2, 6, 12])
    assert u @ u_inv == v @ v_inv == IntMatrix.identity(3)
    assert out["diagonal"] == ["2", "6", "12"]


def test_pinned_impure_witness_has_no_same_order_lift():
    seq = _exact(*IMPURE)
    coords = json.loads(run("seq-split.impure").stdout)["witness"]["coords"]
    c = seq.C.element(tuple(int(x) for x in coords))
    assert not brute_same_order_lift(seq, c)
    with pytest.raises(PurityError):
        pure_witness(seq, c)


if __name__ == "__main__":
    # print the table for EXPECTED from the current build
    for case in sorted(CASES):
        res = run(case)
        print(f"    {case!r}: ({digest(res)!r}, {res.returncode}),")

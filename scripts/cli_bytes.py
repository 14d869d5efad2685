#!/usr/bin/env python3
"""Print one line per CLI document: argv, the sha256 of stdin, stdout and
stderr, and the exit code.

The CLI promises byte-identical output for the same input, so a change that
should not alter output is checked by running this on two source trees and
comparing the two listings:

    python scripts/cli_bytes.py > head.txt
    python scripts/cli_bytes.py --src ../base/src > base.txt
    diff base.txt head.txt

Every document is run as ``python -m kummer`` in a child process whose
PYTHONPATH is the given source tree. The documents are generated here, so
both trees see the same inputs:

- the benchmark's ``cli`` workload documents for seeds 1-8 (both variants
  of each) and seed 1's two 5,000-digit documents;
- each of their ``tower-generate`` sigma models read from stdin instead of
  ``--sigma``;
- the Pontryagin dual of each upward tower among them, a downward tower,
  for ``tower-validate`` and ``tower-split``;
- every demo with its --seed, --p and --depth variants;
- ``limit-split`` for 3 families x 2 cases x p in {2, 3, 5} x level in
  {1, 2, 3, 8}, and for the counterexample family, case 1, level 32 at
  p = 2^61 - 1 and at the largest prime ``arith.is_prime`` accepts
  (3317044064679887385961813, 82 bits);
- ``limit-split`` for the divisible family, case 1, p in {2, 3, 5} x level
  in {1, 2, 3, 8}, with the evidence precision level - 1 (when positive,
  refused by the window check), level, level + 1 and level + 5, given once
  as ``$.precision`` and once as ``--precision``;
- ``counterexample`` for p in {2, 3, 5, 7} x depth in {2, 4, 8};
- ``gmod-split`` for 0 -> A -> A + C -> C -> 0 with the middle module
  written in a random basis, for every ordered pair of small regular,
  mod-q, Tate and sign modules over C_2 and over C_3. Each splits
  equivariantly, so its output carries a section;
- ``seq-check`` and ``seq-split`` for four pairs of maps between cyclic
  groups, each failing one exactness condition first (mono, epi, complex,
  middle), so each exits 1 with a witness;
- ``seq-check`` and ``seq-split`` for two sequences with the infinite middle
  group Z: 0 -> Z -x2-> Z -> Z/2 -> 0 (exit 1, witness ["1"]) and
  Z -> Z + Z/2 -> Z/2 (exit 0, with a section);
- ``tower-validate`` and ``tower-split`` on a tower whose top C is
  Z/2 + Z/8, so one generator is lifted from below the top level, and on
  its dual;
- ``dual`` of a homomorphism Z/2 + Z/4 -> Z/8.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from kummer import jsonio  # noqa: E402
from kummer.cohomology import (  # noqa: E402
    CyclicGroupModule,
    reduce_mod_p,
    regular_module,
    tate_model,
)
from kummer.groups import FgAbGroup, Homomorphism  # noqa: E402
from kummer.matrices import IntMatrix, block_diag, hstack, vstack  # noqa: E402
from kummer.sequences import check_exact, split_sequence  # noqa: E402
from kummer.towers import KummerTower, LevelMaps, dual_tower  # noqa: E402
from perfbench import workloads  # noqa: E402


def downward(text: str) -> str:
    """The dual of an upward tower document, as a document. It is built by
    this tree's library, so every source tree is run on the same input."""
    tower = dual_tower(jsonio.decode_tower(json.loads(text)))
    return jsonio.dumps(jsonio.document(jsonio.encode_tower(tower)))


# (a, b, k) for multiplication by k from Z/a to Z/b: the maps f and g of a
# pair failing mono (f kills 2), epi (g misses 1), complex (g∘f = 2) and
# middle (g kills 2, which f misses)
INEXACT = (((4, 4, 2), (4, 2, 1)), ((2, 4, 2), (4, 4, 2)),
           ((2, 4, 2), (4, 4, 1)), ((2, 8, 4), (8, 2, 1)))


# 2^61 - 1 and the largest prime arith.is_prime accepts
BIG_PRIMES = (2 ** 61 - 1, 3317044064679887385961813)


def mixed_top_tower() -> str:
    """Levels 0 -> Z/2 -> Z/2 + (Z/2 + Z/2^k) -> Z/2 + Z/2^k -> 0 for
    k = 1..3 with alpha = id and gamma = diag(1, 2), as a document."""
    seqs = [split_sequence(FgAbGroup.cyclic(2), FgAbGroup.of_orders(2, 2 ** k))
            for k in (1, 2, 3)]
    maps = []
    for lo, hi in zip(seqs, seqs[1:]):
        alpha = Homomorphism(lo.A, hi.A, IntMatrix.identity(1))
        gamma = Homomorphism(lo.C, hi.C, IntMatrix.from_rows([[1, 0], [0, 2]]))
        maps.append(LevelMaps(alpha=alpha, gamma=gamma, beta=Homomorphism(
            lo.B, hi.B, block_diag(alpha.matrix, gamma.matrix))))
    tower = KummerTower(2, tuple(seqs), tuple(maps))
    return jsonio.dumps(jsonio.document(jsonio.encode_tower(tower)))


def cyclic_hom(a: int, b: int, k: int) -> dict:
    """Multiplication by k from Z/a to Z/b, as a document."""
    return jsonio.encode_hom(Homomorphism(FgAbGroup.cyclic(a), FgAbGroup.cyclic(b),
                                          IntMatrix.from_rows([[k]])))


def _module_doc(m: CyclicGroupModule) -> dict:
    return {"d": m.d, "group": jsonio.encode_group(m.group),
            "sigma": jsonio.encode_matrix(m.sigma.matrix)}


def mixed_sum(a: CyclicGroupModule, c: CyclicGroupModule, rng: random.Random) -> str:
    """0 -> A -> A + C -> C -> 0 as a document, with the middle module in
    the basis of a random unimodular U: relations U R, action U s U^-1,
    f = U [I; 0] and g = [0 I] U^-1."""
    na, nc = a.group.generator_count, c.group.generator_count
    n = na + nc
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]  # row i += k row j
        for row in u_inv:  # column j -= k column i
            row[j] -= k * row[i]
    u, u_inv = IntMatrix.from_rows(u), IntMatrix.from_rows(u_inv)
    grp = FgAbGroup(n, u @ block_diag(a.group.relations, c.group.relations))
    b = CyclicGroupModule(a.d, grp, Homomorphism(
        grp, grp, u @ block_diag(a.sigma.matrix, c.sigma.matrix) @ u_inv))
    f = u @ vstack(IntMatrix.identity(na), IntMatrix.zeros(nc, na))
    g = hstack(IntMatrix.zeros(nc, na), IntMatrix.identity(nc)) @ u_inv
    doc = {"A": _module_doc(a), "B": _module_doc(b), "C": _module_doc(c),
           "f": jsonio.encode_matrix(f), "g": jsonio.encode_matrix(g)}
    jsonio.decode_gmodule_seq(doc)  # the document is a valid sequence
    return jsonio.dumps(jsonio.document(doc))


def split_modules() -> list[str]:
    z = FgAbGroup.free(1)
    sign = CyclicGroupModule(2, z, Homomorphism(z, z, IntMatrix.from_rows([[-1]])))
    families = {
        2: [regular_module(2), reduce_mod_p(regular_module(2), 2),
            reduce_mod_p(regular_module(2), 3), tate_model(2),
            reduce_mod_p(tate_model(2), 2), sign],
        3: [regular_module(3), reduce_mod_p(regular_module(3), 3),
            reduce_mod_p(regular_module(3), 2), tate_model(3),
            reduce_mod_p(tate_model(3), 3)],
    }
    rng = random.Random(13)
    return [mixed_sum(a, c, rng) for d in sorted(families)
            for a, c in itertools.product(families[d], repeat=2)]


def documents() -> list[tuple[list[str], str]]:
    """(argv, stdin) pairs in a fixed order, with repeats dropped."""
    docs = []
    for seed in range(1, 9):
        cli = workloads.Cli(seed)
        ops = [op for variant in cli.variants for op in variant]
        if seed == 1:
            ops += cli.big
        docs += [(list(argv), text) for argv, text in (op.data for op in ops)]
        towers = [text for argv, text in (op.data for op in ops) if argv == ["tower-split"]]
        docs += [([verb], downward(text)) for text in towers
                 for verb in ("tower-validate", "tower-split")]
        for argv, _ in (op.data for op in ops):
            if "--sigma" in argv:  # the same sigma model, read from stdin
                i = argv.index("--sigma")
                docs.append((argv[:i] + argv[i + 2:], argv[i + 1]))
    for seed in (None, 1, 2, 3):
        for name in ("main-lemma", "dual-lemma"):
            docs.append((["demo", name] + ([] if seed is None else ["--seed", str(seed)]), ""))
    for p in (None, 2, 3, 5, 7):
        flag = [] if p is None else ["--p", str(p)]
        docs += [(["demo", name, *flag], "") for name in ("counterexample", "direct-limit", "chris")]
    docs += [(["demo", "counterexample", "--depth", str(d)], "") for d in (2, 8)]
    for family in ("stabilizing", "divisible", "counterexample"):
        for case in (1, 2):
            for p in (2, 3, 5):
                for level in (1, 2, 3, 8):
                    doc = {"family": family, "case": case, "p": p, "level": level}
                    docs.append((["limit-split"], json.dumps(doc, sort_keys=True)))
    for p in (2, 3, 5):
        for level in (1, 2, 3, 8):
            doc = {"family": "divisible", "case": 1, "p": p, "level": level}
            for precision in (level - 1, level, level + 1, level + 5):
                if precision < 1:
                    continue
                docs.append((["limit-split"],
                             json.dumps(dict(doc, precision=precision), sort_keys=True)))
                docs.append((["limit-split", "--precision", str(precision)],
                             json.dumps(doc, sort_keys=True)))
    for p in BIG_PRIMES:
        doc = {"family": "counterexample", "case": 1, "p": p, "level": 32}
        docs.append((["limit-split"], json.dumps(doc, sort_keys=True)))
    docs += [(["counterexample", "--p", str(p), "--depth", str(d)], "")
             for p in (2, 3, 5, 7) for d in (2, 4, 8)]
    docs += [(["gmod-split"], text) for text in split_modules()]
    for f, g in INEXACT:
        text = jsonio.dumps(jsonio.document({"f": cyclic_hom(*f), "g": cyclic_hom(*g)}))
        docs += [([verb], text) for verb in ("seq-check", "seq-split")]
    z, z2 = FgAbGroup.free(1), FgAbGroup.cyclic(2)
    twice = check_exact(Homomorphism(z, z, IntMatrix.from_rows([[2]])),
                        Homomorphism(z, z2, IntMatrix.from_rows([[1]])))
    for seq in (twice, split_sequence(z, z2)):
        text = jsonio.dumps(jsonio.document(jsonio.encode_seq(seq)))
        docs += [([verb], text) for verb in ("seq-check", "seq-split")]
    mixed = mixed_top_tower()
    docs += [([verb], text) for text in (mixed, downward(mixed))
             for verb in ("tower-validate", "tower-split")]
    hom = Homomorphism(FgAbGroup.of_orders(2, 4), FgAbGroup.cyclic(8),
                       IntMatrix.from_rows([[4, 2]]))
    docs.append((["dual"], jsonio.dumps(jsonio.document(
        {"kind": "hom", "value": jsonio.encode_hom(hom)}))))
    unique = dict.fromkeys((tuple(argv), stdin) for argv, stdin in docs)
    return [(list(argv), stdin) for argv, stdin in unique]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree whose kummer package is run (default: this one)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    for cli_argv, stdin in documents():
        proc = subprocess.run([sys.executable, "-m", "kummer", *cli_argv], input=stdin,
                              capture_output=True, text=True, env=env, cwd=src.parent,
                              timeout=300)
        print(json.dumps(cli_argv), sha(stdin), sha(proc.stdout), sha(proc.stderr),
              proc.returncode, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

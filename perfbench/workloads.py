"""The three workloads: seeded rounds of operations with property checks.

A workload draws its inputs (plain integers and JSON text, see
``inputs``) round by round from one ``random.Random(seed)`` stream. An
operation builds its library objects inside ``run`` and returns what the
library returned; ``check`` then decides by property, never by stored
bytes, whether that output is right. Checks run outside the timed part.

Rounds are the unit of composition: every round holds the same mix of
operation kinds and sizes, so runs that complete different numbers of
rounds still measure the same mix.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

from . import inputs as gen

ROOT = Path(__file__).resolve().parent.parent
TRACE_MARK = "@@perfbench-trace "


@dataclass
class Context:
    """Per-run state shared by the operations of one run."""

    tracer: Any = None
    cli_outputs: dict = field(default_factory=dict)

    def spawn(self, argv: list[str], stdin: str):
        """Run the CLI once in a child process and wait for it."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if self.tracer is None:
            cmd = [sys.executable, "-m", "kummer", *argv]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "launcher.py"), *argv]
            sid = self.tracer.open("cli.process")
        try:
            proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                                  env=env, cwd=ROOT, timeout=120)
        except BaseException:
            if self.tracer is not None:
                self.tracer.close(sid, error=True)
            raise
        stderr = proc.stderr
        if self.tracer is not None:
            t0 = perf_counter_ns()
            head, sep, tail = stderr.rpartition(TRACE_MARK)
            child_hidden = 0
            if sep:
                stderr = head
                report = json.loads(tail)
                # both processes read the same monotonic clock
                self.tracer.graft(sid, report["names"], report["spans"],
                                  shift=-self.tracer.hidden)
                self.tracer.snf_inputs.update(report["snf_inputs"])
                child_hidden = report["hidden"]
            self.tracer.close(sid, error=not sep,
                              extra_hidden=child_hidden + perf_counter_ns() - t0)
        return proc.returncode, proc.stdout, stderr


class CheckFailed(Exception):
    """An output that failed its check, with the reason."""


@dataclass
class Op:
    """One operation: ``data`` is the plain input it was generated from."""

    kind: str
    tag: str
    data: Any
    run: Callable[[Context], Any]
    check: Callable[[Context, Any], bool]


def _mat(m):
    from kummer import IntMatrix
    return IntMatrix(*m)


def _trip(m):
    return (m.rows, m.cols, tuple(m.data))


def _section_ok(section) -> bool:
    return section is not None and (section.seq.g @ section.s).is_identity()


# ---------------------------------------------------------------------------
# kernel-ladder
# ---------------------------------------------------------------------------


SNF_PARTS = ("U", "S", "V", "U_inv", "V_inv")


def _snf_ok(m, parts) -> bool:
    """U M V = S, U U_inv = I, V V_inv = I, S a non-negative divisibility chain."""
    r, c, _ = m
    u, s, v = parts["U"], parts["S"], parts["V"]
    if gen.matmul(gen.matmul(u, m), v) != s:
        return False
    if (gen.matmul(u, parts["U_inv"]) != gen.identity(r)
            or gen.matmul(v, parts["V_inv"]) != gen.identity(c)):
        return False
    diag = [s[2][i * c + i] for i in range(min(r, c))]
    if any(x for k, x in enumerate(s[2]) if k // c != k % c) or any(d < 0 for d in diag):
        return False
    return all((b == 0) if a == 0 else (b % a == 0) for a, b in zip(diag, diag[1:]))


def _snf_op(kind, tag, m):
    def run(ctx):
        from kummer import smith_normal_form
        return smith_normal_form(_mat(m))
    return Op(kind, tag, m, run,
              lambda ctx, dec: _snf_ok(m, {k: _trip(getattr(dec, k)) for k in SNF_PARTS}))


def _hnf_op(n, m):
    def run(ctx):
        from kummer import hermite_column_form
        return hermite_column_form(_mat(m))

    def check(ctx, form):
        from kummer import hermite_column_form
        if any(any(form.reduce(gen.column(m, j))) for j in range(m[1])):
            return False
        return hermite_column_form(form.matrix).matrix == form.matrix
    return Op("hnf", f"hnf.n{n}", m, run, check)


def _integer_solve_op(n, m, b, feasible):
    def run(ctx):
        from kummer import solve_integer_system
        return solve_integer_system(_mat(m), b)

    def check(ctx, x):
        return gen.matvec(m, x) == tuple(b) if feasible else x is None
    return Op("solve.integer", f"solve.integer.n{n}", (m, b, feasible), run, check)


def _modular_solve_op(n, m, b, modulus, feasible):
    def run(ctx):
        from kummer.matrices import solve_modular
        return solve_modular(_mat(m), b, modulus)

    def check(ctx, x):
        if not feasible:
            return x is None
        return x is not None and all((y - z) % modulus == 0
                                     for y, z in zip(gen.matvec(m, x), b))
    return Op("solve.modular", f"solve.modular.n{n}", (m, b, modulus, feasible), run,
              check)


def _equation_system_op(rng, shape, modulus):
    a, b, c = shape
    left, right = gen.random_matrix(rng, c, a, 3), gen.random_matrix(rng, b, c, 3)
    left2 = gen.random_matrix(rng, c, 2, 3)
    x0, y0 = gen.random_matrix(rng, a, b, 5), gen.random_matrix(rng, 2, c, 5)
    lhs = lambda x, y: tuple(  # noqa: E731
        p + q for p, q in zip(gen.matmul(gen.matmul(left, x), right)[2],
                              gen.matmul(left2, y)[2]))
    rhs = (c, c, lhs(x0, y0))

    def run(ctx):
        from kummer import MatrixEquationSystem
        system = MatrixEquationSystem()
        system.add_unknown("X", a, b)
        system.add_unknown("Y", 2, c)
        system.add_equation([(_mat(left), "X", _mat(right)), (_mat(left2), "Y", None)],
                            _mat(rhs))
        return system.solve(mod=modulus)

    def check(ctx, sol):
        if sol is None:
            return False
        got = lhs(_trip(sol["X"]), _trip(sol["Y"]))
        m = modulus or 0
        return all((g - w) % m == 0 if m else g == w for g, w in zip(got, rhs[2]))
    return Op("solve.mes", f"solve.mes.{'mod' if modulus else 'int'}",
              (left, right, left2, rhs, modulus), run, check)


def kernel_round(rng) -> list[Op]:
    # Sizes stop where single inputs start to take seconds: about one 10 x 10
    # matrix in a thousand takes 2-3.6 s (a 10 x 12 took 8.6 s), an 8 x 8
    # rank-6 product up to 4.4 s, and so would one run's throughput.
    ops = []
    for n in range(4, 10):
        for _ in range(2):
            ops.append(_snf_op("snf.square", f"snf.n{n}", gen.random_matrix(rng, n, n)))
            ops.append(_snf_op("snf.wide", f"snf.wide.n{n}", gen.random_matrix(rng, n, n + 2)))
    for n in (5, 6, 7):  # rank n-2 products
        m = gen.matmul(gen.random_matrix(rng, n, n - 2), gen.random_matrix(rng, n - 2, n))
        ops.append(_snf_op("snf.deficient", f"snf.deficient.n{n}", m))
    for n in (16, 24, 32):
        ops.append(_hnf_op(n, gen.random_matrix(rng, n, n)))
    for n in (4, 6, 8):
        feasible = rng.random() < 0.5
        m, b = gen.planted_diagonal_system(rng, n, None, feasible)
        ops.append(_integer_solve_op(n, m, b, feasible))
    for n in (8, 16, 24):
        feasible = rng.random() < 0.5
        modulus = rng.choice((36, 60, 360))
        m, b = gen.planted_diagonal_system(rng, n, modulus, feasible)
        ops.append(_modular_solve_op(n, m, b, modulus, feasible))
    # over Z the 9 x 15 system of shape (3, 3, 3) can take 10 s; (2, 3, 2) is 4 x 10
    ops.append(_equation_system_op(rng, (2, 3, 2), None))
    ops.append(_equation_system_op(rng, (3, 4, 3), 360))
    return ops


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _counterexample_op(depth):
    def run(ctx):
        from kummer import counterexample_tower, limit_no_section_certificate
        return limit_no_section_certificate(counterexample_tower(2), depth)
    return Op("counterexample", f"counterexample.d{depth}", depth, run,
              lambda ctx, cert: cert.valid and cert.depth == depth)


def _chris_op(p):
    def run(ctx):
        from kummer import chris_verify
        return chris_verify(p)
    return Op("chris", f"chris.p{p}", p, run, lambda ctx, rep: rep.valid and rep.p == p)


def _sigma_op(p, r, m, n):
    def run(ctx):
        from kummer import (SigmaModel, dual_tower, dual_tower_split,
                            sigma_kummer_tower, tower_split, validate_tower)
        tower = sigma_kummer_tower(SigmaModel(p, r, _mat(m)), n)
        report = validate_tower(tower)
        return tower, report, tower_split(tower), dual_tower_split(dual_tower(tower))

    def check(ctx, out):
        tower, report, up, down = out
        return (report.valid and tower.n == n and up.seq == tower.top
                and _section_ok(up) and _section_ok(down))
    return Op("sigma", f"sigma.n{n}", (p, r, m, n), run, check)


def _limit_op(family, p, level):
    def run(ctx):
        from kummer import (CaseTwoEvidence, direct_limit_split, divisible_tower,
                            stabilizing_tower)
        if family == "stabilizing":
            return direct_limit_split(stabilizing_tower(p, level), CaseTwoEvidence(level=level))
        tower = divisible_tower(p)
        return direct_limit_split(tower, _divisible_evidence(tower, level))

    def check(ctx, result):
        return result.case == (2 if family == "stabilizing" else 1) and _section_ok(result.section)
    return Op("limit", f"limit.{family}", (family, p, level), run, check)


def _divisible_evidence(tower, level):
    """Evidence that A_k = Z/p^k is the k-th layer of one divisible summand."""
    from kummer import FgAbGroup, Homomorphism, IntMatrix
    from kummer.colimits import CaseOneEvidence
    p, prec = tower.p, level + 2
    d_group, trivial = FgAbGroup(1, IntMatrix(1, 1, (p ** prec,))), FgAbGroup.trivial()
    pi_d, pi_m = [], []
    for k in range(1, level + 1):
        a_k = tower.sequence(k).A
        pi_d.append(Homomorphism(a_k, d_group, IntMatrix(1, 1, (p ** (prec - k),))))
        pi_m.append(Homomorphism(a_k, trivial, IntMatrix(0, a_k.generator_count, ())))
    return CaseOneEvidence(level=level, divisible_rank=1, precision=prec, m_group=trivial,
                           pi_divisible=tuple(pi_d), pi_bounded=tuple(pi_m))


def _sequence_section_ok(spec, s) -> bool:
    """g s = 1 on C and s well defined, by divisibility after unmixing."""
    nc = spec.c_rel[0]
    gs = gen.matmul(spec.g, s)
    ident = gen.identity(nc)
    diff = (nc, nc, tuple(x - y for x, y in zip(gs[2], ident[2])))
    sr = gen.matmul(s, spec.c_rel)
    return (all(gen.in_lattice(spec.c_inv, spec.c_orders, gen.column(diff, j))
                for j in range(nc))
            and all(gen.in_lattice(spec.b_inv, spec.b_orders, gen.column(sr, j))
                    for j in range(sr[1])))


def _sequence_op(spec):
    def run(ctx):
        from kummer import (FgAbGroup, Homomorphism, check_exact, is_pure,
                            section_exists)
        a, b, c = (FgAbGroup(rel[0], _mat(rel)) for rel in (spec.a_rel, spec.b_rel, spec.c_rel))
        seq = check_exact(Homomorphism(a, b, _mat(spec.f)), Homomorphism(b, c, _mat(spec.g)))
        return is_pure(seq).pure, section_exists(seq)

    def check(ctx, out):
        pure, section = out
        if pure != spec.pure or (section is not None) != spec.pure:
            return False
        return section is None or _sequence_section_ok(spec, _trip(section.s.matrix))
    return Op("sequence", "sequence.pure" if spec.pure else "sequence.impure", spec, run,
              check)


def certify_round(rng) -> list[Op]:
    ops = [_counterexample_op(d) for d in (4, 8, 12)]
    ops += [_chris_op(p) for p in (3, 5, 7, 11, 13)]
    for p in (2, 3, 5):
        for n in (2, 4, 6):
            r, m = gen.random_sigma_matrix(rng, p)
            ops.append(_sigma_op(p, r, m, n))
    ops.append(_limit_op("stabilizing", rng.choice((2, 3)), rng.randint(1, 3)))
    ops.append(_limit_op("stabilizing", rng.choice((2, 3, 5)), rng.randint(1, 3)))
    ops.append(_limit_op("divisible", rng.choice((2, 3)), rng.randint(2, 3)))
    ops.append(_limit_op("divisible", rng.choice((2, 3, 5)), rng.randint(2, 3)))
    ops += [_sequence_op(gen.random_sequence(rng, pure=i % 2 == 0)) for i in range(40)]
    return ops


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

BIG_PRIME = 1_000_000_000_039


def _cli_op(name, argv, doc, expect_code, payload_ok):
    text = doc if isinstance(doc, str) else gen.dumps({"schema": 1, **doc})

    def run(ctx):
        return ctx.spawn(argv, text)

    def check(ctx, out):
        code, stdout, stderr = out
        if code != expect_code or stderr.strip():
            last = stderr.strip().splitlines()[-1:] or [""]
            raise CheckFailed(f"exit {code}, expected {expect_code}; stderr: {last[0][:200]}")
        try:
            payload = json.loads(stdout)
        except ValueError:
            raise CheckFailed("stdout is not exactly one JSON document") from None
        if not isinstance(payload, dict) or payload.get("schema") != 1:
            raise CheckFailed('stdout is not a document with "schema": 1')
        key = (tuple(argv), text)
        if ctx.cli_outputs.setdefault(key, stdout) != stdout:
            raise CheckFailed("output bytes differ from this document's earlier output")
        return payload_ok(payload)
    return Op(f"cli.{name}", f"cli.{name}", (argv, text), run, check)


def _ints(values):
    return [int(x) for x in values]


def _snf_payload_ok(m):
    def ok(payload):
        parts = {k: payload[k.lower()] for k in SNF_PARTS}
        return _snf_ok(m, {k: (v["rows"], v["cols"], tuple(_ints(v["data"])))
                           for k, v in parts.items()})
    return ok


def _tower_section_ok(spec_g, p, levels):
    def ok(payload):
        sec = payload["section"]["matrix"]
        s = (sec["rows"], sec["cols"], tuple(_ints(sec["data"])))
        gs = gen.matmul(spec_g, s)
        ident = gen.identity(gs[0])
        return (payload["split"] is True and payload["level"] == levels
                and all((x - y) % p ** levels == 0 for x, y in zip(gs[2], ident[2])))
    return ok


class CliDocs:
    """One variant of every generated CLI input document."""

    def __init__(self, rng):
        self.snf3 = gen.random_matrix(rng, 3, 3)
        self.snf8 = gen.random_matrix(rng, 8, 8)
        self.group = gen.random_chain_group(rng)
        self.finite_group = gen.random_chain_group(rng, max_free=0)
        self.pure = gen.random_sequence(rng, pure=True)
        self.impure = gen.random_sequence(rng, pure=False)
        self.sigma_p = rng.choice((2, 3, 5))
        self.sigma = gen.random_sigma_matrix(rng, self.sigma_p)
        self.big_sigma = rng.randint(2, 9)
        self.tower, self.tower_p, self.tower_g = gen.tower_doc(rng, 6)
        self.limit = (rng.choice(("stabilizing", "divisible")), rng.choice((2, 3)))
        self.module = gen.gmodule_doc(rng)
        self.split_p = rng.choice((3, 5))
        self.aug_p = rng.choice((3, 5))


def cli_ops(d: CliDocs) -> list[Op]:
    gens, rel, chain, free = d.group
    group_doc = gen.enc_group(gens, rel)
    seq_pure, seq_impure = gen.seq_doc(d.pure), gen.seq_doc(d.impure)
    r, m = d.sigma
    sigma_arg = gen.dumps({"p": d.sigma_p, "r": r, "M": [list(m[2][i * r:(i + 1) * r])
                                                          for i in range(r)]})
    big_arg = gen.dumps({"p": BIG_PRIME, "r": 1, "M": [[d.big_sigma]]})
    family, lp = d.limit
    limit_doc = ({"family": family, "p": lp, "case": 2, "level": 2} if family == "stabilizing"
                 else {"family": family, "p": lp, "case": 1, "level": 2})
    tower_ok = lambda p, n: lambda out: (out["p"] == p and out["n"] == n  # noqa: E731
                                         and len(out["levels"]) == n
                                         and out["direction"] == "up")
    kind_ok = lambda kind: lambda out: out["kind"] == kind and "value" in out  # noqa: E731
    return [
        _cli_op("snf3", ["snf"], gen.enc_matrix(d.snf3), 0, _snf_payload_ok(d.snf3)),
        _cli_op("snf8", ["snf"], gen.enc_matrix(d.snf8), 0, _snf_payload_ok(d.snf8)),
        _cli_op("group", ["group"], group_doc, 0,
                lambda out: (_ints(out["invariant_factors"]) == list(chain)
                             and out["free_rank"] == free)),
        _cli_op("seq-check.pure", ["seq-check"], seq_pure, 0,
                lambda out: out["pure"] is True and out["split"] is True and "section" in out),
        _cli_op("seq-check.impure", ["seq-check"], seq_impure, 1,
                lambda out: out["exact"] is True and out["pure"] is False
                and out["split"] is False and "witness" in out),
        _cli_op("seq-split.pure", ["seq-split"], seq_pure, 0,
                lambda out: out["split"] is True and "section" in out),
        _cli_op("seq-split.impure", ["seq-split"], seq_impure, 1,
                lambda out: out["split"] is False and "witness" in out),
        _cli_op("tower-generate", ["tower-generate", "--sigma", sigma_arg, "--n", "3"], "", 0,
                tower_ok(d.sigma_p, 3)),
        _cli_op("tower-generate.big-p", ["tower-generate", "--sigma", big_arg, "--n", "2"],
                "", 0, tower_ok(BIG_PRIME, 2)),
        _cli_op("tower-validate", ["tower-validate"], d.tower, 0,
                lambda out: out["valid"] is True and out["levels"] == 6
                and out["violations"] == []),
        _cli_op("tower-split", ["tower-split"], d.tower, 0,
                _tower_section_ok(d.tower_g, d.tower_p, 6)),
        _cli_op("counterexample", ["counterexample", "--depth", "4"], "", 0,
                lambda out: out["valid"] is True and out["depth"] == 4),
        _cli_op("limit-split", ["limit-split"], limit_doc, 0,
                lambda out: out["family"] == family and "section" in out),
        _cli_op("dual.group", ["dual"],
                {"kind": "group", "value": gen.enc_group(*d.finite_group[:2])}, 0,
                kind_ok("group")),
        _cli_op("dual.hom", ["dual"], {"kind": "hom", "value": seq_pure["f"]}, 0,
                kind_ok("hom")),
        _cli_op("dual.seq", ["dual"], {"kind": "seq", "value": seq_pure}, 0, kind_ok("seq")),
        _cli_op("dual.tower", ["dual"], {"kind": "tower", "value": d.tower}, 0,
                lambda out: out["kind"] == "tower" and out["value"]["direction"] == "down"),
        _cli_op("gmod-cohomology", ["gmod-cohomology"], d.module, 0,
                lambda out: out["trivial"] is True),
        _cli_op("gmod-split.split", ["gmod-split"], gen.gmodule_split_doc(d.split_p), 0,
                lambda out: out["equivariant"] is True and out["plain"] is True),
        _cli_op("gmod-split.augmentation", ["gmod-split"],
                gen.gmodule_augmentation_doc(d.aug_p), 1,
                lambda out: out["equivariant"] is False and out["plain"] is True),
        _cli_op("demo-chris", ["demo", "chris", "--p", "3"], "", 0,
                lambda out: out["valid"] is True and out["p"] == 3),
    ]


def big_integer_ops(rng) -> list[Op]:
    """Documents carrying a 5,000-digit integer, which the wire format
    promises to accept; they are expected to exit 0."""
    n = gen.big_integer(rng, 5000)
    group = {"generators": 1, "relations": {"rows": 1, "cols": 1, "data": [n]}}
    snf = {"rows": 2, "cols": 2, "data": [n, "0", "0", "1"]}
    return [
        _cli_op("group.bigint", ["group"], group, 0,
                lambda out: out["invariant_factors"] == [n]),
        _cli_op("snf.bigint", ["snf"], snf, 0, lambda out: out["diagonal"] == ["1", n]),
    ]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Rounds drawn in order from one seeded stream.

    The first ``prefetch`` rounds are generated at set-up. Later rounds are
    drawn between operations, untimed, from the same stream and are not
    kept, so every round is fresh, memory does not grow with run length,
    and the inputs of round i depend only on the seed.
    """

    name: str
    prefetch: int

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.rounds = [self.make_round() for _ in range(self.prefetch)]
        self.drawn = self.prefetch

    def round(self, i: int) -> list[Op]:
        if i < self.prefetch:
            return self.rounds[i]
        if i != self.drawn:
            raise ValueError(f"rounds past set-up are drawn in order: asked {i}, "
                             f"next is {self.drawn}")
        self.drawn += 1
        return self.make_round()

    def make_round(self) -> list[Op]:
        raise NotImplementedError


class KernelLadder(Workload):
    name = "kernel-ladder"
    prefetch = 10

    def make_round(self):
        return kernel_round(self.rng)


class Certify(Workload):
    name = "certify"
    prefetch = 4

    def make_round(self):
        return certify_round(self.rng)


class Cli(Workload):
    """Two variants of every document, alternating by round, so each
    output can be compared with the same document's earlier output."""

    name = "cli"
    prefetch = 0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.variants = [cli_ops(CliDocs(self.rng)) for _ in range(2)]
        self.big = big_integer_ops(self.rng)

    def round(self, i):
        return self.variants[i % len(self.variants)]


WORKLOADS = {w.name: w for w in (KernelLadder, Certify, Cli)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


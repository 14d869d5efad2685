"""Self-tests of the benchmark: tracer wiring, failure counting, seeding and
the self-time identity. Run with ``python -m pytest perfbench/tests``."""

import dataclasses
import importlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run, workloads  # noqa: E402
from perfbench.tracer import LAYERS, Tracer, summarize  # noqa: E402

# every layer module loaded, so the tracer has all of them to wrap
for _layer in LAYERS:
    importlib.import_module(f"kummer.{_layer}")


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "kummer" or name.startswith("kummer.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    from kummer.groups import Homomorphism
    from kummer.matrices import MatrixEquationSystem
    out["Homomorphism.__post_init__"] = vars(Homomorphism)["__post_init__"]
    out["MatrixEquationSystem.solve"] = vars(MatrixEquationSystem)["solve"]
    return out


def test_tracer_rebinds_every_import_and_restores_it():
    before = _bindings()
    tracer = Tracer()
    wrapped = tracer.install()
    try:
        during = _bindings()
        wrappers = [w for _, w in tracer.replaced.values()]
        assert len(wrappers) == len(wrapped)
        assert "matrices.smith_normal_form" in wrapped
        assert "groups.Homomorphism.__post_init__" in wrapped
        assert "cli.main" in wrapped and "jsonio.decode_matrix" in wrapped
        stale = [key for key, value in during.items() if id(value) in tracer.replaced]
        assert stale == [], f"still bound to unwrapped functions: {stale}"
        # a name imported by another module is the wrapper there too
        import kummer.groups
        import kummer.matrices
        assert kummer.groups.smith_normal_form is kummer.matrices.smith_normal_form
        assert kummer.groups.smith_normal_form in wrappers
        assert during["Homomorphism.__post_init__"] in wrappers
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_corrupted_output_counts_as_failed():
    op = workloads.kernel_round(random.Random(5))[0]

    def corrupted(ctx):
        dec = op.run(ctx)
        s = dec.S
        return dataclasses.replace(dec, S=dataclasses.replace(
            s, data=(s.data[0] + 1,) + s.data[1:]))

    bad = dataclasses.replace(op, run=corrupted)
    ctx = workloads.Context()
    records = [run.run_op(op, ctx), run.run_op(bad, ctx)]
    assert [r.ok for r in records] == [True, False]
    assert sum(not r.ok for r in records) / len(records) == 0.5


def test_cli_check_rejects_wrong_exit_code_and_changed_bytes():
    docs = workloads.CliDocs(random.Random(3))
    op = workloads.cli_ops(docs)[2]
    assert op.tag == "cli.group"
    _, _, chain, free = docs.group
    ctx = workloads.Context()
    good = (0, json.dumps({"schema": 1, "invariant_factors": [str(d) for d in chain],
                           "free_rank": free}), "")
    assert op.check(ctx, good)
    for bad in ((1, good[1], ""), (0, good[1], "Traceback ..."),
                (0, good[1].replace("}", ', "x": 1}'), "")):
        rec = run.run_op(dataclasses.replace(op, run=lambda ctx, out=bad: out), ctx)
        assert not rec.ok


def test_same_seed_gives_byte_identical_inputs():
    def dump(name, seed):
        w = workloads.make(name, seed)
        return repr([op.data for i in range(3) for op in w.round(i)]).encode()

    for name in workloads.WORKLOADS:
        assert dump(name, 7) == dump(name, 7)
        assert dump(name, 7) != dump(name, 8)


def test_self_times_add_up_to_operation_wall_time():
    ops = [op for op in workloads.certify_round(random.Random(2))
           if op.kind in ("sequence", "sigma", "limit")][:12]
    tracer = Tracer()
    ctx = workloads.Context(tracer=tracer)
    tracer.install()
    try:
        records = [run.run_op(op, ctx) for op in ops]
    finally:
        tracer.uninstall()
    assert all(r.ok for r in records)
    walls = [r.wall_ns for r in records]
    layer = summarize(tracer, walls)
    total = layer["untraced.self_ms"] + sum(layer[f"{name}.self_ms"] for name in LAYERS)
    assert abs(total - sum(walls) / 1e6 / len(walls)) < 1e-9
    assert layer["untraced.self_ms"] >= 0
    assert layer["sequences.check_exact.calls"] > 0 and layer["groups.hom_check.calls"] > 0


def test_traced_cli_child_reports_its_layers():
    op = workloads.cli_ops(workloads.CliDocs(random.Random(4)))[0]
    assert op.tag == "cli.snf3"
    tracer = Tracer()
    rec = run.run_op(op, workloads.Context(tracer=tracer))
    assert rec.ok, rec.error
    layer = summarize(tracer, [rec.wall_ns])
    assert layer["cli.import_ms"] > 0 and layer["cli.main_ms"] > 0 and layer["cli.start_ms"] > 0
    assert layer["matrices.snf.calls"] == 1 and layer["jsonio.bytes_in"] > 0
    total = layer["untraced.self_ms"] + sum(layer[f"{name}.self_ms"] for name in LAYERS)
    assert abs(total - rec.wall_ns / 1e6) < 1e-9


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

"""kummer benchmark: seeded workloads, end-to-end metrics, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kernel-ladder --seed 1 --seconds 30 --trace 0

Workloads (see README.md beside this file for why each was chosen):

- ``kernel-ladder`` calls ``kummer.matrices`` directly on size ladders;
- ``certify`` runs the certificate constructions and many small
  exact/pure/split decisions;
- ``cli`` runs ``python -m kummer <verb>`` as one child process at a time.

One caller runs a closed loop: the next operation starts when the previous
one has returned and its output has been checked. Whole rounds run until
``--seconds`` have been spent in operations and at least 100 operations
are done, so a run can overrun ``--seconds`` by part of a round.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
rounds with the tracer installed, replays exactly those operations
untraced to measure the tracing overhead and the ladders, and prints the
per-layer metrics. Either way the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it,
starting with ``#``, give the run metadata, a summary with sample counts
and fail_frac, and any failure. The full report is also written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``, and a traced run's
spans to ``perfbench/out/<workload>-seed<seed>.spans.gz``.

Exit status is 0 when the benchmark ran (``correct`` says whether every
output passed its check) and 2 when it could not run, for instance when
``src/kummer`` is missing.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.tracer import BITS, LAYERS, NAME, OP, SPAN_FIELDS, Tracer, summarize  # noqa: E402,E501

MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SETUP_REPEATS = 9
OUT_DIR = ROOT / "perfbench" / "out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

LADDERS = {
    "snf": ("n", range(4, 10), "snf.n{}"),
    "hnf": ("n", (16, 24, 32), "hnf.n{}"),
    "counterexample": ("d", (4, 8, 12), "counterexample.d{}"),
    "chris": ("p", (3, 5, 7, 11, 13), "chris.p{}"),
    "sigma": ("n", (2, 4, 6), "sigma.n{}"),
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for group in ("matrices.snf", "matrices.hnf", "matrices.solve"):
        units.update({f"{group}.calls": "calls/op", f"{group}.ms": "ms/op",
                      f"{group}.max_bits": "bits"})
    units.update({
        "matrices.snf.max_dim": "dim",
        "matrices.snf.distinct_frac": "frac",
        "groups.hom_check.calls": "calls/op", "groups.hom_check.ms": "ms/op",
        "sequences.check_exact.calls": "calls/op", "sequences.check_exact.ms": "ms/op",
        "sequences.is_pure.ms": "ms/op",
        "sequences.section.calls": "calls/op", "sequences.section.ms": "ms/op",
        "jsonio.decode.ms": "ms/op", "jsonio.encode.ms": "ms/op",
        "jsonio.bytes_in": "B/op", "jsonio.bytes_out": "B/op",
        "cli.start_ms": "ms/op", "cli.import_ms": "ms/op", "cli.main_ms": "ms/op",
    })
    for layer in LAYERS:
        units.update({f"{layer}.calls": "calls/op", f"{layer}.self_ms": "ms/op",
                      f"{layer}.errors": "errors/op"})
    units.update({"untraced.self_ms": "ms/op", "trace.overhead_frac": "frac",
                  "cli.bigint_fail": "count"})
    for name, (letter, sizes, _) in LADDERS.items():
        for k in sizes:
            units[f"ladder.{name}.{letter}{k}.ms"] = "ms"
            if name == "snf":
                units[f"ladder.{name}.{letter}{k}.bits"] = "bits"
    return units


PER_LAYER = _per_layer_units()


@dataclass
class Record:
    """One operation: its tag, wall time (virtual when traced), real wall
    time, whether its output passed the check, and why not."""

    kind: str
    tag: str
    wall_ns: int
    real_ns: int
    ok: bool
    error: str = ""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_kummer():
    """Import kummer from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "kummer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kummer sources under {src}")
    sys.path.insert(0, str(src))
    import kummer
    if Path(kummer.__file__).resolve().parent != (src / "kummer").resolve():
        raise SystemExit(f"perfbench: imported kummer from {kummer.__file__}, not {src}")
    return kummer


def setup(name: str, seed: int):
    import_kummer()
    return workloads.make(name, seed)


def timed_setups(args) -> list[float]:
    """Wall seconds of fresh processes that only set up: interpreter start,
    importing kummer and generating the seeded inputs."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
    return times


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def run_op(op, ctx) -> Record:
    tracer = ctx.tracer
    error = ""
    if tracer is not None:
        tracer.op += 1
        tracer.active = True
        hidden0 = tracer.hidden
    t0 = perf_counter_ns()
    try:
        out = op.run(ctx)
    except Exception:  # a raising operation is a failed operation, not a crash
        out, error = None, traceback.format_exc(limit=-3)
    t1 = perf_counter_ns()
    wall = t1 - t0
    if tracer is not None:
        tracer.active = False
        wall -= tracer.hidden - hidden0
    if not error:
        try:
            if not op.check(ctx, out):
                error = "output failed its check"
        except workloads.CheckFailed as exc:
            error = f"output failed its check: {exc}"
        except Exception:  # a malformed output is a failed check
            error = "check raised: " + traceback.format_exc(limit=-2)
    return Record(op.kind, op.tag, wall, t1 - t0, not error, error)


def run_rounds(workload, ctx, seconds: float, keep_ops: bool = False
               ) -> tuple[list, list[Record]]:
    """Whole rounds until ``seconds`` of operation time and MIN_OPS; the
    operations are returned only when ``keep_ops`` asks for them."""
    ops, records, spent, i = [], [], 0, 0
    while spent < seconds * 1e9 or len(records) < MIN_OPS:
        for op in workload.round(i):
            rec = run_op(op, ctx)
            if keep_ops:
                ops.append(op)
            records.append(rec)
            spent += rec.real_ns
        i += 1
    return ops, records


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(records: list[Record], setup_times: list[float], peak_kb: int) -> dict:
    walls_ms = [r.real_ns / 1e6 for r in records]
    ok = sum(r.ok for r in records)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok / (sum(r.real_ns for r in records) / 1e9),
        "op_p50_ms": statistics.median(walls_ms),
        "op_p90_ms": statistics.quantiles(walls_ms, n=10)[8],
        "peak_rss_mb": peak_kb / 1024,
    }


def ladders(tracer: Tracer, traced: list[Record], replay: list[Record]) -> dict:
    """Median untraced time per rung, and the largest SNF transform entry."""
    out = {}
    by_tag: dict[str, list[float]] = {}
    for r in replay:
        by_tag.setdefault(r.tag, []).append(r.real_ns / 1e6)
    snf_bits: dict[str, int] = {}
    snf = tracer.name_id("matrices.smith_normal_form")
    for nid, op, bits in zip(tracer.field(NAME), tracer.field(OP), tracer.field(BITS)):
        if nid == snf and op >= 0:
            tag = traced[op].tag
            snf_bits[tag] = max(snf_bits.get(tag, 0), bits)
    for name, (letter, sizes, pattern) in LADDERS.items():
        for k in sizes:
            times = by_tag.get(pattern.format(k))
            out[f"ladder.{name}.{letter}{k}.ms"] = statistics.median(times) if times else 0
            if name == "snf":
                out[f"ladder.{name}.{letter}{k}.bits"] = snf_bits.get(pattern.format(k), 0)
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kummer").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(), "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def by_tag(records: list[Record]) -> dict:
    groups: dict[str, list[Record]] = {}
    for r in records:
        groups.setdefault(r.tag, []).append(r)
    return {tag: {"count": len(rs), "failed": sum(not r.ok for r in rs),
                  "median_ms": statistics.median(r.real_ns / 1e6 for r in rs)}
            for tag, rs in sorted(groups.items())}


def big_integer_probe(workload) -> list[dict]:
    """The 5,000-digit CLI documents, run once untimed outside the counted
    operations; their outcome is reported, not hidden."""
    big = getattr(workload, "big", ())
    ctx = workloads.Context()
    return [{"op": r.tag, "ok": r.ok, "error": r.error.strip().splitlines()[-1:]}
            for r in (run_op(op, ctx) for op in big)]


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up (import kummer, generate inputs) and exit")
    return parser.parse_args(argv)


def measure_end_to_end(args, workload, report: dict):
    """The untraced run: the closed loop, then the set-up probes."""
    _, records = run_rounds(workload, workloads.Context(), args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss  # before any other child runs
    probe = big_integer_probe(workload)
    report["setup_runs_s"] = setups = timed_setups(args)
    return end_to_end(records, setups, peak_kb), END_TO_END, records, probe


def measure_layers(args, workload, report: dict):
    """The traced run, then an untraced replay of exactly its operations."""
    tracer = Tracer()
    ctx = workloads.Context(tracer=tracer)
    report["wrapped"] = tracer.install()
    print("# traced " + " ".join(report["wrapped"]))
    try:
        ops, records = run_rounds(workload, ctx, args.seconds, keep_ops=True)
    finally:
        tracer.uninstall()
    # the replay must also print the same bytes as the traced run did
    replay = [run_op(op, workloads.Context(cli_outputs=ctx.cli_outputs)) for op in ops]
    probe = big_integer_probe(workload)
    layer = summarize(tracer, [r.wall_ns for r in records])
    layer["trace.overhead_frac"] = (sum(r.real_ns for r in records)
                                    / sum(r.real_ns for r in replay) - 1)
    layer["cli.bigint_fail"] = sum(not p["ok"] for p in probe)
    layer.update(ladders(tracer, records, replay))

    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.gz"
    with gzip.open(spans_path, "wb", compresslevel=1) as fh:
        fh.write(tracer.buf.tobytes())
    report["spans"] = {"file": spans_path.name, "count": len(tracer),
                       "format": "little-endian int64, one record per span",
                       "fields": SPAN_FIELDS, "names": tracer.names}
    return {k: layer[k] for k in PER_LAYER}, PER_LAYER, records + replay, probe


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workload = setup(args.workload, args.seed)
    except (ImportError, SystemExit) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    report: dict = {}
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, units, records, probe = measure(args, workload, report)

    report["meta"] = meta = metadata(args)
    print("# meta " + json.dumps(meta, sort_keys=True))
    failed = [r for r in records if not r.ok]
    attempted = len(records)
    summary = f"ops={attempted} failed={len(failed)} fail_frac={len(failed) / attempted}"
    if args.trace:
        summary += " (traced operations and their untraced replay)"
    else:
        summary += " " + " ".join(f"{k}={v:.6g}{units[k]}" for k, v in metrics.items())
        summary += f" (set-up runs={SETUP_REPEATS}, timing samples={attempted})"
    print("# summary " + summary)
    for p in probe:
        print(f"# big-integer document {p['op']}: {'ok' if p['ok'] else 'FAILED'} "
              f"{' '.join(p['error'])}")
    for r in failed[:5]:
        print(f"# failed {r.tag}: {r.error.strip().splitlines()[-1]}", file=sys.stderr)

    result = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report.update({"ops_by_tag": by_tag(records), "big_integer_probe": probe,
                   "failures": [{"tag": r.tag, "error": r.error} for r in failed],
                   "metrics": result})
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": result}))
    return 0

if __name__ == "__main__":
    sys.exit(main())

"""Traced CLI child: ``python3 perfbench/launcher.py <verb> [flags]``.

Times ``import kummer.cli``, installs the benchmark's tracer and calls
``kummer.cli.main``, like ``python -m kummer`` does. Stdout is left to the
CLI. The spans go to stderr as one final line after a marker, together
with the nanoseconds the launcher spent on tracing, which the parent
subtracts from the child's wall time.
"""

import json
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

LAUNCH_NS = perf_counter_ns()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import TRACE_MARK  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.hidden = perf_counter_ns() - LAUNCH_NS
    sid = tracer.open("cli.import")
    import kummer.cli
    tracer.close(sid)
    t0 = perf_counter_ns()
    tracer.install()
    tracer.hidden += perf_counter_ns() - t0
    try:
        code = kummer.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # what the interpreter would do: traceback, exit 1
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    t1 = perf_counter_ns()
    tracer.uninstall()
    text = json.dumps({"names": tracer.names, "spans": tracer.buf.tolist(),
                       "snf_inputs": sorted(tracer.snf_inputs),
                       "hidden": tracer.hidden + perf_counter_ns() - t1})
    sys.stderr.write(TRACE_MARK + text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

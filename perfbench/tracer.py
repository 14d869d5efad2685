"""Outside-in span tracer for kummer's public entry points.

``Tracer.install`` wraps every function listed in the ``__all__`` of each
layer module, plus ``Homomorphism.__post_init__`` and
``MatrixEquationSystem.solve``, and rebinds each wrapped name in every
``kummer.*`` module that imported it by name. ``uninstall`` puts every
original back. Nothing in ``src/kummer`` changes.

Each call into a wrapped entry point records one span: name, parent span,
operation id, start, end, whether an exception escaped, and two sizes
(the largest entry bit length of the result, and an input size).
Spans are kept in memory until the run ends, then written out.

Clock: the tracer's own bookkeeping (span records, bit-size probes) is
timed and subtracted from every span and operation as it happens, so span
durations and operation wall times read as if the tracer cost nothing.
The cost that remains is reported separately as ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("matrices", "groups", "sequences", "towers", "colimits",
          "cohomology", "arith", "jsonio", "cli")

# Methods traced in addition to each layer's public functions.
METHODS = {
    "groups": ("Homomorphism.__post_init__",),
    "matrices": ("MatrixEquationSystem.solve",),
}

# Entry-point groups reported as their own per-layer metrics. A group's
# ``calls`` and ``ms`` count only outermost spans, so a solve that calls
# another solve is one call.
GROUPS = {
    "matrices.snf": ("matrices.smith_normal_form",),
    "matrices.hnf": ("matrices.hermite_column_form",),
    "matrices.solve": ("matrices.solve_integer_system", "matrices.solve_modular",
                       "matrices.solve_linear_explain", "matrices.solve_linear",
                       "matrices.MatrixEquationSystem.solve"),
    "groups.hom_check": ("groups.Homomorphism.__post_init__",),
    "sequences.check_exact": ("sequences.check_exact",),
    "sequences.is_pure": ("sequences.is_pure",),
    "sequences.section": ("sequences.section_exists", "sequences.section_from_purity",
                          "sequences.section_from_retraction"),
    "jsonio.decode": ("jsonio.loads_checked", "jsonio.decode_int", "jsonio.decode_matrix",
                      "jsonio.decode_group", "jsonio.decode_hom", "jsonio.decode_seq",
                      "jsonio.decode_tower", "jsonio.decode_sigma",
                      "jsonio.decode_gmodule", "jsonio.decode_gmodule_seq"),
    "jsonio.encode": ("jsonio.dumps", "jsonio.document", "jsonio.encode_int",
                      "jsonio.encode_matrix", "jsonio.encode_group", "jsonio.encode_hom",
                      "jsonio.encode_seq", "jsonio.encode_element",
                      "jsonio.encode_section", "jsonio.encode_tower"),
}

# Span layout: FIELDS int64 slots per span in one flat array, in this order.
SPAN_FIELDS = ("name", "parent", "op", "start", "end", "error", "bits", "size")
FIELDS = len(SPAN_FIELDS)
NAME, PARENT, OP, START, END, ERROR, BITS, SIZE = range(FIELDS)


def _bits(values):
    return max((abs(x).bit_length() for x in values), default=0)


def _matrix_bits(*mats):
    return max((_bits(m.data) for m in mats), default=0)


def _probe_snf(tracer, args, result):
    mat = args[0]
    tracer.snf_inputs.add(hash((mat.rows, mat.cols, mat.data)))
    return (_matrix_bits(result.U, result.S, result.V, result.U_inv, result.V_inv),
            max(mat.rows, mat.cols))


def _probe_hnf(tracer, args, result):
    return _matrix_bits(result.matrix), max(args[0].rows, args[0].cols)


def _probe_solution(tracer, args, result):
    if result is None:
        return 0, 0
    if isinstance(result, dict):
        return _matrix_bits(*result.values()), 0
    return _bits(result), 0


def _probe_explained(tracer, args, result):
    return _probe_solution(tracer, args, result[0])


def _probe_text_in(tracer, args, result):
    return 0, len(args[0].encode())


def _probe_text_out(tracer, args, result):
    return 0, len(result.encode())


PROBES = {
    "matrices.smith_normal_form": _probe_snf,
    "matrices.hermite_column_form": _probe_hnf,
    "matrices.solve_integer_system": _probe_solution,
    "matrices.solve_modular": _probe_solution,
    "matrices.solve_linear_explain": _probe_explained,
    "matrices.solve_linear": _probe_solution,
    "matrices.MatrixEquationSystem.solve": _probe_solution,
    "jsonio.loads_checked": _probe_text_in,
    "jsonio.dumps": _probe_text_out,
}


class Tracer:
    """Span recorder; one per traced run, installed at most once at a time.

    Spans live in ``buf``, a flat ``array('q')`` of FIELDS slots per span
    (64 bytes), because a traced run records hundreds of thousands.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.buf = array("q")
        self.stack: list[int] = []
        self.hidden = 0
        self.op = -1
        self.active = True
        self.snf_inputs: set[int] = set()
        self.replaced: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
        self.originals: list[tuple[object, str, object]] = []  # (owner, attr, original)

    def __len__(self) -> int:
        return len(self.buf) // FIELDS

    def field(self, index: int) -> array:
        """One field of every span, in span order."""
        return self.buf[index::FIELDS]

    # -- manual spans ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
        return nid

    def open(self, name: str) -> int:
        t0 = perf_counter_ns()
        sid = len(self)
        self.buf.extend((self.name_id(name), self.stack[-1] if self.stack else -1,
                         self.op, t0 - self.hidden, 0, 0, 0, 0))
        self.stack.append(sid)
        self.hidden += perf_counter_ns() - t0
        return sid

    def close(self, sid: int, error: bool = False, extra_hidden: int = 0) -> None:
        """End span ``sid``; ``extra_hidden`` is bookkeeping done elsewhere
        (in a traced child process) that must not count as work."""
        t1 = perf_counter_ns()
        self.hidden += extra_hidden
        self.stack.pop()
        self.buf[sid * FIELDS + END] = t1 - self.hidden
        self.buf[sid * FIELDS + ERROR] = int(error)
        self.hidden += perf_counter_ns() - t1

    def graft(self, parent: int, names: list[str], flat: list[int], shift: int) -> None:
        """Append a child process's spans (flat, as ``buf``) under ``parent``."""
        t0 = perf_counter_ns()
        base = len(self)
        ids = [self.name_id(n) for n in names]
        for i in range(0, len(flat), FIELDS):
            s = flat[i:i + FIELDS]
            self.buf.extend((ids[s[NAME]], parent if s[PARENT] < 0 else base + s[PARENT],
                             self.op, s[START] + shift, s[END] + shift, s[ERROR], s[BITS],
                             s[SIZE]))
        self.hidden += perf_counter_ns() - t0

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer, buf, stack = self, self.buf, self.stack
        nid = self.name_id(name)
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns()
            base = len(buf)
            buf.extend((nid, stack[-1] if stack else -1, tracer.op, t0 - tracer.hidden,
                        0, 0, 0, 0))
            stack.append(base // FIELDS)
            tracer.hidden += perf_counter_ns() - t0
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter_ns()
                stack.pop()
                buf[base + END] = t1 - tracer.hidden
                buf[base + ERROR] = 1
                tracer.hidden += perf_counter_ns() - t1
                raise
            t1 = perf_counter_ns()
            stack.pop()
            buf[base + END] = t1 - tracer.hidden
            if probe is not None:
                buf[base + BITS], buf[base + SIZE] = probe(tracer, args, result)
            tracer.hidden += perf_counter_ns() - t1
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap the entry points of every imported layer module; return the
        names actually wrapped (absent names are skipped)."""
        if self.originals:
            raise RuntimeError("tracer is already installed")
        replace, wrapped = self.replaced, []
        for layer in LAYERS:
            mod = sys.modules.get(f"kummer.{layer}")
            if mod is None:
                continue
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    replace[id(fn)] = (fn, self._wrap(name, fn))
                    wrapped.append(name)
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name, None)
                fn = vars(cls).get(meth) if isinstance(cls, type) else None
                if inspect.isfunction(fn):
                    name = f"{layer}.{qual}"
                    replace[id(fn)] = (fn, self._wrap(name, fn))
                    self.originals.append((cls, meth, fn))
                    setattr(cls, meth, replace[id(fn)][1])
                    wrapped.append(name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kummer" or mod_name.startswith("kummer.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self.originals.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return sorted(wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.originals):
            setattr(owner, attr, value)
        self.originals.clear()
        self.replaced.clear()


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(tracer: Tracer) -> array:
    """Each span's duration minus the time its child spans cover."""
    own = durations(tracer)
    for dur, parent in zip(durations(tracer), tracer.field(PARENT)):
        if parent >= 0:
            own[parent] -= dur
    return own


def durations(tracer: Tracer) -> array:
    return array("q", (e - b for b, e in zip(tracer.field(START), tracer.field(END))))


def summarize(tracer: Tracer, op_walls_ns: list[int]) -> dict[str, float]:
    """Per-layer metrics from the spans of ``len(op_walls_ns)`` operations.

    Times and counts are per operation (total divided by operations), so
    runs of different lengths compare directly; maxima and ratios are over
    the whole run.
    """
    names = tracer.names
    n_ops = max(len(op_walls_ns), 1)
    group_of_name = {}
    for g, members in GROUPS.items():
        for member in members:
            group_of_name[member] = g
    group_bit = {g: 1 << i for i, g in enumerate(GROUPS)}
    name_group = [group_of_name.get(n) for n in names]
    name_layer = tracer.layer_of
    nids, parents, errors = tracer.field(NAME), tracer.field(PARENT), tracer.field(ERROR)
    bits, sizes = tracer.field(BITS), tracer.field(SIZE)
    durs, own = durations(tracer), self_times(tracer)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_ms"] = 0
        out[f"{layer}.errors"] = 0
    for g in GROUPS:
        out[f"{g}.calls"] = 0
        out[f"{g}.ms"] = 0
        out[f"{g}.max_bits"] = 0
    out["matrices.snf.max_dim"] = 0
    out["jsonio.bytes_in"] = out["jsonio.bytes_out"] = 0
    cli = {"cli.process": 0, "cli.import": 0, "cli.main": 0}

    masks = array("q", bytes(8 * len(nids)))
    snf_calls = 0
    top = 0
    for sid, nid in enumerate(nids):
        layer, group, parent = name_layer[nid], name_group[nid], parents[sid]
        dur = durs[sid]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_ms"] += own[sid]
        if parent < 0:
            top += dur
        if errors[sid] and (parent < 0 or name_layer[nids[parent]] != layer):
            out[f"{layer}.errors"] += 1
        if parent >= 0:
            pg = name_group[nids[parent]]
            masks[sid] = masks[parent] | (group_bit[pg] if pg else 0)
        if group is not None:
            if not masks[sid] & group_bit[group]:
                out[f"{group}.calls"] += 1
                out[f"{group}.ms"] += dur
            out[f"{group}.max_bits"] = max(out[f"{group}.max_bits"], bits[sid])
        name = names[nid]
        if name == "matrices.smith_normal_form":
            snf_calls += 1
            out["matrices.snf.max_dim"] = max(out["matrices.snf.max_dim"], sizes[sid])
        elif name == "jsonio.loads_checked":
            out["jsonio.bytes_in"] += sizes[sid]
        elif name == "jsonio.dumps":
            out["jsonio.bytes_out"] += sizes[sid]
        if name in cli:
            cli[name] += dur

    for key in list(out):
        if key.endswith(("self_ms", ".ms")):
            out[key] /= 1e6 * n_ops
        elif key.endswith((".calls", ".errors", "bytes_in", "bytes_out")):
            out[key] /= n_ops
    out["matrices.snf.distinct_frac"] = (len(tracer.snf_inputs) / snf_calls
                                         if snf_calls else 0)
    out["untraced.self_ms"] = (sum(op_walls_ns) - top) / 1e6 / n_ops
    out["cli.start_ms"] = (cli["cli.process"] - cli["cli.main"]) / 1e6 / n_ops
    out["cli.import_ms"] = cli["cli.import"] / 1e6 / n_ops
    out["cli.main_ms"] = cli["cli.main"] / 1e6 / n_ops
    return out

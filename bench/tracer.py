"""Per-layer tracing of algint from outside the package.

The traced run wraps public functions of each algint module (the layers)
and restores the originals afterwards.  A wrapper is installed under every
name that refers to the function, so ``algint.hermite.gcd`` is wrapped
together with ``algint.rings.gcd``.  Hot calls (ring arithmetic, field
elements, linear algebra) are aggregated into call counts and self time;
coarse calls (records, parsing, reductions, decompositions, telescoping)
are also kept as spans carrying the record id and the parent span.  Self
time is a call's duration minus the duration of the traced calls nested in
it.  Nothing here is imported by algint itself.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

from algint import algfield, cli, hermite, linalg, parsing, polyred, rings, telescoper

MODULES = (rings, linalg, algfield, hermite, polyred, telescoper, parsing, cli)

RINGS = {"qq_x": rings.POLY_X_QQ, "qq_t": rings.T_POLY, "qt_x": rings.POLY_X_QT}
_RING_BY_ID = {id(r): name for name, r in RINGS.items()}


class Tracer:
    """Counts, self times and coarse spans of one traced run."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self_s]
        self.counts = Counter()
        self.max_deg = Counter()
        self.spans = []  # (record, span, parent, name, start_s, end_s)
        self.record = None
        self._stack = []  # [name, start, child_s, span, parent]
        self._open_spans = []
        self._last_span = 0

    def enter(self, name, span=False):
        sid = parent = None
        if span:
            self._last_span += 1
            sid = self._last_span
            parent = self._open_spans[-1] if self._open_spans else None
            self._open_spans.append(sid)
        frame = [name, 0.0, 0.0, sid, parent]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def leave(self, frame):
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"unbalanced trace: left {frame[0]} inside {popped[0]}")
        duration = end - frame[1]
        stat = self.stats[frame[0]]
        stat[0] += 1
        stat[1] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[3] is not None:
            self._open_spans.pop()
            self.spans.append((self.record, frame[3], frame[4], frame[0], frame[1], end))

    def inside(self, name):
        return any(f[0] == name for f in self._stack)


# -- what to wrap


def _by_ring(op):
    def name(args):
        ring = _RING_BY_ID.get(id(args[0].ring))
        return None if ring is None else f"rings.{ring}.{op}"
    return name


def _gcd_degree(tracer, args, out):
    ring = _RING_BY_ID.get(id(args[0].ring))
    if ring is not None:
        deg = max(args[0].degree, args[1].degree)
        if deg > tracer.max_deg[ring]:
            tracer.max_deg[ring] = deg


def _step_kind(tracer, args, out):
    tracer.counts[f"hermite.steps.{out.outcome.status}"] += 1


def _certified(tracer, args, out):
    tracer.counts["hermite.update.certified"] += 1


def _rebase_decompose(tracer, args):
    if tracer.inside("telescoper.rebase"):
        tracer.counts["telescoper.rebase_decomposes"] += 1


def _complement_hit(tracer, args):
    decomposer, u, a = args[:3]
    if (u, a) in decomposer._complements:
        tracer.counts["polyred.complement.hits"] += 1


def _order(tracer, args, out):
    if out.order > tracer.counts["telescoper.order.max"]:
        tracer.counts["telescoper.order.max"] = out.order


# (owner, attribute, layer name or function of the arguments, options)
TARGETS = (
    (rings.FracField, "of", _by_ring("frac_of"), {}),
    (rings, "gcd", _by_ring("gcd"), {"after": _gcd_degree}),
    (rings, "squarefree_decomposition", "rings.squarefree", {}),
    (linalg, "solve_mod", "linalg.solve_mod", {}),
    (linalg, "nullspace", "linalg.nullspace", {}),
    (linalg, "hnf_rows", "linalg.hnf_rows", {}),
    (algfield.FieldBasis, "coords_of", "algfield.coords_of", {}),
    (algfield.FieldBasis, "combine", "algfield.combine", {}),
    (algfield.FieldBasis, "enlarge", "algfield.enlarge", {}),
    (algfield.AlgElem, "dx", "algfield.dx", {}),
    (algfield.AlgElem, "dt", "algfield.dt", {}),
    (algfield.AlgElem, "__eq__", "algfield.eq", {}),
    (algfield.AlgElem, "__str__", "algfield.str", {}),
    (algfield, "initial_suitable_basis", "algfield.initial_basis", {}),
    (hermite, "lazy_hermite_reduce", "hermite.reduce", {"span": True}),
    (hermite, "present", "hermite.present", {}),
    (hermite, "hermite_step", "hermite.step", {"after": _step_kind}),
    (hermite, "basis_update", "hermite.update", {"after": _certified}),
    (polyred.Decomposer, "decompose", "polyred.decompose",
     {"span": True, "before": _rebase_decompose}),
    (polyred.Decomposer, "complement", "polyred.complement", {"before": _complement_hit}),
    (polyred, "suitable_at_infinity", "polyred.inf_basis", {}),
    (polyred.ComplementNV, "ensure_stable", "polyred.ensure_stable", {}),
    (polyred.ComplementNV, "reduce", "polyred.complement_reduce", {}),
    (telescoper, "telescope", "telescoper.telescope", {"span": True, "after": _order}),
    (telescoper.RemainderLedger, "_rebase", "telescoper.rebase", {"span": True}),
    (telescoper, "find_dependency", "telescoper.find_dependency", {}),
    (telescoper, "verify_telescoper", "telescoper.verify", {"span": True}),
    (parsing, "build_curve", "parsing.build", {"span": True}),
    (parsing, "build_element", "parsing.build", {"span": True}),
    (cli, "run_record", "cli.run_record", {"span": True}),
)


def _bindings():
    """Every (owner, attribute, original) to patch: class attributes once,
    module functions under each module name bound to them."""
    out = []
    for owner, attr, name, opts in TARGETS:
        original = vars(owner)[attr]
        if isinstance(owner, type):
            out.append((owner, attr, original, name, opts))
            continue
        for mod in MODULES:
            for key, value in vars(mod).items():
                if value is original:
                    out.append((mod, key, original, name, opts))
    return tuple(out)


BINDINGS = _bindings()  # taken at import, before anything is patched


def _wrap(tracer, fn, name, opts):
    span = opts.get("span", False)
    before = opts.get("before")
    after = opts.get("after")
    dynamic = callable(name)

    def traced(*args, **kwargs):
        label = name(args) if dynamic else name
        if label is None:
            return fn(*args, **kwargs)
        if before is not None:
            before(tracer, args)
        frame = tracer.enter(label, span)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.leave(frame)
        if after is not None:
            after(tracer, args, out)
        return out

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    return traced


def check_pristine():
    """Raise unless every traced name refers to the original function."""
    for owner, attr, original, _, _ in BINDINGS:
        if vars(owner)[attr] is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} is still wrapped")


@contextlib.contextmanager
def installed(tracer):
    """Wrappers in place inside the block, originals restored after it."""
    check_pristine()
    wrappers = {}
    try:
        for owner, attr, original, name, opts in BINDINGS:
            if id(original) not in wrappers:
                wrappers[id(original)] = _wrap(tracer, original, name, opts)
            setattr(owner, attr, wrappers[id(original)])
        yield tracer
    finally:
        for owner, attr, original, _, _ in BINDINGS:
            setattr(owner, attr, original)
        check_pristine()


# -- per-layer metrics


def layer_metrics(tracer):
    """Every per-layer metric by name, as (value, unit)."""
    stats = dict(tracer.stats)
    counts = tracer.counts
    out = {}

    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    def self_s(name):
        out[f"{name}.self_s"] = (stats.get(name, (0, 0.0))[1], "s")

    def both(name):
        out[f"{name}.calls"] = (calls(name), "count")
        self_s(name)

    def ratio(part, whole):
        return (part / whole if whole else 0.0, "ratio")

    for ring in RINGS:
        both(f"rings.{ring}.frac_of")
        both(f"rings.{ring}.gcd")
        out[f"rings.{ring}.gcd.max_deg"] = (tracer.max_deg[ring], "deg")
    both("rings.squarefree")
    for part in ("reduce", "present", "step"):
        self_s(f"hermite.{part}")
    for kind in ("unique", "underdetermined", "inconsistent"):
        out[f"hermite.steps.{kind}"] = (counts[f"hermite.steps.{kind}"], "count")
    out["hermite.update.calls"] = (calls("hermite.update"), "count")
    out["hermite.update.yield"] = ratio(counts["hermite.update.certified"],
                                        calls("hermite.update"))
    out["algfield.enlarge.calls"] = (calls("algfield.enlarge"), "count")
    both("polyred.decompose")
    for part in ("inf_basis", "ensure_stable", "complement_reduce"):
        self_s(f"polyred.{part}")
    out["polyred.complement.hit_ratio"] = ratio(counts["polyred.complement.hits"],
                                                calls("polyred.complement"))
    for op in ("solve_mod", "nullspace", "hnf_rows"):
        both(f"linalg.{op}")
    out["telescoper.rounds"] = (calls("telescoper.find_dependency"), "count")
    out["telescoper.rebases"] = (calls("telescoper.rebase"), "count")
    out["telescoper.rebase_decomposes"] = (counts["telescoper.rebase_decomposes"], "count")
    out["telescoper.order.max"] = (counts["telescoper.order.max"], "count")
    self_s("telescoper.find_dependency")
    self_s("telescoper.verify")
    for op in ("coords_of", "combine", "dx", "dt", "eq"):
        both(f"algfield.{op}")
    self_s("algfield.str")
    self_s("algfield.initial_basis")
    both("parsing.build")
    self_s("cli.run_record")
    qt = sum(stats.get(f"rings.{r}.{op}", (0, 0.0))[1]
             for r in ("qq_t", "qt_x") for op in ("frac_of", "gcd"))
    out["rings.qt_self_share"] = ratio(qt, sum(s for _, s in stats.values()))
    return out

"""Span recording around calls into the xcorr modules, for the traced run.

While a traced job runs, a :class:`Tracer` replaces every public function of
the layer modules in every module namespace that holds it.  A call made through
``xcorr.cli.remove_modes_iterative`` is recorded as a span of that name whose
layer is the defining module (``modes``).  ``ReturnPanel.__post_init__`` (the
copy and validation every panel construction pays) is recorded as
``xcorr.panel.ReturnPanel``.  Nothing under ``src/`` is edited: the patches
are installed for each traced job and removed after it, so untraced rounds
and the output checks run the unmodified functions.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
import warnings

LAYERS = ("panel", "spectrum", "modes", "surrogate", "mfdfa", "synth", "cli")

# Inner-loop helpers of fluctuation_surface run once per (q, scale) pair
# (hundreds of calls per series); a span around each would mostly measure the
# tracer, so they are left inside their caller's span.
UNTRACED = frozenset({"profile", "segment_variances", "fluctuation"})

SURROGATE_KINDS = (
    "rotate_free",
    "rotate_daily",
    "shuffle_signs",
    "shuffle_magnitudes",
    "signs_only",
    "magnitudes_only",
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "job", "attrs")

    def __init__(self, name, layer, start, parent, job):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def func(self):
        return self.name.rsplit(".", 1)[1]

    def to_dict(self, ids):
        return {
            "id": ids[id(self)],
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else ids[id(self.parent)],
            "job": self.job,
            **self.attrs,
        }


def _cells(obj):
    returns = getattr(obj, "returns", None)
    return int(returns.size) if returns is not None else 0


def _patch_targets():
    """(namespace module, attribute, function, layer) for every public function."""
    modules = {layer: importlib.import_module(f"xcorr.{layer}") for layer in LAYERS}
    public = {}
    for layer, mod in modules.items():
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and name not in UNTRACED:
                public[obj] = layer
    targets = []
    for mod in modules.values():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj in public:
                targets.append((mod, attr, obj, public[obj]))
    return targets


class Tracer:
    """Records the spans of jobs run inside ``with tracer.job(job_id): ...``.

    The patches are installed only inside that block, so the benchmark's own
    checks and untraced rounds run the unmodified program.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None
        self._targets = _patch_targets()
        self._panel_cls = importlib.import_module("xcorr.panel").ReturnPanel

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, time.perf_counter(), parent, self._job)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                if layer == "mfdfa" and not tracer._inside("mfdfa", span):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    span.attrs["warnings"] = len(caught)
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            _annotate(span, args, kwargs, result)
            return result

        return wrapper

    def _inside(self, layer, span):
        """True if an ancestor of `span` belongs to `layer`."""
        p = span.parent
        while p is not None:
            if p.layer == layer:
                return True
            p = p.parent
        return False

    # -- patching ------------------------------------------------------------
    @contextlib.contextmanager
    def job(self, job_id):
        """Trace one job: install the patches and open its root span (layer None)."""
        saved = [(mod, attr, fn) for mod, attr, fn, _ in self._targets]
        for mod, attr, fn, layer in self._targets:
            setattr(mod, attr, self._wrap(f"{mod.__name__}.{attr}", layer, fn))
        cls = self._panel_cls
        original = cls.__post_init__
        tracer = self

        def post_init(panel):
            span = tracer._open("xcorr.panel.ReturnPanel", "panel")
            try:
                original(panel)
            finally:
                tracer._close(span)
            span.attrs["bytes"] = int(panel.returns.nbytes)

        cls.__post_init__ = post_init
        self._job = job_id
        root = self._open(f"job:{job_id}", None)
        try:
            yield root
        finally:
            self._close(root)
            self._job = None
            cls.__post_init__ = original
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path):
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(ids), sort_keys=True) + "\n")


def _annotate(span, args, kwargs, result):
    """Sizes a span's metrics need, read from its arguments and result."""
    func = span.func
    first = args[0] if args else None
    if func == "ingest":
        fmt = kwargs.get("format", args[1] if len(args) > 1 else None)
        span.attrs["format"] = fmt
        span.attrs["path"] = str(first)
    elif func == "export_panel":
        span.attrs["path"] = str(args[1] if len(args) > 1 else kwargs["path"])
    elif func == "correlation_matrix":
        n, t = first.returns.shape
        span.attrs["flops"] = n * n * t
    elif func == "generate":
        span.attrs["cells"] = _cells(result)
    elif span.layer == "surrogate":
        span.attrs["cells"] = _cells(first)
    elif func == "remove_modes_iterative" or func == "remove_mode":
        span.attrs["passes"] = len(result.removed_modes)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _outermost(spans, pred):
    """Spans matching `pred` with no ancestor matching it (no double counting)."""
    out = []
    for s in spans:
        if not pred(s):
            continue
        p = s.parent
        while p is not None and not pred(p):
            p = p.parent
        if p is None:
            out.append(s)
    return out


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans, file_size):
    """Per-layer metrics of one traced round.

    `spans` are that round's spans, rooted in one job span per job, and
    `file_size(path)` gives the size of a file a span read or wrote.  Layer
    self times plus ``trace.untraced_s`` add up to the round's wall time, the
    sum of its job spans.  Returns (metrics dict, traced wall seconds).
    """
    self_time = {layer: 0.0 for layer in LAYERS}
    child = {}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.duration
    covered = wall = 0.0
    for s in spans:
        if s.layer is None:
            wall += s.duration
            continue
        self_time[s.layer] += s.duration - child.get(id(s), 0.0)
        if s.parent is None or s.parent.layer is None:
            covered += s.duration

    def total(func, layer):
        sel = _outermost(spans, lambda s: s.func == func and s.layer == layer)
        return len(sel), sum(s.duration for s in sel), sel

    m = {}
    n, secs, sel = total("generate", "synth")
    m["synth.generate_calls"] = n
    m["synth.generate_s"] = secs
    m["synth.cells_per_s"] = _rate(sum(s.attrs["cells"] for s in sel), secs)

    m["panel.constructs"] = sum(1 for s in spans if s.name == "xcorr.panel.ReturnPanel")
    m["panel.copy_bytes_computed"] = sum(
        s.attrs.get("bytes", 0) for s in spans if s.name == "xcorr.panel.ReturnPanel"
    )
    n, secs, _ = total("standardize", "panel")
    m["panel.standardize_calls"] = n
    m["panel.standardize_s"] = secs
    m["panel.coarsen_s"] = total("coarsen", "panel")[1]

    n, secs, sel = total("correlation_matrix", "spectrum")
    m["spectrum.corr_calls"] = n
    m["spectrum.corr_s"] = secs
    m["spectrum.corr_gflops_computed"] = _rate(sum(s.attrs["flops"] for s in sel), secs) / 1e9
    n, secs, _ = total("eigendecompose", "spectrum")
    m["spectrum.eig_calls"] = n
    m["spectrum.eig_s"] = secs
    m["spectrum.element_dist_s"] = sum(
        s.duration
        for s in _outermost(
            spans, lambda s: s.func in ("element_distribution", "windowed_element_distribution")
        )
    )

    sel = _outermost(spans, lambda s: s.func in ("remove_modes_iterative", "remove_mode"))
    m["modes.remove_calls"] = len(sel)
    m["modes.removal_passes"] = sum(s.attrs["passes"] for s in sel)
    m["modes.remove_s"] = sum(s.duration for s in sel)
    m["modes.eigensignals_s"] = total("eigensignals", "modes")[1]

    sel = _outermost(spans, lambda s: s.layer == "surrogate")
    secs = sum(s.duration for s in sel)
    m["surrogate.calls"] = len(sel)
    m["surrogate.s"] = secs
    m["surrogate.cells_per_s"] = _rate(sum(s.attrs["cells"] for s in sel), secs)
    for kind in SURROGATE_KINDS:
        m[f"surrogate.{kind}_s"] = total(kind, "surrogate")[1]

    sel = _outermost(spans, lambda s: s.layer == "mfdfa")
    secs = sum(s.duration for s in sel)
    series = sum(1 for s in sel if s.func in ("analyze", "fluctuation_surface"))
    m["mfdfa.series"] = series
    m["mfdfa.s"] = secs
    m["mfdfa.series_per_s"] = _rate(series, secs)
    m["mfdfa.warnings"] = sum(s.attrs.get("warnings", 0) for s in sel)

    m["cli.jobs"] = total("main", "cli")[0]
    reads = [s for s in spans if s.func == "ingest" and s.attrs.get("format") == "panel"]
    prices = [s for s in spans if s.func == "ingest" and s.attrs.get("format") in ("wide", "long")]
    writes = [s for s in spans if s.func == "export_panel"]
    read_s = sum(s.duration for s in reads)
    write_s = sum(s.duration for s in writes)
    m["cli.panel_read_s"] = read_s
    m["cli.panel_read_mb_per_s"] = _rate(sum(file_size(s.attrs["path"]) for s in reads), read_s) / 1e6
    m["cli.panel_write_s"] = write_s
    m["cli.panel_write_mb_per_s"] = _rate(sum(file_size(s.attrs["path"]) for s in writes), write_s) / 1e6
    m["cli.price_ingest_s"] = sum(s.duration for s in prices)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["trace.untraced_s"] = wall - covered
    return m, wall

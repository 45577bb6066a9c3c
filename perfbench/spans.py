"""Span tracer for the benchmark's traced run.

The public functions of the six fracvoigt layers are wrapped where the
calling module looks them up: in every fracvoigt module namespace that
holds a reference to them, and on the ``ConstitutiveLaw.map_values``
method.  No source file is edited.  Mittag-Leffler spans are named after
their call site (``special.kernel`` from fracops, ``special.creep`` from
voigt), and special's own namespace is left alone, so ``ml_one`` -> ``ml_eval``
inside special stays one point.  Recursion is not wrapped: while the
outermost call of a span name runs, its defining module holds the original
function again, so its recursive calls (``expr.evaluate``) run untraced and
only the outermost call is recorded.

Spans live in flat in-memory arrays (name, parent, request, start, end,
points, aux, error) and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import fracvoigt
from fracvoigt import cli, expr, fracops, nonlinear, special, voigt
from fracvoigt.errors import AccuracyError

LAYERS = {
    "special": special,
    "fracops": fracops,
    "voigt": voigt,
    "nonlinear": nonlinear,
    "expr": expr,
    "cli": cli,
}
# Mittag-Leffler evaluations are told apart by the module that asks for them.
SPECIAL_SITE = {"fracops": "special.kernel", "voigt": "special.creep"}

_COLUMNS = (
    ("name", "i"),
    ("parent", "i"),
    ("request", "i"),
    ("start_ns", "q"),
    ("end_ns", "q"),
    ("points", "i"),
    ("aux", "i"),
    ("error", "b"),
)
ERR_ACCURACY = 1
ERR_OTHER = 2


def _grid_points(args, result):
    return args[-1].grid.n + 1, 0


def _iterations(args, result):
    return 1, result.iterations


def _law_points(args, result):
    return len(args[-1]), 0


# per-span counters: (points, aux) from the call's arguments and result,
# once the call has returned
_COUNTERS = {
    "fracops.rl_integral": _grid_points,
    "voigt.picard_linear": _iterations,
    "nonlinear.solve_nonlinear": _iterations,
    "nonlinear.law": _law_points,
}


class Tracer:
    """In-memory span store.  ``request`` is the index of the request being
    served; spans recorded outside a request (set-up) carry -1."""

    def __init__(self) -> None:
        self.cols = {name: array(code) for name, code in _COLUMNS}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._active: list[int] = []  # per name id: open outermost spans
        self._stack = [-1]
        self.request = -1
        self._kernel_keys: dict[tuple, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._name_ids[name]

    def kernel_key(self, params, f) -> int:
        """Id of the (alpha, tau, t_end, n) a kernel convolution runs on."""
        key = (params.alpha, params.tau, f.grid.t_end, f.grid.n)
        return self._kernel_keys.setdefault(key, len(self._kernel_keys))

    def wrap(self, name: str, fn, home=None):
        """Wrap ``fn`` as span ``name``.  ``home`` is the (module, attribute)
        that defines ``fn``; it holds ``fn`` itself while the outermost call
        runs, so recursion through it is not traced."""
        nid = self.name_id(name)
        counter = _COUNTERS.get(name)
        # a convolution's points and kernel key are taken when its span
        # opens, so one that raises keeps its own key
        opener = None
        if name == "fracops.ml_kernel_convolve":
            opener = lambda args: (  # noqa: E731
                args[1].grid.n + 1,
                self.kernel_key(args[0], args[1]),
            )
        cols = self.cols
        active = self._active
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            points, aux = opener(args) if opener is not None else (1, 0)
            active[nid] += 1
            idx = len(cols["name"])
            for col, value in zip(cols.values(), (nid, stack[-1], self.request, 0, 0, points, aux, 0)):
                col.append(value)
            stack.append(idx)
            if home is not None:
                outer = getattr(*home)
                setattr(*home, fn)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                end = clock()
                if counter is not None:
                    cols["points"][idx], cols["aux"][idx] = counter(args, result)
                return result
            except BaseException as exc:
                end = clock()
                cols["error"][idx] = ERR_ACCURACY if isinstance(exc, AccuracyError) else ERR_OTHER
                raise
            finally:
                if home is not None:
                    setattr(*home, outer)
                active[nid] -= 1
                stack.pop()
                cols["start_ns"][idx] = start
                cols["end_ns"][idx] = end

        return traced

    # -- results -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: np.frombuffer(col, dtype=col.typecode) for name, col in self.cols.items()}

    def layer_metrics(self) -> dict[str, float]:
        """Per-request layer metrics over the spans recorded while serving
        requests (request >= 0).  Self time is a span's duration minus the
        durations of its direct children."""
        a = self.arrays()
        n_spans = len(a["name"])
        dur = (a["end_ns"] - a["start_ns"]) / 1e9
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=n_spans
        )
        self_s = dur - child
        served = a["request"] >= 0
        requests = len(np.unique(a["request"][served])) or 1

        def pick(*names):
            ids = [self._name_ids[n] for n in names if n in self._name_ids]
            return served & np.isin(a["name"], ids)

        def per_req(mask, col=None):
            vals = np.count_nonzero(mask) if col is None else col[mask].sum()
            return float(vals) / requests

        def us_per_point(mask):
            pts = a["points"][mask].sum()
            return float(self_s[mask].sum() / pts * 1e6) if pts else 0.0

        ml_all = served & np.isin(
            a["name"], [i for n, i in self._name_ids.items() if n.startswith("special.")]
        )
        kernel = pick("special.kernel")
        creep = pick("special.creep")
        conv = pick("fracops.ml_kernel_convolve")
        # a convolution is cold the first time its (alpha, tau, t_end, n)
        # shows up in the process, set-up included
        is_conv = a["name"] == self._name_ids.get("fracops.ml_kernel_convolve", -1)
        conv_idx = np.flatnonzero(is_conv)
        first = np.zeros(n_spans, dtype=bool)
        _, first_pos = np.unique(a["aux"][conv_idx], return_index=True)
        first[conv_idx[first_pos]] = True
        conv_calls = np.count_nonzero(conv)
        cold = np.count_nonzero(conv & first)
        rl = pick("fracops.rl_integral")
        law = pick("nonlinear.law")
        evaluate = pick("expr.evaluate")
        return {
            "special.ml_eval.points": per_req(ml_all, a["points"]),
            "special.ml_eval.self_s": per_req(ml_all, self_s),
            "special.ml_eval.us_per_point": us_per_point(ml_all),
            "special.kernel.points": per_req(kernel, a["points"]),
            "special.kernel.self_s": per_req(kernel, self_s),
            "special.creep.points": per_req(creep, a["points"]),
            "special.creep.self_s": per_req(creep, self_s),
            "special.accuracy_errors": per_req(ml_all & (a["error"] == ERR_ACCURACY)),
            "fracops.ml_kernel_convolve.calls": per_req(conv),
            "fracops.ml_kernel_convolve.cold_calls": per_req(conv & first),
            "fracops.ml_kernel_convolve.self_s": per_req(conv, self_s),
            "fracops.ml_kernel_convolve.us_per_point": us_per_point(conv),
            "fracops.rl_integral.calls": per_req(rl),
            "fracops.rl_integral.self_s": per_req(rl, self_s),
            "fracops.kernel_reuse_ratio": (conv_calls - cold) / conv_calls if conv_calls else 0.0,
            "voigt.linear_strain.self_s": per_req(pick("voigt.linear_strain"), self_s),
            "voigt.creep_function.self_s": per_req(pick("voigt.creep_function"), self_s),
            "voigt.picard_linear.iterations": per_req(pick("voigt.picard_linear"), a["aux"]),
            "voigt.picard_linear.self_s": per_req(pick("voigt.picard_linear"), self_s),
            "nonlinear.solve_nonlinear.iterations": per_req(
                pick("nonlinear.solve_nonlinear"), a["aux"]
            ),
            "nonlinear.solve_nonlinear.self_s": per_req(pick("nonlinear.solve_nonlinear"), self_s),
            "nonlinear.apply_T.calls": per_req(pick("nonlinear.apply_T")),
            "nonlinear.law.points": per_req(law, a["points"]),
            "nonlinear.law.self_s": per_req(law, self_s),
            "nonlinear.law.us_per_point": us_per_point(law),
            "nonlinear.residual.self_s": per_req(pick("nonlinear.residual"), self_s),
            "nonlinear.check_hypotheses.self_s": per_req(pick("nonlinear.check_hypotheses"), self_s),
            "expr.parse.self_s": per_req(pick("expr.parse"), self_s),
            "expr.evaluate.points": per_req(evaluate, a["points"]),
            "expr.evaluate.self_s": per_req(evaluate, self_s),
            "cli.run.self_s": per_req(pick("cli.run"), self_s),
        }

    def write(self, path: Path, stamp: dict) -> None:
        """Write the spans: a JSON header next to one binary file holding
        the columns back to back, in header order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "stamp": stamp,
            "names": self.names,
            "spans": len(self.cols["name"]),
            "columns": [[name, code] for name, code in _COLUMNS],
            "clock": "time.perf_counter_ns",
        }
        with open(path.with_suffix(".bin"), "wb") as fh:
            for name, _ in _COLUMNS:
                self.cols[name].tofile(fh)
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


def _public_functions(module) -> dict[str, object]:
    """Functions a layer exports (``cli`` has no ``__all__``; its entry is run)."""
    names = getattr(module, "__all__", None) or ["run"]
    return {
        n: obj
        for n in names
        if inspect.isfunction(obj := getattr(module, n, None))
        and obj.__module__ == module.__name__
    }


@contextmanager
def tracing():
    """Install the wrappers for the duration of the block and yield the
    Tracer collecting their spans."""
    tracer = Tracer()
    targets = {
        id(fn): (layer, mod, n)
        for layer, mod in LAYERS.items()
        for n, fn in _public_functions(mod).items()
    }
    namespaces = {"fracvoigt": fracvoigt, **LAYERS}
    undo = []
    for site, mod in namespaces.items():
        for attr, obj in list(vars(mod).items()):
            if id(obj) not in targets:
                continue
            layer, home, fname = targets[id(obj)]
            if layer == "special":
                if site == "special":
                    continue
                name = SPECIAL_SITE.get(site, f"special.{fname}")
                setattr(mod, attr, tracer.wrap(name, obj))
            else:
                setattr(mod, attr, tracer.wrap(f"{layer}.{fname}", obj, (home, fname)))
            undo.append((mod, attr, obj))
    law_cls = nonlinear.ConstitutiveLaw
    undo.append((law_cls, "map_values", law_cls.map_values))
    law_cls.map_values = tracer.wrap("nonlinear.law", law_cls.map_values)
    try:
        yield tracer
    finally:
        for mod, attr, obj in reversed(undo):
            setattr(mod, attr, obj)

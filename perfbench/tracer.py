"""Per-layer spans for the traced benchmark run.

The program is not instrumented.  Instead the tracer replaces each public
function of a layer at every place a caller looks it up: the module globals
of every loaded ``billiards`` module that bind it (``billiards.cli.find_orbit``,
``billiards.invariants.find_orbit``, ``billiards.orbits.find_orbit``, the
elliptic names imported into ``ellipse_maps`` ...) and the class attributes of
``Table`` and its subclasses and of ``ConjugacyMap``.  A wrapper appends one
span per call (layer function, parent span, task id, start, end) to flat
in-memory arrays; self time is computed from those spans after the run.

``install`` and ``uninstall`` are cheap, so the benchmark installs the
wrappers around a traced task only.  ``assert_clean`` proves that no wrapper
is left in place for the untraced measurements.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# layer -> module-level functions traced in it
FUNCTIONS = {
    "cli": ["main"],
    "invariants": ["sample_beta", "mm_fit_from_samples"],
    "orbits": ["find_orbit", "lq_bounds"],
    "tables": ["load_table"],
    "dynamics": ["trajectory", "step", "step_lifted", "step_angle"],
    "elliptic": ["carlson_rf", "ellip_f", "ellip_k", "jacobi_am", "invert_monotone"],
    "ellipse_maps": ["build_conjugacy", "action_angle", "action_angle_inverse",
                     "rotation_number_of_caustic"],
}
# layer -> (class, methods traced on it and on every subclass that overrides them)
METHODS = {
    "tables": ("Table", ["frame", "speed", "dspeed", "position", "arc_of_angle",
                         "angle_of_arc", "chord_exit"]),
    "ellipse_maps": ("ConjugacyMap", ["__call__", "residual_grid"]),
}
# attribute that marks a tracer wrapper
SPAN_MARK = "_perfbench_span"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, package):
        self._package = package
        self.keys: list[str] = []
        self._key_id: dict[str, int] = {}
        self._span_key = array("i")
        self._span_parent = array("q")
        self._span_task = array("i")
        self._start = array("d")
        self._end = array("d")
        self._current = -1
        self.task = -1
        self.sweeps = 0
        self.newton_steps = 0
        self.solves_converged = 0
        self.candidates = 0
        self.beta_conds: list[float] = []
        self._installed: list[tuple[object, str, object]] = []
        self._originals = self._collect_originals()
        self._wrapper_of = {id(fn): self._wrap(key, fn) for key, _, _, fn in self._originals}

    # -- targets ------------------------------------------------------------

    def _collect_originals(self):
        """[(key, owner, attribute, original)] for every traced callable at
        its defining place; install finds the same function again, by
        identity, in every other namespace that binds it."""
        modules = {name: getattr(self._package, name) for name in FUNCTIONS}
        found = []
        for layer, names in FUNCTIONS.items():
            for name in names:
                found.append((f"{layer}.{name}", modules[layer], name,
                              getattr(modules[layer], name)))
        for layer, (cls_name, methods) in METHODS.items():
            for cls in _class_tree(getattr(modules[layer], cls_name)):
                for meth in methods:
                    if meth in vars(cls):
                        # Table subclasses share one key per method
                        key = (f"{layer}.{meth}" if layer == "tables"
                               else f"{layer}.{cls_name}.{meth}")
                        found.append((key, cls, meth, vars(cls)[meth]))
        return found

    def _namespaces(self):
        prefix = self._package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    # -- install / uninstall ------------------------------------------------

    def install(self, task: int) -> None:
        if self._installed:
            raise RuntimeError("tracer wrappers are already installed")
        self.task = task
        for _, owner, attr, original in self._originals:
            if isinstance(owner, type):
                setattr(owner, attr, self._wrapper_of[id(original)])
                self._installed.append((owner, attr, original))
        for module in self._namespaces():
            for attr, value in list(vars(module).items()):
                wrapper = self._wrapper_of.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        self.task = -1

    def assert_clean(self) -> None:
        """Raise unless every traced name is bound to its original function
        and no namespace or traced class holds a wrapper."""
        leaks = [f"{owner.__name__}.{attr}" for _, owner, attr, original in self._originals
                 if vars(owner).get(attr) is not original]
        owners = self._namespaces() + [o for _, o, _, _ in self._originals if isinstance(o, type)]
        leaks += [f"{owner.__name__}.{attr}" for owner in owners
                  for attr, value in vars(owner).items() if getattr(value, SPAN_MARK, False) is True]
        if self._installed or leaks:
            raise RuntimeError(f"tracer wrappers left installed: {sorted(set(leaks))}")

    # -- recording ------------------------------------------------------------

    def _wrap(self, key: str, fn):
        key_id = self._key_id.setdefault(key, len(self.keys))
        if key_id == len(self.keys):
            self.keys.append(key)
        observe = {"orbits.find_orbit": self._observe_orbit,
                   "invariants.mm_fit_from_samples": self._observe_fit}.get(key)
        rec = self
        clock = time.perf_counter
        span_key, span_parent, span_task = self._span_key, self._span_parent, self._span_task
        starts, ends = self._start, self._end

        def wrapper(*args, **kwargs):
            parent = rec._current
            idx = len(starts)
            rec._current = idx
            span_key.append(key_id)
            span_parent.append(parent)
            span_task.append(rec.task)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                rec._current = parent
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, SPAN_MARK, True)
        return wrapper

    def _observe_orbit(self, orbit) -> None:
        self.sweeps += orbit.sweeps
        self.newton_steps += orbit.newton_steps
        self.solves_converged += bool(orbit.converged)
        self.candidates += len(orbit.candidates)

    def _observe_fit(self, report) -> None:
        self.beta_conds.append(float(report.beta_cond))

    # -- results --------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        # copies, so the recording arrays stay free to grow
        return {
            "key": np.frombuffer(self._span_key, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._span_parent, dtype=np.int64).copy(),
            "task": np.frombuffer(self._span_task, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, keys=np.array(self.keys), **self.spans())

    def metrics(self, names, overhead_frac: float, slowdowns: dict[int, float]) -> dict[str, float]:
        """The named per-layer metrics over the traced tasks, whose host
        slowdowns ``slowdowns`` gives by task id.  A name is
        <layer>.<function>.<stat> with stat calls (per task), self_s
        (seconds outside traced callees, per task), ms_p50 or ms_p90
        (inclusive milliseconds per call), or one of the counters taken
        from the returned OrbitConfig and InvariantReport objects.  Every
        span is divided by its task's slowdown, and totals by the number of
        tasks, so a faster program that fits more tasks in a run, or a host
        that drifts, does not move the figures."""
        sp = self.spans()
        slow = np.ones(max(slowdowns, default=0) + 1)
        slow[list(slowdowns)] = list(slowdowns.values())
        dur = (sp["end"] - sp["start"]) / slow[sp["task"]]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        tasks = max(len(slowdowns), 1)
        calls = np.bincount(sp["key"], minlength=len(self.keys)) / tasks
        self_s = np.bincount(sp["key"], weights=dur - child, minlength=len(self.keys)) / tasks
        solves = int(np.count_nonzero(sp["key"] == self._key_id["orbits.find_orbit"]))
        counters = {
            "orbits.sweeps": self.sweeps / tasks,
            "orbits.newton_steps": self.newton_steps / tasks,
            "orbits.converged_ratio": self.solves_converged / solves if solves else 0.0,
            "orbits.candidates_mean": self.candidates / solves if solves else 0.0,
            "invariants.beta_cond": max(self.beta_conds, default=0.0),
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for name in names:
            key, _, stat = name.rpartition(".")
            if name in counters:
                out[name] = counters[name]
            elif key not in self._key_id:
                raise KeyError(f"per-layer metric {name!r} names no traced function")
            elif stat == "calls":
                out[name] = float(calls[self._key_id[key]])
            elif stat == "self_s":
                out[name] = float(self_s[self._key_id[key]])
            elif stat in ("ms_p50", "ms_p90"):
                d = dur[sp["key"] == self._key_id[key]]
                out[name] = float(np.percentile(d, int(stat[-2:])) * 1e3) if d.size else 0.0
            else:
                raise KeyError(f"unknown per-layer metric {name!r}")
        return out


def _class_tree(base: type) -> list[type]:
    tree, todo = [], [base]
    while todo:
        cls = todo.pop()
        tree.append(cls)
        todo.extend(cls.__subclasses__())
    return tree

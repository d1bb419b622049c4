"""In-memory span recording around the public functions of fpbsim's layers.

The benchmark wraps every public function defined in the five fpbsim
modules (plus the ``qmath.Unitary4`` constructor) and replaces each
binding of the original object in every loaded ``fpbsim`` namespace, so
that calls made through ``from .qmath import tensor``-style imports are
intercepted too. ``uninstall`` puts every binding back.

A span is (name, start, end, parent, op id), held in flat arrays and
written once when the run ends. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("cli", "probe", "error_model", "montecarlo", "qmath")

#: Classes whose construction is traced like a function call.
TRACED_CLASSES = {"qmath": ("Unitary4",)}

#: No new traced op starts once this many spans are held (about 30 MB).
SPAN_CAP = 1_000_000


class Recorder:
    """Span store; spans are recorded only while an op id is set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self.stack = [-1]
        self.op: int | None = None
        # Objective evaluations seen by the fit, and how many were inside
        # the parameter box (only those run the forward model).
        self.objective_calls = 0
        self.inbox_calls = 0

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op_of, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict[str, tuple[int, float]]:
        """Calls and total self seconds for every span name."""
        import numpy as np

        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        names = np.frombuffer(self.name, dtype=np.int32)
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=dur - child, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(total[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span as one .npz file (times relative to the first)."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=float)
        origin = start[0] if len(start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=start - origin,
            end=np.frombuffer(self.end, dtype=float) - origin,
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op_of, dtype=np.int64),
        )


def program_modules() -> dict[str, object]:
    """Every loaded module of the fpbsim package, by name."""
    return {
        name: module
        for name, module in sys.modules.items()
        if module is not None and (name == "fpbsim" or name.startswith("fpbsim."))
    }


def snapshot() -> dict[str, dict[str, object]]:
    """Every attribute binding of every loaded fpbsim module."""
    return {name: dict(vars(module)) for name, module in program_modules().items()}


def changed_bindings(before: dict[str, dict[str, object]]) -> list[str]:
    """Bindings that differ (by identity) from an earlier ``snapshot``."""
    after = snapshot()
    changed = []
    for mod in sorted(set(before) | set(after)):
        old, new = before.get(mod, {}), after.get(mod, {})
        for key in sorted(set(old) | set(new)):
            if key not in old or key not in new or old[key] is not new[key]:
                changed.append(f"{mod}.{key}")
    return changed


def _targets() -> dict[int, tuple[object, str]]:
    """id(original) -> (original, span name) for every traced callable."""
    targets = {}
    for layer in LAYERS:
        module = sys.modules.get(f"fpbsim.{layer}")
        if module is None:
            continue
        for key, value in vars(module).items():
            if key.startswith("_"):
                continue
            is_own_function = (
                inspect.isfunction(value) and value.__module__ == module.__name__
            )
            if is_own_function or key in TRACED_CLASSES.get(layer, ()):
                targets[id(value)] = (value, f"{layer}.{key}")
    return targets


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Replace every binding of a traced callable; returns what to restore."""
    targets = _targets()
    wrappers = {key: recorder.wrap(fn, name) for key, (fn, name) in targets.items()}
    replaced = []
    for module in program_modules().values():
        for key, value in list(vars(module).items()):
            if id(value) in targets and targets[id(value)][0] is value:
                replaced.append((module, key, value))
                setattr(module, key, wrappers[id(value)])
    em = sys.modules.get("fpbsim.error_model")
    make_objective = getattr(em, "_make_objective", None)
    if make_objective is not None:
        replaced.append((em, "_make_objective", make_objective))
        em._make_objective = _counting_objective(
            make_objective, recorder, em.ANGLE_BOUND
        )
    return replaced


def uninstall(replaced: list[tuple[object, str, object]]) -> None:
    for module, key, original in reversed(replaced):
        setattr(module, key, original)


def _counting_objective(make_objective, recorder: Recorder, bound: float):
    """Count the fit's objective evaluations and those inside the box."""

    @functools.wraps(make_objective)
    def make(*args, **kwargs):
        objective = make_objective(*args, **kwargs)

        def counted(x):
            if recorder.op is not None:
                recorder.objective_calls += 1
                if all(abs(float(v)) < bound for v in x):
                    recorder.inbox_calls += 1
            return objective(x)

        return counted

    return make

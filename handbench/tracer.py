"""Spans and counts around handkit's public functions, installed from outside.

``install`` replaces each function listed in ``LAYERS`` with a wrapper at
every handkit module attribute bound to it (so ``rodrigues_with_jacobian`` is
wrapped where ``kinematics`` imported it, and the container functions where
``synth``, ``ik_net`` and ``hand_model`` imported them).  Methods are wrapped
on their class.  The returned ``Installation`` puts every original back.

A wrapper records one span per call: name, start, end and the index of the
enclosing wrapped call.  Spans stay in memory; ``write_spans`` dumps them
when the run ends.  A layer's self time is its span time minus the part of
that interval its child spans cover.  ``Tracer.start_window`` marks where the
measured window begins: calls, self times and counts come from the spans
after it, and the spans before it (the workload's set-up) are reported apart
as ``setup.<name>.self_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

#: handkit module -> wrapped public functions (``Class.method`` for methods).
#: ``cli`` (a thin wrapper over these) and ``profiler`` (analytic counting,
#: well under a millisecond) are left out on purpose.
LAYERS = {
    "rotations": ("rodrigues_with_jacobian",),
    "kinematics": ("fk_forward", "fk_backward"),
    "hand_model": ("make_desk_hand", "regress_joints"),
    "bio_dof": ("expand_batch", "sample_uniform"),
    "ik_optim": ("fit", "bend_penalty_with_grad"),
    "ik_net": ("train", "batch_loss", "MlpIk.forward", "MlpIk.backward",
               "featurize_batch", "generate_pairs", "save_checkpoint",
               "load_checkpoint"),
    "metrics": ("evaluate", "fscore", "procrustes_align"),
    "lixel": ("decode", "encode"),
    "synth": ("make_pose_library", "augment_library", "save_pose_library",
              "load_pose_library", "sample_cameras", "project"),
    "containers": ("write_container", "read_container"),
}

SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in LAYERS.items()
                   for fn in fns)

#: counts recorded at the layer boundaries, with their units
COUNTERS = {
    "kinematics.fk_forward.rows": "count",
    "ik_optim.fit.iterations": "count",
    "ik_optim.fit.improved_ratio": "ratio",
    "containers.bytes_written": "bytes",
    "containers.bytes_read": "bytes",
}


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


def _count_rows(counts, args, kwargs, result):
    counts["kinematics.fk_forward.rows"] += result.joints.shape[0]


def _count_iterations(counts, args, kwargs, result):
    counts["ik_optim.fit.iterations"] += len(result.loss_trace)


def _count_written(counts, args, kwargs, result):
    counts["containers.bytes_written"] += os.path.getsize(_path_arg(args, kwargs))


def _count_read(counts, args, kwargs, result):
    counts["containers.bytes_read"] += os.path.getsize(_path_arg(args, kwargs))


_HOOKS = {
    "kinematics.fk_forward": _count_rows,
    "ik_optim.fit": _count_iterations,
    "containers.write_container": _count_written,
    "containers.read_container": _count_read,
}


class Tracer:
    """In-memory span log and counters; ``recording`` False passes calls through."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.recording = True
        self.window_start = 0           # index of the first measured span
        self._stack: list[int] = []

    def start_window(self) -> None:
        """Spans from here on are the measured window; counts restart."""
        if self._stack:
            raise RuntimeError("a wrapped call is still open")
        self.window_start = len(self.spans)
        self.counts.clear()

    def wrap(self, name, fn):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        wrapper.__handbench_original__ = fn
        return wrapper

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per wrapped name: window ``calls`` and ``self_s``, then set-up ``self_s``; then counts."""
        window = self_times(self.spans, self.window_start, len(self.spans))
        setup = self_times(self.spans, 0, self.window_start)
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            calls, self_s = window.get(name, (0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for name in SPAN_NAMES:
            out[f"setup.{name}.self_s"] = (setup.get(name, (0, 0.0))[1], "s")
        for name, unit in COUNTERS.items():
            out[name] = (self.counts.get(name, 0), unit)
        return out


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans, first: int, stop: int) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, summed self time) of ``spans[first:stop]``.

    ``spans`` holds (name, start, end, parent index or -1) tuples.  Children
    are found over the whole list, so a span's self time does not depend on
    where the range is cut.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for index in range(first, stop):
        name, start, end, _ = spans[index]
        acc = out[name]
        acc[0] += 1
        acc[1] += (end - start) - _covered(children.get(index, ()), start, end)
    return {name: (calls, self_s) for name, (calls, self_s) in out.items()}


def _handkit_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "handkit" or name.startswith("handkit."))]


def _resolve(module_name, dotted):
    owner = importlib.import_module(f"handkit.{module_name}")
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Installation:
    """The replaced (owner, attribute, original) triples of one ``install``."""

    def __init__(self):
        self.replaced: list[tuple[object, str, object]] = []

    def restore(self):
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every function of ``LAYERS`` wherever a handkit module binds it."""
    if wrapped_attributes():
        raise RuntimeError("handkit is already traced")
    importlib.import_module("handkit")
    modules = _handkit_modules()
    inst = Installation()
    for module_name, fns in LAYERS.items():
        for dotted in fns:
            owner, attr = _resolve(module_name, dotted)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(f"{module_name}.{dotted}", original)
            if isinstance(owner, type):
                inst.replaced.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        inst.replaced.append((module, name, original))
                        setattr(module, name, wrapper)
    return inst


def wrapped_attributes() -> list[str]:
    """Names of handkit attributes that are still wrappers (empty when clean)."""
    found = []
    for module in _handkit_modules():
        for name, value in vars(module).items():
            if hasattr(value, "__handbench_original__"):
                found.append(f"{module.__name__}.{name}")
            elif isinstance(value, type):
                found.extend(f"{module.__name__}.{name}.{attr}"
                             for attr, member in vars(value).items()
                             if hasattr(member, "__handbench_original__"))
    return found


def write_spans(tracer: Tracer, path: Path, header: dict) -> None:
    """One JSON header line, then one line per span in start order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")

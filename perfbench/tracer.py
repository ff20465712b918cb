"""Span tracer that wraps swapforge's public functions from outside the package.

A target is patched at every binding its callers look up: the defining
module's attribute, each ``from .x import f`` copy in another swapforge
module, or the class attribute for a method.  The package itself is not
edited.  Spans (name, start, end, parent, run id) are kept in compact
in-memory arrays and written out once, at exit.

Nesting is tracked on one stack, so a traced run must execute the package
on a single thread (the benchmark sets ``SWAPFORGE_THREADS=1``).
"""

from __future__ import annotations

import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Per-layer span name -> (module, attribute path inside the module).
TARGETS = {
    "engine.apply_element": ("swapforge.engine", "apply_element"),
    "engine.chain": ("swapforge.engine", "chain"),
    "engine.average_negativity": ("swapforge.engine", "average_negativity"),
    "engine.disturbance_check": ("swapforge.engine", "disturbance_check"),
    "states.PovmElement.init": ("swapforge.states", "PovmElement.__post_init__"),
    "states.Povm.init": ("swapforge.states", "Povm.__post_init__"),
    "states.DensityMatrix.init": ("swapforge.states", "DensityMatrix.__post_init__"),
    "states.PureState.init": ("swapforge.states", "PureState.__post_init__"),
    "states.PureState.reduced": ("swapforge.states", "PureState.reduced"),
    "states.read_povm": ("swapforge.states", "read_povm"),
    "linalg.hermitian_eig": ("swapforge.linalg", "hermitian_eig"),
    "linalg.trace_norm": ("swapforge.linalg", "trace_norm"),
    "linalg.partial_transpose": ("swapforge.linalg", "partial_transpose"),
    "measures.negativity": ("swapforge.measures", "negativity"),
    "measures.trace_distance": ("swapforge.measures", "trace_distance"),
    "measures.i_concurrence": ("swapforge.measures", "i_concurrence"),
    "families.build_family": ("swapforge.families", "build_family"),
    "classify.classify_element": ("swapforge.classify", "classify_element"),
    "config.load_scenario_config": ("swapforge.config", "load_scenario_config"),
    "experiment.run_sweep": ("swapforge.experiment", "run_sweep"),
    "experiment.run_scenario": ("swapforge.experiment", "run_scenario"),
    "sampling.random_povm": ("swapforge.sampling", "random_povm"),
}

# OutcomeRecord fields filled by i_concurrence; reads of them are counted
# so that concurrences nobody looks at show up as wasted work.
CONCURRENCE_FIELDS = ("c14vs23", "c12vs34")


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.run_id = 0
        self.counters = {
            "branches_kept": 0,
            "read_povm_bytes": 0,
            "concurrence_fields_set": 0,
            "concurrence_fields_read": 0,
        }
        self.chain_rounds: dict[int, int] = {}

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_call=None):
        """A stand-in for fn that records one span per call.  on_call(span,
        args, result) records counters for the call."""
        nid = self.intern(name)
        name_id, parent, run, start, end, stack = (
            self.name_id, self.parent, self.run, self.start, self.end, self.stack,
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_call is not None:
                on_call(idx, args, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total self seconds, total seconds).

        Self time is a span's duration minus the time its direct children
        cover; children on one thread never overlap, so that is their sum.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=dur - covered, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        return {
            name: (int(calls[i]), float(self_s[i]), float(total[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Write every span as arrays (names indexed by name_id)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name), or None when the package no longer has it;
    a target that is gone simply records no spans."""
    owner = sys.modules.get(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


def _bindings(fn):
    """Every swapforge module global bound to fn."""
    return [
        (mod, key)
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == "swapforge" or mod_name.startswith("swapforge."))
        for key, value in list(vars(mod).items())
        if value is fn
    ]


class _CountedField:
    """Data descriptor standing in for a dataclass field.  The value stays
    in the instance dict under the field's own name, so records outlive
    the patch unharmed; a record set while tracing counts its first read."""

    def __init__(self, name: str, tracer: Tracer):
        self.name = name
        self.read_key = "_traced_read_" + name
        self.counters = tracer.counters

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value
        obj.__dict__[self.read_key] = False
        self.counters["concurrence_fields_set"] += 1

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        if obj.__dict__.get(self.read_key) is False:
            obj.__dict__[self.read_key] = True
            self.counters["concurrence_fields_read"] += 1
        return obj.__dict__[self.name]


@contextmanager
def tracing(tracer: Tracer, verify_checks: dict):
    """Patch every target, each entry of verify_checks (name -> check
    function) and the concurrence fields for the duration of the block,
    then restore the originals."""
    import swapforge.engine as engine

    counters = tracer.counters

    def kept(idx, args, result):
        counters["branches_kept"] += result[1] is not None

    def read_bytes(idx, args, result):
        counters["read_povm_bytes"] += os.path.getsize(args[0])

    def rounds(idx, args, result):
        tracer.chain_rounds[idx] = len(args[0].rounds)

    hooks = {
        "engine.apply_element": kept,
        "states.read_povm": read_bytes,
        "engine.chain": rounds,
    }
    undo = []
    try:
        for name, (module_name, attr_path) in TARGETS.items():
            found = _resolve(module_name, attr_path)
            if found is None:
                continue
            owner, attr = found
            original = getattr(owner, attr)
            wrapped = tracer.wrap(name, original, hooks.get(name))
            sites = [(owner, attr)] if isinstance(owner, type) else _bindings(original)
            for site, key in sites:
                undo.append((site, key, original))
                setattr(site, key, wrapped)
        for check, fn in list(verify_checks.items()):
            undo.append((verify_checks, check, fn))
            verify_checks[check] = tracer.wrap(f"verify.{check}", fn)
        for field in CONCURRENCE_FIELDS:
            undo.append((engine.OutcomeRecord, field, None))
            setattr(engine.OutcomeRecord, field, _CountedField(field, tracer))
        yield tracer
    finally:
        for site, key, original in reversed(undo):
            if isinstance(site, dict):
                site[key] = original
            elif original is None:
                delattr(site, key)
            else:
                setattr(site, key, original)

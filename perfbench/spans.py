"""Span recorder for the traced pass.

The recorder wraps public rholab functions where each module binds them
(`rholab.density.hermitian_eig`, `rholab.cli.evolve_lindblad`, ...) and
`DensityOperator.__init__`, records one span per call in memory, and puts
every original back when it is closed.  A span is
`[name, start, end, parent index, pass id, info]`; `info` is a number taken
from the call (matrix dimension, steps, rows) for the per-layer counts.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
from time import perf_counter


def _eig_dim(args, kwargs, result):
    return len(args[0])


def _evolve_steps(args, kwargs, result):
    """Steps implied by the integrator's documented fixed-step rule."""
    t_end = kwargs["t_end"] if "t_end" in kwargs else args[2]
    dt = kwargs["dt"] if "dt" in kwargs else args[3]
    n_full = int(math.floor(t_end / dt + 1e-12))
    return n_full + (t_end - n_full * dt > 1e-12 * max(1.0, t_end))


def _result_len(args, kwargs, result):
    return len(result)


# span name -> (module, attribute, info extractor)
FUNCTIONS = {
    "linalg.hermitian_eig": ("rholab.linalg", "hermitian_eig", _eig_dim),
    "entropy.jump_entropy_rate": ("rholab.entropy", "jump_entropy_rate", None),
    "entropy.von_neumann_entropy": ("rholab.entropy", "von_neumann_entropy", None),
    "channels.evolve_lindblad": ("rholab.channels", "evolve_lindblad", _evolve_steps),
    "channels.eigenmatrix_decompose": ("rholab.channels", "eigenmatrix_decompose", None),
    "channels.kraus_from_decomposition": ("rholab.channels", "kraus_from_decomposition", None),
    "channels.lindblad_spectrum": ("rholab.channels", "lindblad_spectrum", None),
    "bell.sample_events": ("rholab.bell", "sample_events", _result_len),
    "bell.empirical_correlation": ("rholab.bell", "empirical_correlation", None),
    "bipartite.schmidt": ("rholab.bipartite", "schmidt", None),
    "bipartite.partial_trace_a": ("rholab.bipartite", "partial_trace_a", None),
    "bipartite.partial_trace_b": ("rholab.bipartite", "partial_trace_b", None),
    "bipartite.no_signalling_check": ("rholab.bipartite", "no_signalling_check", None),
    "cli.load_scenario": ("rholab.cli", "load_scenario", None),
    "cli.trajectory_rows": ("rholab.cli", "trajectory_rows", _result_len),
    "cli.cmd_evolve": ("rholab.cli", "cmd_evolve", None),
    "cli.cmd_sample": ("rholab.cli", "cmd_sample", None),
}
# Classes are traced through __init__, which covers every module's binding.
CLASSES = {"density.DensityOperator": ("rholab.density", "DensityOperator")}


class SpanRecorder:
    """Context manager that traces rholab calls while it is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "rholab" or n.startswith("rholab.")]
        for name, (module, attr, info) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for name, (module, attr) in CLASSES.items():
            cls = getattr(sys.modules[module], attr)
            self._patch(cls, "__init__", self._wrap(name, cls.__init__, None))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "pass": pass_id, "info": info}) + "\n")


def layer_metrics(rec: SpanRecorder, passes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of the traced passes, each a per-pass median.

    `passes` holds one dict per traced pass with its `id`, `floored` warning
    count and `bytes` written, measured by the harness.
    """
    ids = [p["id"] for p in passes]
    own = rec.self_times()
    self_s = {i: {} for i in ids}
    calls = {i: {} for i in ids}
    info = {i: {} for i in ids}
    for span, t in zip(rec.spans, own):
        name, pid = span[0], span[4]
        self_s[pid][name] = self_s[pid].get(name, 0.0) + t
        calls[pid][name] = calls[pid].get(name, 0) + 1
        if span[5] is not None:
            info[pid][name] = info[pid].get(name, 0) + span[5]

    def per_pass(table, *names):
        return statistics.median(sum(table[i].get(n, 0) for n in names) for i in ids)

    def self_time(*names):
        return float(per_pass(self_s, *names))

    eig = "linalg.hermitian_eig"
    eig_us = {d: [] for d in (2, 4, 16)}
    under_rows = 0
    for span in rec.spans:
        if span[0] != eig:
            continue
        if span[5] in eig_us:
            eig_us[span[5]].append((span[2] - span[1]) * 1e6)
        parent = span[3]
        while parent >= 0 and rec.spans[parent][0] != "cli.trajectory_rows":
            parent = rec.spans[parent][3]
        under_rows += parent >= 0
    samples = sum(info[i].get("cli.trajectory_rows", 0) for i in ids)
    steps = sum(info[i].get("channels.evolve_lindblad", 0) for i in ids)
    integrator_s = sum(self_s[i].get("channels.evolve_lindblad", 0.0) for i in ids)

    metrics = {
        f"{eig}.calls": per_pass(calls, eig),
        f"{eig}.self_s": self_time(eig),
        **{f"{eig}.d{d}.p50_us": statistics.median(v) if v else 0.0 for d, v in eig_us.items()},
        f"{eig}.calls_per_sample": under_rows / samples if samples else 0.0,
        "density.DensityOperator.calls": per_pass(calls, "density.DensityOperator"),
        "density.DensityOperator.self_s": self_time("density.DensityOperator"),
        "entropy.jump_entropy_rate.calls": per_pass(calls, "entropy.jump_entropy_rate"),
        "entropy.jump_entropy_rate.self_s": self_time("entropy.jump_entropy_rate"),
        "entropy.von_neumann_entropy.self_s": self_time("entropy.von_neumann_entropy"),
        "entropy.floored_spectra": statistics.median(p["floored"] for p in passes),
        "channels.evolve_lindblad.self_s": self_time("channels.evolve_lindblad"),
        "channels.steps": per_pass(info, "channels.evolve_lindblad"),
        "channels.step_us": integrator_s / steps * 1e6 if steps else 0.0,
    }
    for name in ("eigenmatrix_decompose", "kraus_from_decomposition", "lindblad_spectrum"):
        metrics[f"channels.{name}.self_s"] = self_time(f"channels.{name}")
    metrics["bell.sample_events.self_s"] = self_time("bell.sample_events")
    metrics["bell.events"] = per_pass(info, "bell.sample_events")
    metrics["bell.empirical_correlation.self_s"] = self_time("bell.empirical_correlation")
    metrics["bipartite.schmidt.self_s"] = self_time("bipartite.schmidt")
    metrics["bipartite.partial_trace.self_s"] = self_time(
        "bipartite.partial_trace_a", "bipartite.partial_trace_b")
    metrics["bipartite.no_signalling_check.self_s"] = self_time("bipartite.no_signalling_check")
    metrics["cli.load_scenario.self_s"] = self_time("cli.load_scenario")
    metrics["cli.trajectory_rows.self_s"] = self_time("cli.trajectory_rows")
    # Self time of the command functions is their formatting and writing.
    metrics["cli.write.self_s"] = self_time("cli.cmd_evolve", "cli.cmd_sample")
    metrics["cli.bytes_written"] = statistics.median(p["bytes"] for p in passes)
    return metrics

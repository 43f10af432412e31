"""Span tracing for the traced benchmark run, and the per-layer metrics
computed from the recorded spans.

The child process installs timing wrappers around the public layer
functions at the point where each consumer module looks them up (for
example ``ris_pls.experiments.build_response``), so the program itself is
unchanged. Spans are kept in memory as (name, start_ns, end_ns, parent
index, operation id) and written out when the child ends. A wrapped name
that has disappeared is skipped; the metrics that depend on it are then
reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

ROOT = "op"

# (module[:class], attribute, span name). Each entry is one lookup site.
WRAPS = (
    ("ris_pls.cli", "run", "experiments"),
    ("ris_pls.cli", "load_scenario", "scenario.load"),
    ("ris_pls.scenario:Scenario", "noise_power", "scenario.noise_power"),
    ("ris_pls.scenario:Scenario", "tx_signal", "scenario.tx_signal"),
    ("ris_pls.scenario", "synthesize_channels", "channel.synthesize"),
    ("ris_pls.secrecy", "effective_gains", "ofdm.effective_gains"),
    ("ris_pls.ris", "build_response", "ris.build_response"),
    ("ris_pls.experiments", "build_response", "ris.build_response"),
    ("ris_pls.codebook", "build_response", "ris.build_response"),
    ("ris_pls.scenario", "link_powers", "secrecy.link_powers"),
    ("ris_pls.experiments", "link_powers", "secrecy.link_powers"),
    ("ris_pls.codebook", "link_powers", "secrecy.link_powers"),
    ("ris_pls.experiments", "sum_sse", "secrecy.sum_sse"),
    ("ris_pls.codebook", "sum_sse", "secrecy.sum_sse"),
    ("ris_pls.experiments", "run_method", "optimize.sweep"),
    ("ris_pls.codebook", "run_method", "optimize.sweep"),
    ("ris_pls", "algorithm1", "optimize.sweep"),
    ("ris_pls.optimize", "flip_column", "ris.flip"),
    ("ris_pls.optimize", "flip_row", "ris.flip"),
    ("ris_pls.optimize", "flip_half_row", "ris.flip"),
    ("ris_pls", "exhaustive_oracle", "optimize.oracle"),
    ("ris_pls.experiments", "generate_codebook", "codebook.generate"),
    ("ris_pls.experiments", "select_config", "codebook.select"),
    ("ris_pls.codebook", "rescore_config", "codebook.rescore"),
    ("ris_pls.experiments", "scan_power_pattern", "codebook.scan"),
)

# name, unit, better, span it depends on (None: measured by the harness)
PER_LAYER = (
    ("channel.synthesize.calls", "count", "lower", "channel.synthesize"),
    ("channel.synthesize.self_s", "s", "lower", "channel.synthesize"),
    ("channel.synthesize.entries", "count", "lower", "channel.synthesize"),
    ("channel.synthesize.distinct", "count", "lower", "channel.synthesize"),
    ("channel.synthesize.distinct_ratio", "ratio", "higher", "channel.synthesize"),
    ("ofdm.effective_gains.calls", "count", "lower", "ofdm.effective_gains"),
    ("ofdm.effective_gains.self_s", "s", "lower", "ofdm.effective_gains"),
    ("ris.build_response.calls", "count", "lower", "ris.build_response"),
    ("ris.build_response.self_s", "s", "lower", "ris.build_response"),
    ("secrecy.link_powers.calls", "count", "lower", "secrecy.link_powers"),
    ("secrecy.link_powers.self_s", "s", "lower", "secrecy.link_powers"),
    ("secrecy.sum_sse.calls", "count", "lower", "secrecy.sum_sse"),
    ("secrecy.sum_sse.self_s", "s", "lower", "secrecy.sum_sse"),
    ("optimize.sweep.calls", "count", "lower", "optimize.sweep"),
    ("optimize.sweep.self_s", "s", "lower", "optimize.sweep"),
    ("optimize.candidates", "count", "lower", "optimize.sweep"),
    ("optimize.accepted", "count", "higher", "optimize.sweep"),
    ("optimize.accept_ratio", "ratio", "higher", "optimize.sweep"),
    ("optimize.us_per_candidate", "us", "lower", "optimize.sweep"),
    ("ris.flip.calls", "count", "lower", "ris.flip"),
    ("ris.flip.self_s", "s", "lower", "ris.flip"),
    ("optimize.oracle.calls", "count", "lower", "optimize.oracle"),
    ("optimize.oracle.self_s", "s", "lower", "optimize.oracle"),
    ("optimize.oracle.candidates", "count", "lower", "optimize.oracle"),
    ("optimize.oracle.ns_per_candidate", "ns", "lower", "optimize.oracle"),
    ("codebook.generate.self_s", "s", "lower", "codebook.generate"),
    ("codebook.select.calls", "count", "lower", "codebook.select"),
    ("codebook.select.self_s", "s", "lower", "codebook.select"),
    ("codebook.rescore.calls", "count", "lower", "codebook.rescore"),
    ("codebook.scan.calls", "count", "lower", "codebook.scan"),
    ("codebook.scan.angles", "count", "lower", "codebook.scan"),
    ("codebook.scan.self_s", "s", "lower", "codebook.scan"),
    ("scenario.load.calls", "count", "lower", "scenario.load"),
    ("scenario.load.self_s", "s", "lower", "scenario.load"),
    ("scenario.noise_power.calls", "count", "lower", "scenario.noise_power"),
    ("scenario.noise_power.self_s", "s", "lower", "scenario.noise_power"),
    ("scenario.tx_signal.calls", "count", "lower", "scenario.tx_signal"),
    ("scenario.tx_signal.self_s", "s", "lower", "scenario.tx_signal"),
    ("experiments.self_s", "s", "lower", "experiments"),
    ("experiments.bytes_written", "bytes", "lower", None),
    ("trace.overhead_ratio", "ratio", "lower", None),
    ("trace.unattributed_s", "s", "lower", None),
)


def _key(value):
    """Hashable stand-in for a call argument, used to count distinct inputs."""
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_key(v) for v in value)
    return value


def _on_synthesize(tracer, args, kwargs, result):
    tracer.counters["channel.synthesize.entries"] += result.num_subcarriers * result.num_elements
    tracer.distinct.add(_key(args) + _key(tuple(sorted(kwargs.items()))))


def _on_sweep(tracer, args, kwargs, result):
    trace = result[1] if isinstance(result, tuple) else result
    steps = getattr(trace, "steps", None)
    if steps is not None:
        tracer.counters["optimize.candidates"] += len(steps)
        tracer.counters["optimize.accepted"] += sum(1 for s in steps if s.accepted)


def _on_oracle(tracer, args, kwargs, result):
    tracer.counters["optimize.oracle.candidates"] += 2 ** len(result[0].bits)


def _on_scan(tracer, args, kwargs, result):
    tracer.counters["codebook.scan.angles"] += len(result)


_HOOKS = {
    "channel.synthesize": _on_synthesize,
    "optimize.sweep": _on_sweep,
    "optimize.oracle": _on_oracle,
    "codebook.scan": _on_scan,
}


def _skip_uniform(args, kwargs):
    # run_method("uniform", ...) returns the all-zeros reference without a sweep.
    return (args[0] if args else kwargs.get("method")) == "uniform"


_SKIP = {("ris_pls.experiments", "run_method"): _skip_uniform,
         ("ris_pls.codebook", "run_method"): _skip_uniform}


class Tracer:
    """In-memory span recorder for one child process."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id]
        self.stack = []
        self.op = -1
        self.counters = Counter()
        self.distinct = set()
        self.installed = set()

    def _open(self, name):
        self.spans.append([name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def operation(self, op_id):
        """Context manager: the root span of one benchmark operation."""
        tracer = self

        class _Root:
            def __enter__(self):
                tracer.op = op_id
                tracer._open(ROOT)

            def __exit__(self, *exc):
                tracer._close()
                return False

        return _Root()

    def install(self):
        for target, attr, name in WRAPS:
            module_name, _, cls_name = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if cls_name:
                    owner = getattr(owner, cls_name)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            setattr(owner, attr, self._wrap(fn, name, _HOOKS.get(name), _SKIP.get((target, attr))))
            self.installed.add(name)

    def _wrap(self, fn, name, hook, skip):
        tracer = self

        def wrapper(*args, **kwargs):
            if skip is not None and skip(args, kwargs):
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path):
        counters = dict(self.counters)
        counters["channel.synthesize.distinct"] = len(self.distinct)
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": counters,
                    "installed": sorted(self.installed),
                },
                fh,
            )


def self_times(spans):
    """(inclusive, self) seconds per span name. Self time is a span's
    duration minus the time covered by its direct children."""
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    inclusive = defaultdict(float)
    own = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        inclusive[name] += (end - start) / 1e9
        own[name] += (end - start - covered[i]) / 1e9
    return inclusive, own


def layer_metrics(dumps, traced_s, untraced_s, bytes_written):
    """Per-layer metrics of one traced session.

    `dumps` are the span files of the session's children, `traced_s` and
    `untraced_s` the summed operation times of a traced and an untraced
    session, `bytes_written` the size of the session's output files.
    Returns (metrics, absent): metrics maps every PER_LAYER name to a
    number; absent lists the names whose wrapped function was not found
    (reported as 0).
    """
    calls = Counter()
    inclusive = defaultdict(float)
    own = defaultdict(float)
    counters = Counter()
    installed = set()
    for d in dumps:
        calls.update(s[0] for s in d["spans"])
        inc, slf = self_times(d["spans"])
        for k, v in inc.items():
            inclusive[k] += v
        for k, v in slf.items():
            own[k] += v
        counters.update(d["counters"])
        installed.update(d["installed"])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for span in {row[3] for row in PER_LAYER if row[3]}:
        m[f"{span}.calls"] = calls[span]
        m[f"{span}.self_s"] = own[span]
    m["channel.synthesize.entries"] = counters["channel.synthesize.entries"]
    m["channel.synthesize.distinct"] = counters["channel.synthesize.distinct"]
    m["channel.synthesize.distinct_ratio"] = ratio(
        counters["channel.synthesize.distinct"], calls["channel.synthesize"]
    )
    m["optimize.candidates"] = counters["optimize.candidates"]
    m["optimize.accepted"] = counters["optimize.accepted"]
    m["optimize.accept_ratio"] = ratio(counters["optimize.accepted"], counters["optimize.candidates"])
    m["optimize.us_per_candidate"] = 1e6 * ratio(
        inclusive["optimize.sweep"], counters["optimize.candidates"]
    )
    m["optimize.oracle.candidates"] = counters["optimize.oracle.candidates"]
    m["optimize.oracle.ns_per_candidate"] = 1e9 * ratio(
        inclusive["optimize.oracle"], counters["optimize.oracle.candidates"]
    )
    m["codebook.scan.angles"] = counters["codebook.scan.angles"]
    m["experiments.bytes_written"] = bytes_written
    m["trace.overhead_ratio"] = ratio(traced_s, untraced_s)
    m["trace.unattributed_s"] = own[ROOT]
    absent = [name for name, _, _, span in PER_LAYER if span and span not in installed]
    metrics = {name: (0 if name in absent else m[name]) for name, _, _, _ in PER_LAYER}
    return metrics, absent

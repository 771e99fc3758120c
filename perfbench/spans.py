"""Per-layer spans recorded from outside the freqadapt package.

The tracer wraps the package's public functions only while it is
installed. A function imported by name (``from .spectral import fft2``) is
bound in several modules, so every freqadapt module attribute that holds
the original is replaced; methods are replaced on their class. Per-scalar
methods such as ``SplitMix64.normal`` are never wrapped: they run over a
million times per request and the numbers would measure the tracer.

Spans stay in memory as ``(request, id, parent, name, start_ns, end_ns)``
and are written out when the run ends. A wrapper records nothing unless a
request is open, so output checks between requests stay untraced. The
tracer assumes one thread, which holds while ``FREQADAPT_THREADS`` is unset.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

SETUP_REQUEST = 0  # the set-up, warm-up request included, is traced as request 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tensor_file_bytes(arr) -> int:
    arr = np.asarray(arr)
    return 12 + 8 * max(arr.ndim, 1) + 8 * arr.size


# Counts are computed from argument and result shapes, not measured.
def _conv_gflop(args, kwargs, result):
    c_out, c_in, k, _ = np.shape(_arg(args, kwargs, 1, "kernel"))
    _, h, w = result.shape
    return "tensor.conv2d.gflop", 2 * c_out * c_in * k * k * h * w / 1e9


def _attention_gflop(args, kwargs, result):
    xv, xt = _arg(args, kwargs, 0, "xv").data, _arg(args, kwargs, 1, "xt").data
    d_k = _arg(args, kwargs, 2, "p").d_k
    (n_v, d_v), (n_t, d_t) = xv.shape, xt.shape
    # Q, K and V projections, scores, attention times V, output projection
    flops = 2 * d_k * (n_v * d_v + 2 * n_t * d_t + 2 * n_v * n_t + n_v * d_v)
    return "crossmodal.cross_attention.gflop", flops / 1e9


def _fft_bins(args, kwargs, result):
    return "spectral.bins", _arg(args, kwargs, 0, "x").data.size


def _ifft_bins(args, kwargs, result):
    return "spectral.bins", _arg(args, kwargs, 0, "s").data.size


def _normal_draws(args, kwargs, result):
    return "rng.normal_array.draws", _arg(args, kwargs, 1, "n")


def _uniform_draws(args, kwargs, result):
    return "rng.uniform_array.draws", _arg(args, kwargs, 1, "n")


def _read_bytes(args, kwargs, result):
    return "tensorfile.read_tensor.bytes", _tensor_file_bytes(result)


def _write_bytes(args, kwargs, result):
    return "tensorfile.write_tensor.bytes", _tensor_file_bytes(_arg(args, kwargs, 1, "arr"))


# (defining module, attribute or Class.method, span name, count function)
TARGETS = (
    ("freqadapt.cli", "main", "cli.main", None),
    ("freqadapt.tensorfile", "read_tensor", "tensorfile.read_tensor", _read_bytes),
    ("freqadapt.tensorfile", "write_tensor", "tensorfile.write_tensor", _write_bytes),
    ("freqadapt.adapter", "AdapterWeights.seeded", "adapter.weights_seeded", None),
    ("freqadapt.adapter", "adapter_forward", "adapter.adapter_forward", None),
    ("freqadapt.adapter", "apply_stage", "adapter.apply_stage", None),
    ("freqadapt.tensor", "conv2d", "tensor.conv2d", _conv_gflop),
    ("freqadapt.tensor", "silu", "tensor.silu", None),
    ("freqadapt.spectral", "fft2", "spectral.fft2", _fft_bins),
    ("freqadapt.spectral", "ifft2", "spectral.ifft2", _ifft_bins),
    ("freqadapt.spectral", "decompose", "spectral.decompose", None),
    ("freqadapt.spectral", "compose", "spectral.compose", None),
    ("freqadapt.spectral", "band_energy", "spectral.band_energy", None),
    ("freqadapt.style", "style_diversify", "style.style_diversify", None),
    ("freqadapt.style", "style_transform", "style.style_transform", None),
    ("freqadapt.style", "sample_dirichlet", "style.sample_dirichlet", None),
    ("freqadapt.style", "channel_stats", "style.channel_stats", None),
    ("freqadapt.crossmodal", "cross_attention", "crossmodal.cross_attention", _attention_gflop),
    ("freqadapt.crossmodal", "amp_normalize", "crossmodal.amp_normalize", None),
    ("freqadapt.crossmodal", "spectral_normalize", "crossmodal.spectral_normalize", None),
    ("freqadapt.crossmodal", "crossmodal_forward", "crossmodal.crossmodal_forward", None),
    ("freqadapt.crossmodal", "AttentionParams.seeded", "crossmodal.attention_params_seeded", None),
    ("freqadapt.crossmodal", "high_freq_shift", "crossmodal.high_freq_shift", None),
    ("freqadapt.rng", "SplitMix64.normal_array", "rng.normal_array", _normal_draws),
    ("freqadapt.rng", "SplitMix64.uniform_array", "rng.uniform_array", _uniform_draws),
    ("freqadapt.synth", "gen_features", "synth.gen_features", None),
    ("freqadapt.synth", "gen_text_tokens", "synth.gen_text_tokens", None),
)

COUNT_KEYS = (
    "tensor.conv2d.gflop",
    "crossmodal.cross_attention.gflop",
    "spectral.bins",
    "rng.normal_array.draws",
    "rng.uniform_array.draws",
    "tensorfile.read_tensor.bytes",
    "tensorfile.write_tensor.bytes",
)


class Tracer:
    """Installs span wrappers on freqadapt and turns the spans into layer metrics."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.request_ns: dict[int, int] = {}
        self._request: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] | None = None

    # -- recording ---------------------------------------------------------

    def begin(self, request: int) -> None:
        self._request = request

    def end(self, elapsed_ns: int | None = None) -> None:
        if elapsed_ns is not None:
            self.request_ns[self._request] = elapsed_ns
        self._request = None

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = tracer._request
            if request is None:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = tracer._stack[-1] if tracer._stack else 0
            tracer._stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((request, span_id, parent, name, start, end))
            if count is not None:
                key, value = count(args, kwargs, result)
                tracer.counts[request][key] += value
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def _plan(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every place a target is bound."""
        bound = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "freqadapt"]
        plan, missing = [], []
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = getattr(owner, "__dict__", {}).get(method)
            if raw is None:
                missing.append(f"{module_name}.{attr}")
            elif not owner_name:
                wrapped = self._wrap(name, raw, count)
                plan += [(mod, key, raw, wrapped) for mod in bound
                         for key, value in list(vars(mod).items()) if value is raw]
            elif isinstance(raw, classmethod):
                plan.append((owner, method, raw, classmethod(self._wrap(name, raw.__func__, count))))
            else:
                plan.append((owner, method, raw, self._wrap(name, raw, count)))
        if missing:
            print(f"spans: not found, reported as 0: {', '.join(missing)}", file=sys.stderr)
        return plan

    def install(self) -> None:
        """Put the wrappers in place; a target the package no longer has is reported on stderr."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, requests: list[int]) -> dict[str, float]:
        """Per-request layer metrics over the traced ``requests``.

        ``<span>.self_ms`` is span time minus child spans, as a per-request
        mean; ``<span>.setup_self_ms`` is self time during the traced set-up.
        Calls and computed counts come from the first traced request, so
        they repeat exactly for a seed.
        """
        first = requests[0]
        child_ns = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent:
                child_ns[parent] += end - start
        self_ns, setup_ns, calls = (defaultdict(int) for _ in range(3))
        covered_ns = 0
        for request, span_id, parent, name, start, end in self.spans:
            own = end - start - child_ns[span_id]
            if request == SETUP_REQUEST:
                setup_ns[name] += own
                continue
            self_ns[name] += own
            if parent == 0:
                covered_ns += end - start
            if request == first:
                calls[name] += 1
        n = len(requests)
        metrics = {}
        for _, _, name, _ in TARGETS:
            metrics[f"{name}.self_ms"] = self_ns[name] / n / 1e6
            metrics[f"{name}.setup_self_ms"] = setup_ns[name] / 1e6
            metrics[f"{name}.calls"] = calls[name]
        for key in COUNT_KEYS:
            metrics[key] = self.counts[first][key]
        request_ns = sum(self.request_ns[r] for r in requests)
        metrics["trace.unattributed_frac"] = (request_ns - covered_ns) / request_ns
        return metrics

    def write(self, path, header: dict) -> None:
        """Write the header, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

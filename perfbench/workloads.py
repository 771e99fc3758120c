"""The benchmark's workloads: set-up, one request, and the check of its output.

Every input is generated from the workload seed, and request ``i`` gets a
seed of its own, so no state carries from one request to the next. Requests
call freqadapt's public functions through their modules, so the span
wrappers in ``spans.py`` see them. Checks run outside the timed interval.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import numpy as np

from freqadapt import cli, crossmodal, style, synth, tensorfile

PHASE_TOL = 1e-6  # the phase-preservation tolerance the verify suite uses
AMP_MASK = 1e-6  # only bins above this amplitude carry a meaningful phase


def derive(seed: int, *tags) -> int:
    """A 64-bit seed for one input or request, independent of freqadapt's RNG."""
    text = "/".join(str(part) for part in (seed, *tags))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")


def _phase_reference(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    spec = np.fft.fft2(x, axes=(1, 2))
    return np.angle(spec), np.abs(spec) > AMP_MASK


def _keeps_phase(out: np.ndarray, reference) -> bool:
    """Output phase equals the reference phase mod pi on the masked bins."""
    phase, mask = reference
    if out.shape != phase.shape or not np.isfinite(out).all():
        return False
    got = np.angle(np.fft.fft2(out, axes=(1, 2)))
    gap = np.abs(np.mod(got - phase + np.pi, 2.0 * np.pi) - np.pi)
    gap = np.minimum(gap, np.pi - gap)  # amplitude sign flips are exact pi shifts
    return float(gap[mask].max()) <= PHASE_TOL


class Stack:
    """``freqadapt apply stack`` in-process on 16x32x32 maps, default placement."""

    SHAPE = (16, 32, 32)
    POOL = 8

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.inputs = []
        for k in range(self.POOL):
            fm = synth.gen_features("smooth", *self.SHAPE, derive(seed, "stack-input", k))
            path = workdir / f"in{k}.ftns"
            tensorfile.write_tensor(path, fm.data)
            self.inputs.append(str(path))
        self.out = workdir / "out.ftns"
        self._stdout = io.StringIO()

    def request(self, i: int) -> int:
        argv = ["apply", "stack", "--in", self.inputs[i % self.POOL], "--out", str(self.out),
                "--seed", str(derive(self.seed, "stack", i))]
        with contextlib.redirect_stdout(self._stdout):
            return cli.main(argv)

    def check(self, i: int, code: int) -> bool:
        self._stdout.seek(0)
        self._stdout.truncate()
        if code != 0:
            return False
        out = tensorfile.read_tensor(self.out)
        self.out.unlink()  # a later request that writes nothing must not pass on this file
        return out.shape == self.SHAPE and bool(np.isfinite(out).all())


class Transforms:
    """The augmentation slot at backbone shapes: style at 64x56x56, cross-modal at 256x14x14."""

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.style_map = synth.gen_features("smooth", 64, 56, 56, derive(seed, "style-map"))
        self.cross_map = synth.gen_features("smooth", 256, 14, 14, derive(seed, "cross-map"))
        # drawn once, as trained weights would be
        self.text = synth.gen_text_tokens(8, 16, derive(seed, "text"))
        self.params = crossmodal.AttentionParams.seeded(256, 16, 64, derive(seed, "attention"))
        self.alpha = np.ones(64)
        self.style_ref = _phase_reference(self.style_map.data)
        self.cross_ref = _phase_reference(self._attended())

    def _attended(self) -> np.ndarray:
        """Cross-attention output computed here, independently of the package."""
        c, h, w = self.cross_map.shape
        p = self.params
        tokens = self.cross_map.data.reshape(c, -1).T
        q, k, v = tokens @ p.wq, self.text.data @ p.wk, self.text.data @ p.wv
        scores = q @ k.T / np.sqrt(p.d_k)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        return ((weights @ v) @ p.wo).T.reshape(c, h, w)

    def request(self, i: int):
        styled = style.style_diversify(self.style_map, self.alpha, derive(self.seed, "style", i))
        crossed = crossmodal.crossmodal_forward(self.cross_map, self.text, self.params)
        return styled, crossed

    def check(self, i: int, out) -> bool:
        styled, crossed = out
        return _keeps_phase(styled.data, self.style_ref) and _keeps_phase(crossed.data, self.cross_ref)


WORKLOADS = {"stack": Stack, "transforms": Transforms}

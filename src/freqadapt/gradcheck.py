"""Analytic directional derivatives checked against central differences.

Each transform gets a hand-derived Jacobian-vector product (JVP); the two
amplitude-spectrum JVPs run on :func:`~freqadapt.spectral.amp_map_jvp`
with the forwards' own amplitude maps. The verifier contracts each JVP
with a random cotangent and compares against the central finite
difference of the same scalar at steps 1e-4/1e-5/1e-6, reporting the best
step per probe. Probes whose spectra contain bins with
magnitude below 1e-2 are resampled: near the regularized zero of the
amplitude map the forward is effectively non-smooth and finite
differences stop being trustworthy.

Stochastic inputs are frozen per probe: the style transform is
differentiated with its statistics and weights held fixed (the affine map
an adapter would backpropagate through), while the normalization
statistics of the cross-modal transform are differentiated through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .crossmodal import (
    AttentionParams,
    TokenMatrix,
    _attend,
    _attention_terms,
    _group_mean,
    _standardize,
    cross_attention,
    crossmodal_forward,
    flatten_tokens,
    unflatten_tokens,
)
from .rng import SplitMix64, mix_seed
from .spectral import _rfft2, _unit_phasors, amp_map_jvp, mirror_weights
from .style import _amp_affine, _as_channel_vec, _style_coefficients, style_transform
from .synth import gen_text_tokens
from .tensor import FeatureMap, _sigmoid, silu

STEPS = (1e-4, 1e-5, 1e-6)
GRAD_TOL = 1e-5
MIN_CONVERGED = 0.9
PROBE_MIN_BIN = 1e-2
_REL_FLOOR = 1e-8
_PROBE_ATTEMPTS = 200

GRADCHECK_OPS = ("silu", "amp_normalize", "cross_attention", "style", "crossmodal")


@dataclass(frozen=True)
class GradReport:
    """Worst-probe outcome of one op's gradient check."""

    op_name: str
    max_rel_err: float
    num_probes: int
    step: float
    converged_fraction: float

    def __post_init__(self):
        if self.max_rel_err < 0:
            raise ValueError("max_rel_err must be >= 0")
        if self.num_probes < 1:
            raise ValueError("num_probes must be >= 1")

    @property
    def passed(self) -> bool:
        """Worst error below GRAD_TOL and at least MIN_CONVERGED of the probes converging."""
        return self.max_rel_err < GRAD_TOL and self.converged_fraction >= MIN_CONVERGED


def fd_directional(
    f: Callable[[np.ndarray], float], x: np.ndarray, direction: np.ndarray, step: float
) -> float:
    """Central difference (f(x + step*d) - f(x - step*d)) / (2*step)."""
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    if not np.any(direction):
        raise ValueError("direction must be nonzero")
    return (f(x + step * direction) - f(x - step * direction)) / (2.0 * step)


def jvp_silu(x: FeatureMap, direction: FeatureMap) -> FeatureMap:
    s = _sigmoid(x.data)
    return FeatureMap((s + x.data * s * (1.0 - s)) * direction.data)


def jvp_style_transform(x: FeatureMap, direction: FeatureMap, mu, sigma) -> FeatureMap:
    """Derivative of the fixed-affine style pipeline along ``direction``.

    ``mu``/``sigma`` are the frozen per-channel affine coefficients, i.e.
    the already-fused statistics and weights.
    """
    mu_vec = _as_channel_vec(mu, x.channels, "mu")
    sigma_vec = _as_channel_vec(sigma, x.channels, "sigma")
    return amp_map_jvp(x, direction, lambda a: _amp_affine(a, mu_vec, sigma_vec),
                       lambda a, da: sigma_vec[:, None, None] * da)


def _normalize_jvp(a, da, scope: str, weight=1.0):
    dev = a - _group_mean(a, scope, weight)
    sd = np.sqrt(_group_mean(dev * dev, scope, weight))
    dmu = _group_mean(da, scope, weight)
    dsd = _group_mean(dev * da, scope, weight) / sd
    return (da - dmu) / sd - dev * dsd / (sd * sd)


def _attention_and_jvp(xv: TokenMatrix, direction: TokenMatrix, xt: TokenMatrix,
                       p: AttentionParams) -> tuple[TokenMatrix, TokenMatrix]:
    """cross_attention(xv, xt, p) and its derivative along ``direction``, from one attention pass."""
    if direction.data.shape != xv.data.shape:
        raise ValueError("direction must match the visual token matrix shape")
    k, v, attn = _attention_terms(xv, xt, p)
    ds = np.linalg.multi_dot([direction.data, p.wq, k.T]) / math.sqrt(p.d_k)
    d_attn = attn * (ds - (attn * ds).sum(axis=1, keepdims=True))
    return (TokenMatrix(np.linalg.multi_dot([attn, v, p.wo])),
            TokenMatrix(np.linalg.multi_dot([d_attn, v, p.wo])))


def jvp_cross_attention(
    xv: TokenMatrix, direction: TokenMatrix, xt: TokenMatrix, p: AttentionParams
) -> TokenMatrix:
    """Derivative of cross-attention with respect to the visual tokens only."""
    return _attention_and_jvp(xv, direction, xt, p)[1]


def jvp_crossmodal(
    x: FeatureMap,
    direction: FeatureMap,
    xt: TokenMatrix,
    p: AttentionParams,
    scope: str = "channel",
) -> FeatureMap:
    """Derivative of the full cross-modal pipeline along ``direction``."""
    u, du = _attention_and_jvp(flatten_tokens(x), flatten_tokens(direction), xt, p)
    h, w = x.height, x.width
    weight = mirror_weights(w)
    return amp_map_jvp(unflatten_tokens(u, h, w), unflatten_tokens(du, h, w),
                       lambda a: _standardize(a, scope, weight),
                       lambda a, da: _normalize_jvp(a, da, scope, weight))


def _uniform(rng: SplitMix64, shape, low, high) -> np.ndarray:
    return rng.uniform_array(int(np.prod(shape)), low, high).reshape(shape)


def _min_bin(x: FeatureMap) -> float:
    return float(np.abs(_rfft2(x)).min())


def _guarded(draw):
    """The probe of the first ``draw()`` = (probe, map) whose map clears PROBE_MIN_BIN."""
    for _ in range(_PROBE_ATTEMPTS):
        probe, checked = draw()
        if _min_bin(checked) >= PROBE_MIN_BIN:
            return probe
    raise RuntimeError("could not draw a probe clearing the spectral magnitude guard")


def _on_arrays(kind, fn, *args):
    """fn(kind(a), kind(b), ..., *args).data as a function of the arrays a, b, ..."""
    return lambda *arrays: fn(*map(kind, arrays), *args).data


# A probe builder draws from its stream and returns (f, jvp, x, d): the
# forward f(x) and the derivative jvp(x, d) on arrays, at the point x along
# the direction d.


def _probe_silu(rng: SplitMix64):
    x = _uniform(rng, (3, 6, 6), -2.0, 2.0)
    d = _uniform(rng, (3, 6, 6), -3.0, 3.0)
    return _on_arrays(FeatureMap, silu), _on_arrays(FeatureMap, jvp_silu), x, d


def _probe_amp_normalize(rng: SplitMix64):
    """Mirror-weighted standardization of a half-spectrum amplitude, as spectral_normalize runs it."""
    a = _unit_phasors(_rfft2(FeatureMap(_uniform(rng, (3, 6, 6), -1.0, 1.0))))
    weight = mirror_weights(6)
    d = _uniform(rng, a.shape, -3.0, 3.0)
    return (lambda m: _standardize(m, "channel", weight),
            lambda m, dm: _normalize_jvp(m, dm, "channel", weight), a, d)


def _probe_cross_attention(rng: SplitMix64):
    xv = _uniform(rng, (8, 4), -1.0, 1.0)
    xt = TokenMatrix(_uniform(rng, (5, 3), -1.0, 1.0))
    params = AttentionParams.seeded(4, 3, 4, rng.next_u64())
    d = _uniform(rng, (8, 4), -3.0, 3.0)
    return (_on_arrays(TokenMatrix, cross_attention, xt, params),
            _on_arrays(TokenMatrix, jvp_cross_attention, xt, params), xv, d)


def _probe_style(rng: SplitMix64):
    shape = (3, 8, 8)

    def draw():
        x = FeatureMap(_uniform(rng, shape, -1.0, 1.0))
        return x, x

    x = _guarded(draw)
    mu, sigma = _style_coefficients(x, 1.0, rng.next_u64())
    d = _uniform(rng, shape, -3.0, 3.0)
    return (_on_arrays(FeatureMap, style_transform, mu, sigma),
            _on_arrays(FeatureMap, jvp_style_transform, mu, sigma), x.data, d)


def _probe_crossmodal(rng: SplitMix64):
    shape = (3, 8, 8)

    def draw():
        # attention weights are redrawn too: some weights leave a small bin in every output
        xt = gen_text_tokens(5, 4, rng.next_u64())
        params = AttentionParams.seeded(shape[0], 4, 8, rng.next_u64())
        x = FeatureMap(_uniform(rng, shape, -1.0, 1.0))
        return (x, xt, params), _attend(x, xt, params)

    x, xt, params = _guarded(draw)
    d = _uniform(rng, shape, -3.0, 3.0)
    return (_on_arrays(FeatureMap, crossmodal_forward, xt, params),
            _on_arrays(FeatureMap, jvp_crossmodal, xt, params), x.data, d)


_PROBES = {
    "silu": _probe_silu,
    "amp_normalize": _probe_amp_normalize,
    "cross_attention": _probe_cross_attention,
    "style": _probe_style,
    "crossmodal": _probe_crossmodal,
}


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), _REL_FLOOR)


def run_gradcheck(ops=GRADCHECK_OPS, seed: int = 0, probes: int = 50) -> list[GradReport]:
    """Gradient-check the selected ops; failures are reported, never raised.

    Per probe, the JVP and the forward are contracted with a random
    cotangent, and the relative error is taken at the best of the three
    steps; the report carries the worst probe. ``converged_fraction`` is
    the share of probes whose discrepancy shrank when the step dropped
    from 1e-4 to 1e-5, the second-order signature of central differences.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    unknown = [op for op in ops if op not in _PROBES]
    if unknown:
        raise ValueError(f"unknown gradcheck ops {unknown}; expected from {sorted(_PROBES)}")
    reports = []
    for name in ops:
        build = _PROBES[name]
        op_tag = GRADCHECK_OPS.index(name)  # probe streams keyed by op, not selection order
        worst = -1.0
        worst_step = STEPS[0]
        converged = 0
        for probe_index in range(probes):
            rng = SplitMix64(mix_seed(mix_seed(seed, 7000 + op_tag), probe_index))
            f, jvp, x, d = build(rng)
            tangent = jvp(x, d)
            cot = _uniform(rng, tangent.shape, -1.0, 1.0)
            analytic = float(np.sum(cot * tangent))

            def scalar(m):
                return float(np.sum(cot * f(m)))

            errs = [_rel_err(analytic, fd_directional(scalar, x, d, step)) for step in STEPS]
            best = min(range(len(STEPS)), key=errs.__getitem__)
            if errs[best] > worst:
                worst = errs[best]
                worst_step = STEPS[best]
            if errs[1] < errs[0]:
                converged += 1
        reports.append(GradReport(name, max(worst, 0.0), probes, worst_step, converged / probes))
    return reports

"""Analytic directional derivatives checked against central differences.

Each transform gets a hand-derived Jacobian-vector product (JVP); the
verifier contracts it with a random cotangent and compares against the
central finite difference of the same scalar at steps 1e-4/1e-5/1e-6,
reporting the best step per probe. Probes whose spectra contain bins with
magnitude below 1e-2 are resampled: near the regularized zero of the
amplitude map the forward is effectively non-smooth and finite
differences stop being trustworthy.

Stochastic inputs are frozen per probe: the style transform is
differentiated with its statistics and weights held fixed (the affine map
an adapter would backpropagate through), while the normalization
statistics of the cross-modal transform are differentiated through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .crossmodal import (
    AttentionParams,
    TokenMatrix,
    _group_mean,
    _standardize,
    cross_attention,
    crossmodal_forward,
    flatten_tokens,
    unflatten_tokens,
)
from .rng import SplitMix64, mix_seed
from .spectral import _irfft2, _rfft2, _unit_phasors, fft2, mirror_weights
from .style import channel_stats, sample_dirichlet, style_transform, _as_channel_vec
from .synth import gen_text_tokens
from .tensor import FeatureMap, _sigmoid, silu

STEPS = (1e-4, 1e-5, 1e-6)
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


def fd_directional(f: Callable[[FeatureMap], float], x: FeatureMap, direction: FeatureMap, step: float) -> float:
    """Central difference (f(x + step*d) - f(x - step*d)) / (2*step)."""
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    if not np.any(direction.data):
        raise ValueError("direction must be nonzero")
    fp = f(FeatureMap(x.data + step * direction.data))
    fm = f(FeatureMap(x.data - step * direction.data))
    return (fp - fm) / (2.0 * step)


def jvp_silu(x: FeatureMap, direction: FeatureMap) -> FeatureMap:
    s = _sigmoid(x.data)
    return FeatureMap((s + x.data * s * (1.0 - s)) * direction.data)


def _polar_jvp(z: np.ndarray, dz: np.ndarray):
    """Amplitude and unit phasor z/|z| of z, plus amplitude and phase derivatives along dz."""
    re, im = z.real, z.imag
    r2 = re * re + im * im
    if np.any(r2 == 0.0):
        raise ValueError("phase derivative undefined at zero-magnitude bins")
    unit = np.array(z)
    a = _unit_phasors(unit)
    da = (re * dz.real + im * dz.imag) / a
    dp = (re * dz.imag - im * dz.real) / r2
    return a, da, unit, dp


def _compose_jvp(a_new, da_new, unit, dp) -> np.ndarray:
    return unit * (da_new + 1j * a_new * dp)


def jvp_style_transform(x: FeatureMap, direction: FeatureMap, mu, sigma) -> FeatureMap:
    """Derivative of the fixed-affine style pipeline along ``direction``.

    ``mu``/``sigma`` are the frozen per-channel affine coefficients, i.e.
    the already-fused statistics and weights.
    """
    mu_vec = _as_channel_vec(mu, x.channels, "mu")[:, None, None]
    sigma_vec = _as_channel_vec(sigma, x.channels, "sigma")[:, None, None]
    a, da, unit, dp = _polar_jvp(_rfft2(x), _rfft2(direction))
    a_new = sigma_vec * a + mu_vec
    da_new = sigma_vec * da
    return _irfft2(_compose_jvp(a_new, da_new, unit, dp), x.shape)


def _normalize_jvp(a, da, scope: str, weight=1.0):
    dev = a - _group_mean(a, scope, weight)
    sd = np.sqrt(_group_mean(dev * dev, scope, weight))
    dmu = _group_mean(da, scope, weight)
    dsd = _group_mean(dev * da, scope, weight) / sd
    return (da - dmu) / sd - dev * dsd / (sd * sd)


def jvp_cross_attention(
    xv: TokenMatrix, direction: TokenMatrix, xt: TokenMatrix, p: AttentionParams
) -> TokenMatrix:
    """Derivative of cross-attention with respect to the visual tokens only."""
    if direction.data.shape != xv.data.shape:
        raise ValueError("direction must match the visual token matrix shape")
    cross_attention(xv, xt, p)  # reuse the forward's dimension validation
    q = xv.data @ p.wq
    dq = direction.data @ p.wq
    k = xt.data @ p.wk
    v = xt.data @ p.wv
    scale = np.sqrt(float(p.d_k))
    s = q @ k.T / scale
    ds = dq @ k.T / scale
    shifted = s - s.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    attn = e / e.sum(axis=1, keepdims=True)
    d_attn = attn * (ds - (attn * ds).sum(axis=1, keepdims=True))
    return TokenMatrix((d_attn @ v) @ p.wo)


def jvp_crossmodal(
    x: FeatureMap,
    direction: FeatureMap,
    xt: TokenMatrix,
    p: AttentionParams,
    scope: str = "channel",
) -> FeatureMap:
    """Derivative of the full cross-modal pipeline along ``direction``."""
    xv = flatten_tokens(x)
    dxv = flatten_tokens(direction)
    u = unflatten_tokens(cross_attention(xv, xt, p), x.height, x.width)
    du = unflatten_tokens(jvp_cross_attention(xv, dxv, xt, p), x.height, x.width)
    a, da, unit, dp = _polar_jvp(_rfft2(u), _rfft2(du))
    weight = mirror_weights(x.width)
    a_norm = _standardize(a, scope, weight)  # the forward's standardization, degenerate-group guard included
    da_norm = _normalize_jvp(a, da, scope, weight)
    return _irfft2(_compose_jvp(a_norm, da_norm, unit, dp), x.shape)


def _uniform(rng: SplitMix64, shape, low, high) -> np.ndarray:
    return rng.uniform_array(int(np.prod(shape)), low, high).reshape(shape)


def _min_bin(x: FeatureMap) -> float:
    return float(np.abs(fft2(x).data).min())


def _guarded_map(rng: SplitMix64, shape) -> FeatureMap:
    for _ in range(_PROBE_ATTEMPTS):
        x = FeatureMap(_uniform(rng, shape, -1.0, 1.0))
        if _min_bin(x) >= PROBE_MIN_BIN:
            return x
    raise RuntimeError("could not draw a probe clearing the spectral magnitude guard")


def _probe_silu(rng: SplitMix64):
    shape = (3, 6, 6)
    x = FeatureMap(_uniform(rng, shape, -2.0, 2.0))
    d = FeatureMap(_uniform(rng, shape, -3.0, 3.0))
    cot = _uniform(rng, shape, -1.0, 1.0)
    analytic = float(np.sum(cot * jvp_silu(x, d).data))

    def fd_at(step: float) -> float:
        return fd_directional(lambda m: float(np.sum(cot * silu(m).data)), x, d, step)

    return analytic, fd_at


def _probe_amp_normalize(rng: SplitMix64):
    """Mirror-weighted standardization of a half-spectrum amplitude, as spectral_normalize runs it."""
    shape = (3, 6, 6)
    a = _unit_phasors(_rfft2(FeatureMap(_uniform(rng, shape, -1.0, 1.0))))
    weight = mirror_weights(shape[2])
    d = _uniform(rng, a.shape, -3.0, 3.0)
    cot = _uniform(rng, a.shape, -1.0, 1.0)
    analytic = float(np.sum(cot * _normalize_jvp(a, d, "channel", weight)))

    def fd_at(step: float) -> float:
        fp = float(np.sum(cot * _standardize(a + step * d, "channel", weight)))
        fm = float(np.sum(cot * _standardize(a - step * d, "channel", weight)))
        return (fp - fm) / (2.0 * step)

    return analytic, fd_at


def _probe_cross_attention(rng: SplitMix64):
    xv = TokenMatrix(_uniform(rng, (8, 4), -1.0, 1.0))
    xt = TokenMatrix(_uniform(rng, (5, 3), -1.0, 1.0))
    params = AttentionParams.seeded(4, 3, 4, rng.next_u64())
    d = _uniform(rng, (8, 4), -3.0, 3.0)
    cot = _uniform(rng, (8, 4), -1.0, 1.0)
    analytic = float(np.sum(cot * jvp_cross_attention(xv, TokenMatrix(d), xt, params).data))

    def fd_at(step: float) -> float:
        fp = float(np.sum(cot * cross_attention(TokenMatrix(xv.data + step * d), xt, params).data))
        fm = float(np.sum(cot * cross_attention(TokenMatrix(xv.data - step * d), xt, params).data))
        return (fp - fm) / (2.0 * step)

    return analytic, fd_at


def _probe_style(rng: SplitMix64):
    shape = (3, 8, 8)
    x = _guarded_map(rng, shape)
    stats = channel_stats(x)
    weights = sample_dirichlet(np.ones(shape[0]), rng.next_u64())
    eff = weights.effective()
    mu = eff * stats.mu_base
    sigma = eff * stats.sigma_base
    d = FeatureMap(_uniform(rng, shape, -3.0, 3.0))
    cot = _uniform(rng, shape, -1.0, 1.0)
    analytic = float(np.sum(cot * jvp_style_transform(x, d, mu, sigma).data))

    def fd_at(step: float) -> float:
        return fd_directional(
            lambda m: float(np.sum(cot * style_transform(m, mu, sigma).data)), x, d, step
        )

    return analytic, fd_at


def _probe_crossmodal(rng: SplitMix64):
    shape = (3, 8, 8)
    x = None
    for _ in range(_PROBE_ATTEMPTS):
        # attention weights are redrawn too: some weights leave a small bin in every output
        xt = gen_text_tokens(5, 4, rng.next_u64())
        params = AttentionParams.seeded(shape[0], 4, 8, rng.next_u64())
        cand = FeatureMap(_uniform(rng, shape, -1.0, 1.0))
        enhanced = unflatten_tokens(
            cross_attention(flatten_tokens(cand), xt, params), shape[1], shape[2]
        )
        if _min_bin(enhanced) >= PROBE_MIN_BIN:
            x = cand
            break
    if x is None:
        raise RuntimeError("could not draw a probe clearing the spectral magnitude guard")
    d = FeatureMap(_uniform(rng, shape, -3.0, 3.0))
    cot = _uniform(rng, shape, -1.0, 1.0)
    analytic = float(np.sum(cot * jvp_crossmodal(x, d, xt, params).data))

    def fd_at(step: float) -> float:
        return fd_directional(
            lambda m: float(np.sum(cot * crossmodal_forward(m, xt, params).data)), x, d, step
        )

    return analytic, fd_at


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

    Per probe, the relative error is taken at the best of the three steps;
    the report carries the worst probe. ``converged_fraction`` is the
    share of probes whose discrepancy shrank when the step dropped from
    1e-4 to 1e-5, the second-order signature of central differences.
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
            analytic, fd_at = build(rng)
            errs = [_rel_err(analytic, fd_at(step)) for step in STEPS]
            best = min(range(len(STEPS)), key=errs.__getitem__)
            if errs[best] > worst:
                worst = errs[best]
                worst_step = STEPS[best]
            if errs[1] < errs[0]:
                converged += 1
        reports.append(GradReport(name, max(worst, 0.0), probes, worst_step, converged / probes))
    return reports

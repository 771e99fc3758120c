"""Analytic directional derivatives checked against Ridders' extrapolation of central differences.

Each transform gets a hand-derived Jacobian-vector product (JVP); the two
amplitude-spectrum JVPs run on :func:`amp_map_jvp` with the forwards' own
amplitude maps, through the block core of
:func:`~freqadapt.spectral.amp_map`. The verifier contracts each JVP
with a random cotangent and compares against Ridders' extrapolation of
the central finite differences of the same scalar at steps
1e-4/1e-5/1e-6. Probes whose spectra contain bins with
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
    _attend,
    _attention_terms,
    _group_mean,
    _standardize,
    cross_attention,
    crossmodal_forward,
    flatten_tokens,
    unflatten_tokens,
)
from .errors import ShapeMismatchError
from .rng import SplitMix64, mix_seed
from .spectral import _rewrite_blocks, _rfft2, _unit_phasors, mirror_weights
from .style import _amp_affine, _as_channel_vec, _style_coefficients, style_transform
from .synth import gen_text_tokens
from .tensor import FeatureMap, Matrix, _sigmoid, silu

STEPS = (1e-4, 1e-5, 1e-6)
_STEP_RATIO = 10.0  # each step of STEPS is the one before over this
_RIDDERS_SAFE = 2.0  # stop once a higher order errs this much more than the best so far
GRAD_TOL = 1e-5
MIN_CONVERGED = 0.9
PROBE_MIN_BIN = 1e-2
_REL_FLOOR = 1e-8
_PROBE_ATTEMPTS = 200


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


def _ridders(diffs: list[float], ratio: float) -> tuple[float, int]:
    """Ridders' extrapolation to step 0 of central differences at steps h, h/ratio, h/ratio^2, ...

    Ridders, Adv. Eng. Software 4(2), 1982; Numerical Recipes, section 5.7.
    A central difference errs by a series in h^2, so each order of the
    tableau cancels one more term of it. The estimate is the entry that
    agrees best with the two lower-order entries it was built from, and
    the tableau stops once its diagonal drifts by _RIDDERS_SAFE times
    that agreement, where rounding starts to dominate. Returns the
    estimate and the index of the step whose column gave it.
    """
    fac0 = ratio * ratio
    prev = [diffs[0]]
    best, err, at = diffs[0], math.inf, 0
    for i in range(1, len(diffs)):
        col = [diffs[i]]
        fac = fac0
        for j in range(1, i + 1):
            col.append((col[j - 1] * fac - prev[j - 1]) / (fac - 1.0))
            fac *= fac0
            errt = max(abs(col[j] - col[j - 1]), abs(col[j] - prev[j - 1]))
            if errt <= err:
                best, err, at = col[j], errt, i
        if abs(col[i] - prev[i - 1]) >= _RIDDERS_SAFE * err:
            break
        prev = col
    return best, at


def _check_direction(x, direction) -> None:
    """Raise ShapeMismatchError unless ``direction`` has the shape of the point ``x``."""
    if direction.shape != x.shape:
        raise ShapeMismatchError(
            f"direction shape {direction.shape} does not match the input's {x.shape}")


def amp_map_jvp(
    x: FeatureMap, direction: FeatureMap, fn: Callable[[np.ndarray], np.ndarray], dfn: Callable
) -> FeatureMap:
    """Derivative of amp_map(x, fn) along ``direction``, through amp_map's block core.

    ``dfn(a, da)`` is the derivative of ``fn`` at ``a`` along ``da``. A bin
    u * a with unit phasor u becomes u * fn(a), so along a bin derivative
    with amplitude part da and phase part dp it moves by
    u * (dfn(a, da) + i * fn(a) * dp). ``fn`` runs before ``dfn``, so the
    forward's guards fire first. It runs once, in its whole-map form
    fn(a), on the whole map as one block: the zero-bin check fires before
    it. The residue guard and the finiteness check are amp_map's.
    """
    _check_direction(x, direction)

    def rewrite(z, channels):
        dz = _rfft2(direction.data[channels])
        re, im = z.real, z.imag
        r2 = re * re + im * im
        if np.any(r2 == 0.0):
            raise ValueError("phase derivative undefined at zero-magnitude bins")
        da = re * dz.real + im * dz.imag
        dp = (re * dz.imag - im * dz.real) / r2
        a = _unit_phasors(z)
        da /= a
        new = fn(a)
        z *= dfn(a, da) + 1j * new * dp
        return z

    return _rewrite_blocks(x, rewrite, False)


def jvp_silu(x: FeatureMap, direction: FeatureMap) -> FeatureMap:
    _check_direction(x, direction)
    s = _sigmoid(x.data)
    return FeatureMap._adopt((s + x.data * s * (1.0 - s)) * direction.data)


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


def _attention_and_jvp(xv: Matrix, direction: Matrix, xt: Matrix,
                       p: AttentionParams) -> tuple[Matrix, Matrix]:
    """cross_attention(xv, xt, p) and its derivative along ``direction``, from one attention pass."""
    _check_direction(xv, direction)
    k, v, attn = _attention_terms(xv, xt, p)
    ds = np.linalg.multi_dot([direction.data, p.wq, k.T]) / math.sqrt(p.d_k)
    d_attn = attn * (ds - (attn * ds).sum(axis=1, keepdims=True))
    return (Matrix._adopt(np.linalg.multi_dot([attn, v, p.wo])),
            Matrix._adopt(np.linalg.multi_dot([d_attn, v, p.wo])))


def jvp_cross_attention(
    xv: Matrix, direction: Matrix, xt: Matrix, p: AttentionParams
) -> Matrix:
    """Derivative of cross-attention with respect to the visual tokens only."""
    return _attention_and_jvp(xv, direction, xt, p)[1]


def jvp_crossmodal(
    x: FeatureMap,
    direction: FeatureMap,
    xt: Matrix,
    p: AttentionParams,
    scope: str = "channel",
) -> FeatureMap:
    """Derivative of the full cross-modal pipeline along ``direction``."""
    _check_direction(x, direction)  # the token matrices alone miss a transposed plane
    u, du = _attention_and_jvp(flatten_tokens(x), flatten_tokens(direction), xt, p)
    h, w = x.height, x.width
    weight = mirror_weights(w)
    return amp_map_jvp(unflatten_tokens(u, h, w), unflatten_tokens(du, h, w),
                       lambda a: _standardize(a, scope, weight),
                       lambda a, da: _normalize_jvp(a, da, scope, weight))


def _uniform(rng: SplitMix64, shape, low, high) -> np.ndarray:
    return rng.uniform_array(int(np.prod(shape)), low, high).reshape(shape)


def _min_bin(x: FeatureMap) -> float:
    return float(np.abs(_rfft2(x.data)).min())


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
    a = _unit_phasors(_rfft2(_uniform(rng, (3, 6, 6), -1.0, 1.0)))
    weight = mirror_weights(6)
    d = _uniform(rng, a.shape, -3.0, 3.0)
    return (lambda m: _standardize(m, "channel", weight),
            lambda m, dm: _normalize_jvp(m, dm, "channel", weight), a, d)


def _probe_cross_attention(rng: SplitMix64):
    xv = _uniform(rng, (8, 4), -1.0, 1.0)
    xt = Matrix(_uniform(rng, (5, 3), -1.0, 1.0))
    params = AttentionParams.seeded(4, 3, 4, rng.next_u64())
    d = _uniform(rng, (8, 4), -3.0, 3.0)
    return (_on_arrays(Matrix, cross_attention, xt, params),
            _on_arrays(Matrix, jvp_cross_attention, xt, params), xv, d)


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
# The ops in order; an op's index tags its probe streams (7000 + index)
GRADCHECK_OPS = tuple(_PROBES)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), _REL_FLOOR)


def run_gradcheck(ops=GRADCHECK_OPS, seed: int = 0, probes: int = 50) -> list[GradReport]:
    """Gradient-check the selected ops; failures are reported, never raised.

    Per probe, the JVP and the forward are contracted with a random
    cotangent, and the relative error is taken against :func:`_ridders`'
    extrapolation of the central differences at the three steps; the
    report carries the worst probe and the step whose column gave its
    estimate. ``converged_fraction`` is the share of probes whose
    discrepancy shrank when the step dropped from 1e-4 to 1e-5, the
    second-order signature of central differences.
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

            diffs = [fd_directional(scalar, x, d, step) for step in STEPS]
            estimate, at = _ridders(diffs, _STEP_RATIO)
            err = _rel_err(analytic, estimate)
            if err > worst:
                worst = err
                worst_step = STEPS[at]
            if _rel_err(analytic, diffs[1]) < _rel_err(analytic, diffs[0]):
                converged += 1
        reports.append(GradReport(name, max(worst, 0.0), probes, worst_step, converged / probes))
    return reports

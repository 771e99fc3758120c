"""Self-verification suites behind the ``verify`` command.

Each check draws its own seeded corpus, measures the quantity its
contract pins, and reports pass/fail with the measured value, so a run's
output doubles as evidence. The independent references live here too:
the direct-DFT oracle comparison, a scalar-loop attention recomputation,
and the pinned golden values for the documented random streams.
"""

from __future__ import annotations

import json
import math
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .adapter import AdapterWeights, PlacementConfig, adapter_forward, apply_stage, run_stack
from .crossmodal import (
    AttentionParams,
    _standardize,
    cross_attention,
    crossmodal_forward,
    high_freq_shift,
    spectral_normalize,
)
from .errors import DegenerateSpectrumError
from .gradcheck import GRAD_TOL, GRADCHECK_OPS, MIN_CONVERGED, run_gradcheck
from .rng import mix_seed
from .spectral import (
    _irfft2,
    _mirror_residue,
    _rfft2,
    _unit_phasors,
    conjugate_asymmetry,
    decompose,
    dft2_oracle,
    fft2,
    mirror_weights,
)
from .style import sample_dirichlet, style_diversify, style_transform
from .synth import gen_features, gen_text_tokens
from .tensor import FeatureMap, Matrix
from .tensorfile import read_tensor, write_tensor

# corpus used by the high-frequency emphasis checks: low-passed noise with a
# constant channel lift, i.e. a smooth activation-like map whose DC dominates
_HF_CORPUS = dict(channels=4, height=8, width=8, lift=4.0, tokens=8, text_dim=16, d_k=64)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rand_map(rng: np.random.Generator, c: int, h: int, w: int) -> FeatureMap:
    return FeatureMap(rng.uniform(-1.0, 1.0, size=(c, h, w)))


def check_spectral(seed: int = 0) -> list[CheckResult]:
    """The shipped half-spectrum transforms against the oracle and the FFT's identities.

    Conjugate symmetry, which lets the half spectrum stand for the full
    grid, is checked on the full-grid reference :func:`fft2`.
    """
    rng = np.random.default_rng(mix_seed(seed, 101))
    results = []

    worst = 0.0
    for c in (1, 3):
        for h in (2, 3, 4, 5, 8):
            for w in (2, 3, 4, 5, 8):
                x = _rand_map(rng, c, h, w)
                diff = np.abs(_rfft2(x) - dft2_oracle(x)[:, :, : w // 2 + 1]).max()
                worst = max(worst, float(diff))
    results.append(CheckResult(
        "fft_vs_direct_dft", worst <= 1e-10, f"max_abs_err={worst:.3e} tol=1e-10"
    ))

    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(4, 10))
        w = int(rng.integers(4, 10))
        x = _rand_map(rng, c, h, w)
        power = np.abs(_rfft2(x)) ** 2 * mirror_weights(w)
        spatial = float((x.data**2).sum())
        spectral_side = float(power.sum()) / (h * w)
        worst = max(worst, abs(spatial - spectral_side) / max(abs(spatial), 1e-300))
    results.append(CheckResult(
        "parseval_energy", worst <= 1e-8, f"max_rel_err={worst:.3e} tol=1e-8 (1000 maps)"
    ))

    worst = 0.0
    worst_res = 0.0
    for _ in range(50):
        x = _rand_map(rng, 3, 8, 8)
        z = _rfft2(x)
        residue = _mirror_residue(z, x.width)
        back = _irfft2(z, np.empty(x.shape))
        worst = max(worst, float(np.abs(back - x.data).max()))
        worst_res = max(worst_res, residue)
    results.append(CheckResult(
        "fft_roundtrip", worst <= 1e-10 and worst_res <= 1e-10,
        f"max_abs_err={worst:.3e} max_mirror_residue={worst_res:.3e} tol=1e-10"
    ))

    worst = 0.0
    for _ in range(50):
        x = _rand_map(rng, 2, 6, 7)
        y = _rand_map(rng, 2, 6, 7)
        a, b = rng.uniform(-2, 2, size=2)
        combo = _rfft2(FeatureMap(a * x.data + b * y.data))
        split = a * _rfft2(x) + b * _rfft2(y)
        worst = max(worst, float(np.abs(combo - split).max()))
    results.append(CheckResult(
        "fft_linearity", worst <= 1e-10, f"max_abs_err={worst:.3e} tol=1e-10"
    ))

    worst = 0.0
    for _ in range(50):
        x = _rand_map(rng, 2, 5, 8)
        worst = max(worst, conjugate_asymmetry(fft2(x)))
    results.append(CheckResult(
        "conjugate_symmetry", worst <= 1e-9, f"max_asymmetry={worst:.3e} tol=1e-9"
    ))
    return results


def _phase_gap(x: FeatureMap, out: FeatureMap) -> float:
    """Largest phase change, mod pi, from ``x`` to ``out`` over the bins where |X| > 1e-6."""
    amp, phase = decompose(fft2(x))
    mask = amp > 1e-6
    d = np.abs(np.mod(decompose(fft2(out))[1][mask] - phase[mask] + np.pi, 2.0 * np.pi) - np.pi)
    d = np.minimum(d, np.abs(np.pi - d))  # pi flips from negative amplitudes are exact
    return float(d.max())


def check_style(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(mix_seed(seed, 202))
    results = []

    worst = 0.0
    for _ in range(100):
        x = _rand_map(rng, 3, 8, 8)
        out = style_transform(x, 0.0, 1.0)
        worst = max(worst, float(np.abs(out.data - x.data).max()))
    results.append(CheckResult(
        "identity_affine_hook", worst <= 1e-9, f"max_abs_err={worst:.3e} tol=1e-9"
    ))

    worst = 0.0
    for i in range(1000):
        x = _rand_map(rng, 3, 8, 8)
        out = style_diversify(x, np.ones(3), mix_seed(seed, 40_000 + i))
        worst = max(worst, _phase_gap(x, out))
    results.append(CheckResult(
        "phase_preservation", worst <= 1e-6,
        f"max_phase_dev={worst:.3e} rad tol=1e-6 (1000 maps, bins with amp>1e-6)"
    ))

    ok = True
    for i in range(10):
        x = _rand_map(rng, 2, 6, 6)
        a = style_diversify(x, (1.0, 2.0), mix_seed(seed, 50_000 + i))
        b = style_diversify(x, (1.0, 2.0), mix_seed(seed, 50_000 + i))
        ok = ok and np.array_equal(a.data, b.data) and a.shape == x.shape
    results.append(CheckResult("determinism_bitwise", ok, "10 repeated runs identical"))

    violations = 0
    trials = 10_000
    for i in range(trials):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(2, 10))
        w = int(rng.integers(2, 10))
        x = _rand_map(rng, c, h, w)
        try:
            out = style_diversify(x, np.ones(c), mix_seed(seed, 60_000 + i))
        except Exception:
            violations += 1
            continue
        if out.shape != x.shape:
            violations += 1
    results.append(CheckResult(
        "symmetry_safety", violations == 0,
        f"{violations} violations in {trials} trials (residue guard 1e-8 relative)"
    ))
    return results


def _attention_scalar_loop(xv, xt, p) -> np.ndarray:
    """Scalar-loop attention recomputation with fsum accumulation."""
    fsum = math.fsum
    q = [[fsum(xv[i][a] * p.wq[a][j] for a in range(len(xv[0]))) for j in range(p.d_k)]
         for i in range(len(xv))]
    k = [[fsum(xt[i][a] * p.wk[a][j] for a in range(len(xt[0]))) for j in range(p.d_k)]
         for i in range(len(xt))]
    v = [[fsum(xt[i][a] * p.wv[a][j] for a in range(len(xt[0]))) for j in range(p.d_k)]
         for i in range(len(xt))]
    scale = math.sqrt(p.d_k)
    out = []
    for i in range(len(q)):
        scores = [fsum(q[i][a] * k[j][a] for a in range(p.d_k)) / scale for j in range(len(k))]
        m = max(scores)
        exps = [math.exp(s - m) for s in scores]
        z = fsum(exps)
        attn = [e / z for e in exps]
        ctx = [fsum(attn[j] * v[j][a] for j in range(len(k))) for a in range(p.d_k)]
        row = [fsum(ctx[a] * p.wo[a][b] for a in range(p.d_k)) for b in range(p.wo.shape[1])]
        out.append(row)
    return np.asarray(out)


def check_crossmodal(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(mix_seed(seed, 303))
    results = []

    # the half-spectrum standardization spectral_normalize runs, with the
    # mirror-weighted statistics recomputed independently by np.average
    worst_mean = 0.0
    worst_std = 0.0
    worst_phase = 0.0
    for _ in range(1000):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        x = _rand_map(rng, c, h, w)
        weight = mirror_weights(w)
        out = _standardize(_unit_phasors(_rfft2(x)), "channel", weight)
        full = np.broadcast_to(weight, out.shape)
        mean = np.average(out, axis=(1, 2), weights=full)
        var = np.average((out - mean[:, None, None]) ** 2, axis=(1, 2), weights=full)
        worst_mean = max(worst_mean, float(np.abs(mean).max()))
        worst_std = max(worst_std, float(np.abs(np.sqrt(var) - 1.0).max()))
        worst_phase = max(worst_phase, _phase_gap(x, spectral_normalize(x)))
    results.append(CheckResult(
        "amp_normalize_contract",
        worst_mean <= 1e-10 and worst_std <= 1e-10 and worst_phase <= 1e-6,
        f"max|mean|={worst_mean:.3e} max|std-1|={worst_std:.3e} tol=1e-10, "
        f"max_phase_dev={worst_phase:.3e} rad tol=1e-6 (1000 maps, half spectrum, "
        f"mirror-weighted)"
    ))

    worst = 0.0
    for _ in range(200):
        xv = Matrix(rng.uniform(-1, 1, size=(4, 3)))
        xt = Matrix(rng.uniform(-1, 1, size=(3, 2)))
        p = AttentionParams.seeded(3, 2, 2, int(rng.integers(0, 2**63)))
        got = cross_attention(xv, xt, p).data
        ref = _attention_scalar_loop(xv.data, xt.data, p)
        worst = max(worst, float(np.abs(got - ref).max()))
    results.append(CheckResult(
        "attention_scalar_loop", worst <= 1e-12, f"max_abs_err={worst:.3e} tol=1e-12 (200 instances)"
    ))

    cfg = _HF_CORPUS
    pos = 0
    dc_pipeline_ok = 0
    dc_channel_ok = 0
    qualifying_total = 0
    n = 100
    for i in range(n):
        base = gen_features("smooth", cfg["channels"], cfg["height"], cfg["width"],
                            mix_seed(seed, 5000 + i))
        x = FeatureMap(base.data + cfg["lift"])
        amp = decompose(fft2(x))[0]
        mu = amp.mean(axis=(1, 2))
        sd = amp.std(axis=(1, 2))
        normalized = decompose(fft2(spectral_normalize(x)))[0]
        chan_ok = True
        for c in range(cfg["channels"]):
            if amp[c, 0, 0] > mu[c] + sd[c]:
                qualifying_total += 1
                before = amp[c, 0, 0] ** 2 / (amp[c] ** 2).sum()
                after = normalized[c, 0, 0] ** 2 / (normalized[c] ** 2).sum()
                chan_ok = chan_ok and after < before
        if chan_ok:
            dc_channel_ok += 1
        text = gen_text_tokens(cfg["tokens"], cfg["text_dim"], mix_seed(seed, 6000 + i))
        params = AttentionParams.seeded(cfg["channels"], cfg["text_dim"], cfg["d_k"],
                                        mix_seed(seed, 7000 + i))
        out = crossmodal_forward(x, text, params)
        if high_freq_shift(x, out, 0.25) > 0.0:
            pos += 1
        amp_out = decompose(fft2(out))[0]
        share_in = float((amp[:, 0, 0] ** 2).sum() / (amp**2).sum())
        share_out = float((amp_out[:, 0, 0] ** 2).sum() / (amp_out**2).sum())
        if share_out < share_in:
            dc_pipeline_ok += 1
    results.append(CheckResult(
        "high_freq_emphasis", pos >= 95 and dc_pipeline_ok == n,
        f"hf_shift>0 in {pos}/{n} (need >=95), DC share drop through pipeline {dc_pipeline_ok}/{n}"
    ))
    results.append(CheckResult(
        "dc_suppression_per_channel", dc_channel_ok == n and qualifying_total > 0,
        f"qualifying-channel share drop in {dc_channel_ok}/{n} maps "
        f"({qualifying_total} qualifying channels)"
    ))

    degenerate_ok = False
    try:
        zero = FeatureMap(np.zeros((2, 4, 4)))
        zero_text = Matrix(np.zeros((3, 5)))
        params = AttentionParams.seeded(2, 5, 4, 1)
        crossmodal_forward(zero, zero_text, params)
    except DegenerateSpectrumError:
        degenerate_ok = True
    results.append(CheckResult(
        "degenerate_spectrum_rejected", degenerate_ok, "all-zero enhanced map raises"
    ))
    return results


def check_grad(seed: int = 0, probes: int = 50) -> list[CheckResult]:
    results = []
    for report in run_gradcheck(GRADCHECK_OPS, seed=seed, probes=probes):
        results.append(CheckResult(
            f"grad_{report.op_name}", report.passed,
            f"max_rel_err={report.max_rel_err:.3e} tol={GRAD_TOL:g}, "
            f"step_convergence={report.converged_fraction:.0%} (need >={MIN_CONVERGED:.0%}), "
            f"{report.num_probes} probes, best_step={report.step:g}"
        ))
    return results


def check_frame(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(mix_seed(seed, 404))
    results = []

    ok = True
    worst = 0.0
    for _ in range(10):
        x = _rand_map(rng, 3, 6, 6)
        out = adapter_forward(x, AdapterWeights.zero_identity(3))
        ok = ok and np.array_equal(out.data, x.data)
        worst = max(worst, float(np.abs(out.data - x.data).max()))
    results.append(CheckResult(
        "zero_weight_identity", ok, f"exact identity, max_abs_err={worst:.1e}"
    ))

    cfg = PlacementConfig(seed=mix_seed(seed, 405))
    stages = [_rand_map(rng, 3, 6, 6) for _ in range(3)]
    out1 = run_stack(stages, cfg)
    out2 = run_stack(stages, cfg)
    untouched = np.array_equal(out1[1].data, stages[1].data)
    changed = not np.array_equal(out1[0].data, stages[0].data) and not np.array_equal(
        out1[2].data, stages[2].data
    )
    repeat = all(np.array_equal(a.data, b.data) for a, b in zip(out1, out2))
    shuffled = [apply_stage(stages[i], cfg, i + 1) for i in (2, 0, 1)]
    order_free = (
        np.array_equal(shuffled[1].data, out1[0].data)
        and np.array_equal(shuffled[2].data, out1[1].data)
        and np.array_equal(shuffled[0].data, out1[2].data)
    )
    results.append(CheckResult(
        "default_placement",
        untouched and changed and repeat and order_free,
        f"stage2 untouched={untouched}, stages 1/3 transformed={changed}, "
        f"bitwise repeat={repeat}, order independent={order_free}"
    ))
    return results


def check_io(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(mix_seed(seed, 505))
    results = []

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.ftns"
        for shape in ((7,), (3, 4), (2, 3, 5), (2, 2, 2, 2)):
            arr = rng.uniform(-10, 10, size=shape)
            write_tensor(path, arr)
            ok = ok and read_tensor(path).tobytes() == np.ascontiguousarray(arr).tobytes()
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]).reshape(1, 2, 3)
        write_tensor(path, special)
        ok = ok and read_tensor(path).tobytes() == special.tobytes()
    results.append(CheckResult("tensorfile_roundtrip", ok, "bitwise, incl. signed zeros/denormals"))

    golden = json.loads(resources.files("freqadapt").joinpath("golden.json").read_text())

    g = golden["dirichlet"]
    w = sample_dirichlet(g["alpha"], g["seed"])
    err = float(np.abs(w - np.asarray(g["weights"])).max())
    results.append(CheckResult(
        "golden_dirichlet", err <= g["tolerance"],
        f"max_abs_err={err:.3e} tol={g['tolerance']:g} (alpha={g['alpha']}, seed={g['seed']})"
    ))

    g = golden["noise"]
    got = gen_features(g["kind"], *g["shape"], g["seed"]).data.ravel()
    exact = bool(np.array_equal(got, np.asarray(g["values"])))
    results.append(CheckResult("golden_noise", exact, f"16 values exact (seed={g['seed']})"))

    g = golden["checker"]
    got = gen_features(g["kind"], *g["shape"], 0).data.ravel()
    results.append(CheckResult(
        "golden_checker", bool(np.array_equal(got, np.asarray(g["values"]))), "pattern exact"
    ))
    return results


_SUITES = {
    "spectral": (check_spectral,),
    "style": (check_style,),
    "crossmodal": (check_crossmodal,),
    "grad": (check_grad,),
    "all": (check_spectral, check_style, check_crossmodal, check_grad, check_frame, check_io),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, probes: int = 50) -> list[CheckResult]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    results = []
    for check in _SUITES[name]:
        results += check(seed, probes) if check is check_grad else check(seed)
    return results

"""Acceptance gate: every release-blocking property at its pinned tolerance.

Each test prints one pass/fail line so a verbose run doubles as the
acceptance report. Runtime budgets are asserted where the contract pins
them.
"""

import subprocess
import sys
import time

import numpy as np

from conftest import attention_oracle_mp, phase_gap_mod_pi
from freqadapt import (
    AdapterWeights,
    AttentionParams,
    FeatureMap,
    Matrix,
    PlacementConfig,
    adapter_forward,
    cross_attention,
    crossmodal_forward,
    decompose,
    dft2_oracle,
    fft2,
    high_freq_shift,
    read_tensor,
    run_gradcheck,
    run_stack,
    sample_dirichlet,
    style_diversify,
    style_transform,
    write_tensor,
)
from freqadapt.crossmodal import _standardize, spectral_normalize
from freqadapt.rng import mix_seed
from freqadapt.spectral import _rfft2, _unit_phasors, mirror_weights
from freqadapt.synth import gen_features, gen_text_tokens

SEED = 0


def report(num, ok, detail):
    print(f"\n[acceptance] criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_spectral_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(mix_seed(SEED, 1))
    worst_fft = 0.0
    for c in (1, 3):
        for h in (2, 3, 4, 5, 8):
            for w in (2, 3, 4, 5, 8):
                x = FeatureMap(rng.uniform(-1, 1, size=(c, h, w)))
                worst_fft = max(worst_fft, float(np.abs(fft2(x) - dft2_oracle(x)).max()))
    worst_parseval = 0.0
    for _ in range(1000):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(4, 10))
        w = int(rng.integers(4, 10))
        x = FeatureMap(rng.uniform(-1, 1, size=(c, h, w)))
        amp = decompose(fft2(x))[0]
        lhs = float((x.data**2).sum())
        rhs = float((amp**2).sum()) / (h * w)
        worst_parseval = max(worst_parseval, abs(lhs - rhs) / abs(lhs))
    elapsed = time.perf_counter() - start
    ok = worst_fft <= 1e-10 and worst_parseval <= 1e-8 and elapsed < 30.0
    report(1, ok, f"fft-vs-oracle max_abs={worst_fft:.2e} (tol 1e-10), "
                  f"parseval max_rel={worst_parseval:.2e} (tol 1e-8), {elapsed:.1f}s < 30s")


def test_criterion_2_phase_preservation():
    start = time.perf_counter()
    rng = np.random.default_rng(mix_seed(SEED, 2))
    worst_phase = 0.0
    for i in range(1000):
        x = FeatureMap(rng.uniform(-1, 1, size=(3, 8, 8)))
        amp_before, phase_before = decompose(fft2(x))
        out = style_diversify(x, np.ones(3), mix_seed(SEED, 20_000 + i))
        _, phase_after = decompose(fft2(out))
        mask = amp_before > 1e-6
        worst_phase = max(worst_phase, float(phase_gap_mod_pi(phase_after[mask],
                                                              phase_before[mask]).max()))
    worst_identity = 0.0
    for _ in range(100):
        x = FeatureMap(rng.uniform(-1, 1, size=(3, 8, 8)))
        out = style_transform(x, 0.0, 1.0)
        worst_identity = max(worst_identity, float(np.abs(out.data - x.data).max()))
    elapsed = time.perf_counter() - start
    ok = worst_phase <= 1e-6 and worst_identity <= 1e-9 and elapsed < 60.0
    report(2, ok, f"phase_dev max={worst_phase:.2e} rad (tol 1e-6, 1000 maps), "
                  f"identity hook max_abs={worst_identity:.2e} (tol 1e-9), {elapsed:.1f}s < 60s")


def test_criterion_3_normalization_contract():
    rng = np.random.default_rng(mix_seed(SEED, 3))
    worst_mean = worst_std = worst_phase = 0.0
    for _ in range(1000):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        x = FeatureMap(rng.uniform(-1, 1, size=(c, h, w)))
        # the half-spectrum standardization spectral_normalize runs, mirror-weighted
        weight = np.broadcast_to(mirror_weights(w), (c, h, w // 2 + 1))
        out = _standardize(_unit_phasors(_rfft2(x.data)), "channel", weight)
        mean = np.average(out, axis=(1, 2), weights=weight, keepdims=True)
        std = np.sqrt(np.average((out - mean) ** 2, axis=(1, 2), weights=weight))
        worst_mean = max(worst_mean, float(np.abs(mean).max()))
        worst_std = max(worst_std, float(np.abs(std - 1.0).max()))
        amp_before, phase_before = decompose(fft2(x))
        _, phase_after = decompose(fft2(spectral_normalize(x)))
        mask = amp_before > 1e-6
        gap = phase_gap_mod_pi(phase_after[mask], phase_before[mask])
        worst_phase = max(worst_phase, float(gap.max()))
    ok = worst_mean <= 1e-10 and worst_std <= 1e-10 and worst_phase <= 1e-6
    report(3, ok, f"max|mean|={worst_mean:.2e}, max|std-1|={worst_std:.2e} (tol 1e-10), "
                  f"phase_dev max={worst_phase:.2e} rad (tol 1e-6) on 1000 maps")


def test_criterion_4_high_frequency_emphasis():
    positive = 0
    dc_drop = 0
    n = 100
    for i in range(n):
        base = gen_features("smooth", 4, 8, 8, mix_seed(SEED, 5000 + i))
        x = FeatureMap(base.data + 4.0)
        text = gen_text_tokens(8, 16, mix_seed(SEED, 6000 + i))
        params = AttentionParams.seeded(4, 16, 64, mix_seed(SEED, 7000 + i))
        out = crossmodal_forward(x, text, params)
        if high_freq_shift(x, out, 0.25) > 0.0:
            positive += 1
        amp_in = decompose(fft2(x))[0]
        amp_out = decompose(fft2(out))[0]
        share_in = float((amp_in[:, 0, 0] ** 2).sum() / (amp_in**2).sum())
        share_out = float((amp_out[:, 0, 0] ** 2).sum() / (amp_out**2).sum())
        if share_out < share_in:
            dc_drop += 1
    ok = positive >= 95 and dc_drop == n
    report(4, ok, f"hf_shift>0 in {positive}/100 (need >=95), "
                  f"DC share strictly decreased in {dc_drop}/100 (need 100)")


def test_criterion_5_attention_correctness():
    rng = np.random.default_rng(mix_seed(SEED, 5))
    worst = 0.0
    for i in range(500):
        xv = rng.uniform(-1, 1, size=(4, 3))
        xt = rng.uniform(-1, 1, size=(3, 2))
        p = AttentionParams.seeded(3, 2, 2, mix_seed(SEED, 30_000 + i))
        got = cross_attention(Matrix(xv), Matrix(xt), p).data
        worst = max(worst, float(np.abs(got - attention_oracle_mp(xv, xt, p)).max()))
    xv = Matrix(rng.uniform(-1, 1, size=(6, 3)))
    xt = Matrix(rng.uniform(-1, 1, size=(1, 4)))
    p = AttentionParams.seeded(3, 4, 2, 1)
    out = cross_attention(xv, xt, p)
    want = (xt.data @ p.wv) @ p.wo
    degenerate_exact = all(np.array_equal(out.data[i], want[0]) for i in range(6))
    ok = worst <= 1e-12 and degenerate_exact
    report(5, ok, f"attention vs extended-precision oracle max_abs={worst:.2e} "
                  f"(tol 1e-12, 500 instances), single-token case exact={degenerate_exact}")


def test_criterion_6_gradient_checks():
    start = time.perf_counter()
    reports = run_gradcheck(seed=SEED, probes=50)
    elapsed = time.perf_counter() - start
    worst = max(r.max_rel_err for r in reports)
    conv = min(r.converged_fraction for r in reports)
    ok = (len(reports) == 5 and worst < 1e-5 and conv >= 0.9 and elapsed < 180.0)
    report(6, ok, f"5 ops x 50 probes, worst max_rel_err={worst:.2e} (tol 1e-5), "
                  f"min step-convergence={conv:.0%} (need >=90%), {elapsed:.1f}s < 180s")


def test_criterion_7_adapter_identity_and_placement():
    rng = np.random.default_rng(mix_seed(SEED, 7))
    exact = True
    for _ in range(10):
        x = FeatureMap(rng.uniform(-1, 1, size=(3, 6, 6)))
        out = adapter_forward(x, AdapterWeights.zero_identity(3))
        exact = exact and np.array_equal(out.data, x.data)
    stages = [FeatureMap(rng.uniform(-1, 1, size=(3, 6, 6))) for _ in range(3)]
    cfg = PlacementConfig(seed=mix_seed(SEED, 70))
    out1 = run_stack(stages, cfg)
    out2 = run_stack(stages, cfg)
    untouched = np.array_equal(out1[1].data, stages[1].data)
    deterministic = all(np.array_equal(a.data, b.data) for a, b in zip(out1, out2))
    ok = exact and untouched and deterministic
    report(7, ok, f"zero-weight adapter exact identity={exact}, default placement leaves "
                  f"stage 2 bitwise untouched={untouched}, repeated runs bitwise={deterministic}")


def test_criterion_8_cli_end_to_end(tmp_path):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "freqadapt", "verify", "--suite", "all",
         "--seed", "0", "--probes", "50"],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    cli_ok = proc.returncode == 0 and "FAIL" not in proc.stdout and elapsed < 300.0

    rng = np.random.default_rng(mix_seed(SEED, 8))
    path = tmp_path / "roundtrip.ftns"
    arr = rng.uniform(-1e3, 1e3, size=(3, 5, 4))
    arr[0, 0, 0] = -0.0
    write_tensor(path, arr)
    roundtrip_ok = read_tensor(path).tobytes() == arr.tobytes()

    golden_w = sample_dirichlet([1.0, 1.0, 1.0], 42)
    pinned = np.array([0.5695849246318843, 0.289399326837755, 0.14101574853036092])
    dirichlet_ok = bool(np.abs(golden_w - pinned).max() <= 1e-12)
    noise = gen_features("noise", 1, 4, 4, 7).data.ravel()
    pinned_noise = np.array([
        -0.22034050321745702, -0.9664234109436878, 0.8015213612137668, 0.16586058605615617,
        -0.09511620997706327, -0.5011369554345133, -0.0640939915542531, -0.3438465216949942,
        -0.7314834023831027, -0.17371720516444134, -0.7928801053099763, 0.9197481531461831,
        0.8360391702922647, 0.7426635197534877, 0.7280153245871976, 0.09657483319992011,
    ])
    noise_ok = bool(np.array_equal(noise, pinned_noise))
    ok = cli_ok and roundtrip_ok and dirichlet_ok and noise_ok
    report(8, ok, f"`verify --suite all` exit {proc.returncode} in {elapsed:.1f}s (< 300s), "
                  f"tensor roundtrip bitwise={roundtrip_ok}, golden dirichlet={dirichlet_ok}, "
                  f"golden noise exact={noise_ok}")

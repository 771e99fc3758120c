import subprocess
import sys

import numpy as np
import pytest

from conftest import count_fft_calls
from freqadapt import FeatureMap, read_tensor, style_diversify, write_tensor
from freqadapt.cli import _COMMAND_KEYS, _PARAMS, _flag, _merge_config, build_parser, main
from freqadapt.synth import gen_features


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_checker_pattern(self, tmp_path):
        out = tmp_path / "c.ftns"
        assert run("gen", "--kind", "checker", "--shape", "1,2,2", "--out", str(out)) == 0
        assert read_tensor(out).ravel().tolist() == [1.0, -1.0, -1.0, 1.0]

    def test_noise_matches_library(self, tmp_path):
        out = tmp_path / "n.ftns"
        assert run("gen", "--kind", "noise", "--shape", "2,3,3", "--seed", "9", "--out", str(out)) == 0
        want = gen_features("noise", 2, 3, 3, 9).data
        assert read_tensor(out).tobytes() == want.tobytes()

    def test_smooth_is_low_passed(self, tmp_path):
        from freqadapt.spectral import _band_split, _rfft2

        noise = tmp_path / "noise.ftns"
        smooth = tmp_path / "smooth.ftns"
        run("gen", "--kind", "noise", "--shape", "2,12,12", "--seed", "4", "--out", str(noise))
        run("gen", "--kind", "smooth", "--shape", "2,12,12", "--seed", "4", "--out", str(smooth))

        def high_fraction(path):
            power = np.abs(_rfft2(read_tensor(path))) ** 2
            low, high = _band_split(power, 12, 0.25)
            return high / (low + high)

        assert high_fraction(smooth) < high_fraction(noise)

    def test_missing_required(self):
        assert run("gen", "--kind", "noise") == 2

    def test_invalid_kind_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--kind", "plaid", "--shape", "1,2,2", "--out", str(tmp_path / "x"))
        assert exc.value.code == 2


class TestApply:
    def setup_input(self, tmp_path, kind="smooth", shape="3,8,8", seed="5"):
        path = tmp_path / "in.ftns"
        run("gen", "--kind", kind, "--shape", shape, "--seed", seed, "--out", str(path))
        return path

    def test_style_identity_hook(self, tmp_path, capsys):
        src = self.setup_input(tmp_path)
        dst = tmp_path / "out.ftns"
        assert run("apply", "style", "--in", str(src), "--out", str(dst), "--identity-hook") == 0
        a, b = read_tensor(src), read_tensor(dst)
        assert np.abs(a - b).max() < 1e-9
        assert "apply style" in capsys.readouterr().out

    def test_stack_all_none_bitwise(self, tmp_path):
        src = self.setup_input(tmp_path)
        dst = tmp_path / "out.ftns"
        assert run("apply", "stack", "--in", str(src), "--out", str(dst),
                   "--stage", "1=none,2=none,3=none") == 0
        assert read_tensor(dst).tobytes() == read_tensor(src).tobytes()

    @pytest.mark.parametrize("transform", ["stack", "crossmodal"])
    def test_runs_no_full_grid_fft(self, tmp_path, monkeypatch, transform):
        # the transforms and the hf_shift summary all run on the half spectrum
        src = self.setup_input(tmp_path, shape="3,8,7")
        calls = count_fft_calls(monkeypatch)
        assert run("apply", transform, "--in", str(src), "--out", str(tmp_path / "o.ftns")) == 0
        assert calls["fft2"] == calls["ifft2"] == calls["fftn"] == calls["ifftn"] == 0

    def test_stack_alpha_length_mismatch_exit_2(self, tmp_path, capsys):
        src = self.setup_input(tmp_path)
        assert run("apply", "stack", "--in", str(src), "--out", str(tmp_path / "o"),
                   "--alpha", "1,1") == 2
        assert "alpha must have length 3" in capsys.readouterr().err

    @pytest.mark.parametrize("transform, alpha", [("style", "nan,1,1"), ("stack", "inf")])
    def test_non_finite_alpha_flag_exit_2(self, tmp_path, capsys, transform, alpha):
        src = self.setup_input(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run("apply", transform, "--in", str(src), "--out", str(tmp_path / "o"),
                "--alpha", alpha)
        assert exc.value.code == 2
        assert "argument --alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("transform", ["style", "stack"])
    def test_underflowing_alpha_exit_2(self, tmp_path, capsys, transform):
        src = self.setup_input(tmp_path)
        assert run("apply", transform, "--in", str(src), "--out", str(tmp_path / "o"),
                   "--alpha", "1e-300,1e-300,1e-300") == 2
        assert "concentrations [1e-300, 1e-300, 1e-300]" in capsys.readouterr().err

    def test_stack_scalar_alpha_broadcasts(self, tmp_path):
        src = self.setup_input(tmp_path)
        d1, d2 = tmp_path / "a.ftns", tmp_path / "b.ftns"
        assert run("apply", "stack", "--in", str(src), "--out", str(d1), "--alpha", "0.5") == 0
        assert run("apply", "stack", "--in", str(src), "--out", str(d2),
                   "--alpha", "0.5,0.5,0.5") == 0
        assert d1.read_bytes() == d2.read_bytes()

    def test_crossmodal_hf_shift_positive_on_smooth(self, tmp_path, capsys):
        src = tmp_path / "in.ftns"
        base = gen_features("smooth", 4, 8, 8, 11)
        write_tensor(src, base.data + 4.0)
        dst = tmp_path / "out.ftns"
        assert run("apply", "crossmodal", "--in", str(src), "--out", str(dst), "--seed", "11") == 0
        out = capsys.readouterr().out
        assert "hf_shift@0.25=+" in out

    def test_deterministic_output(self, tmp_path):
        src = self.setup_input(tmp_path)
        d1, d2 = tmp_path / "a.ftns", tmp_path / "b.ftns"
        run("apply", "style", "--in", str(src), "--out", str(d1), "--seed", "3")
        run("apply", "style", "--in", str(src), "--out", str(d2), "--seed", "3")
        assert d1.read_bytes() == d2.read_bytes()

    def test_plain_changes_map(self, tmp_path):
        src = self.setup_input(tmp_path)
        dst = tmp_path / "out.ftns"
        assert run("apply", "plain", "--in", str(src), "--out", str(dst)) == 0
        assert not np.array_equal(read_tensor(dst), read_tensor(src))

    def test_plain_huge_map_finite_hf_shift(self, tmp_path, capsys):
        src = tmp_path / "big.ftns"
        write_tensor(src, 1e160 * np.random.default_rng(12).uniform(-1, 1, size=(3, 8, 8)))
        assert run("apply", "plain", "--in", str(src), "--out", str(tmp_path / "o.ftns")) == 0
        shift = capsys.readouterr().out.split("hf_shift@0.25=")[1].split()[0]
        assert np.isfinite(float(shift))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_style_overflow_on_huge_map_exit_2(self, tmp_path, capsys):
        # channel_stats squares deviations above about 1.3e154 to inf, and the
        # style output then fails the finiteness check of the map it is adopted as
        src = tmp_path / "huge.ftns"
        write_tensor(src, 1e155 * gen_features("noise", 3, 8, 8, 0).data)
        assert run("apply", "style", "--in", str(src), "--out", str(tmp_path / "o.ftns")) == 2
        assert "FeatureMap values must be finite" in capsys.readouterr().err

    def test_parse_failure_exit_3(self, tmp_path):
        bad = tmp_path / "bad.ftns"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert run("apply", "style", "--in", str(bad), "--out", str(tmp_path / "o")) == 3

    def test_missing_input_exit_3(self, tmp_path):
        assert run("apply", "style", "--in", str(tmp_path / "nope.ftns"),
                   "--out", str(tmp_path / "o")) == 3

    def test_wrong_ndim_exit_2(self, tmp_path):
        src = tmp_path / "two_d.ftns"
        write_tensor(src, np.ones((3, 3)))
        assert run("apply", "style", "--in", str(src), "--out", str(tmp_path / "o")) == 2

    def test_nan_map_payload_exit_3(self, tmp_path):
        src = tmp_path / "nan.ftns"
        data = np.ones((2, 4, 4))
        data[1, 2, 3] = np.nan
        write_tensor(src, data)
        assert run("apply", "style", "--in", str(src), "--out", str(tmp_path / "o")) == 3

    def test_inf_text_payload_exit_3(self, tmp_path):
        src = self.setup_input(tmp_path)
        text = tmp_path / "text.ftns"
        tokens = np.ones((4, 6))
        tokens[0, 0] = -np.inf
        write_tensor(text, tokens)
        assert run("apply", "crossmodal", "--in", str(src), "--out", str(tmp_path / "o"),
                   "--text", str(text)) == 3

    def test_three_axis_text_exit_2(self, tmp_path):
        src = self.setup_input(tmp_path)
        text = tmp_path / "text.ftns"
        write_tensor(text, np.ones((2, 4, 6)))
        assert run("apply", "crossmodal", "--in", str(src), "--out", str(tmp_path / "o"),
                   "--text", str(text)) == 2

    def test_style_raw_scale_mode_matches_library(self, tmp_path):
        src = self.setup_input(tmp_path)
        dst = tmp_path / "out.ftns"
        assert run("apply", "style", "--in", str(src), "--out", str(dst), "--seed", "6",
                   "--scale-mode", "raw") == 0
        x = FeatureMap(read_tensor(src))
        want = style_diversify(x, np.ones(x.channels), 6, scale_mode="raw")
        assert read_tensor(dst).tobytes() == want.data.tobytes()

    def test_degenerate_exit_4(self, tmp_path):
        src = tmp_path / "zero.ftns"
        write_tensor(src, np.zeros((2, 4, 4)))
        text = tmp_path / "zero_text.ftns"
        write_tensor(text, np.zeros((3, 5)))
        assert run("apply", "crossmodal", "--in", str(src), "--out", str(tmp_path / "o"),
                   "--text", str(text)) == 4

    def test_text_tokens_from_file(self, tmp_path):
        src = self.setup_input(tmp_path)
        text = tmp_path / "text.ftns"
        rng = np.random.default_rng(1)
        write_tensor(text, rng.normal(size=(4, 6)))
        dst = tmp_path / "out.ftns"
        assert run("apply", "crossmodal", "--in", str(src), "--out", str(dst),
                   "--text", str(text)) == 0

    def test_shared_parser_keeps_no_state_between_calls(self, tmp_path):
        # the reference is a first call: a fresh process builds its own parser
        src = self.setup_input(tmp_path)
        ref, first, last = (tmp_path / name for name in ("ref.ftns", "a.ftns", "c.ftns"))
        proc = subprocess.run(
            [sys.executable, "-m", "freqadapt", "apply", "stack", "--in", str(src),
             "--out", str(ref), "--seed", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert run("apply", "stack", "--in", str(src), "--out", str(first),
                   "--alpha", "2", "--seed", "5") == 0
        with pytest.raises(SystemExit) as exc:
            run("apply", "stack", "--in", str(src), "--out", str(last), "--dk", "wide")
        assert exc.value.code == 2
        assert run("apply", "stack", "--in", str(src), "--out", str(last), "--seed", "5") == 0
        assert last.read_bytes() == ref.read_bytes()
        assert first.read_bytes() != ref.read_bytes()
        assert build_parser() is build_parser()


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# generation settings\n"
            "kind = noise\n"
            "shape = 1,4,4\n"
            "seed = 3\n"
            "seed = 7\n"   # later keys override earlier
            f"out = {tmp_path / 'file.ftns'}\n"
        )
        assert run("gen", "--config", str(cfg)) == 0
        assert read_tensor(tmp_path / "file.ftns").tobytes() == \
            gen_features("noise", 1, 4, 4, 7).data.tobytes()
        assert run("gen", "--config", str(cfg), "--seed", "1",
                   "--out", str(tmp_path / "flag.ftns")) == 0
        assert read_tensor(tmp_path / "flag.ftns").tobytes() == \
            gen_features("noise", 1, 4, 4, 1).data.tobytes()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kid = noise\n")
        assert run("gen", "--config", str(cfg)) == 2
        cfg.write_text("identity_hook = 1\n")  # the one flag with no config key
        assert run("apply", "style", "--config", str(cfg)) == 2
        assert "unknown key 'identity_hook'" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert run("gen", "--config", str(cfg)) == 2

    def test_bogus_scale_mode_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.ftns"
        run("gen", "--kind", "smooth", "--shape", "3,8,8", "--seed", "5", "--out", str(src))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scale_mode = bogus\n")
        assert run("apply", "style", "--in", str(src), "--out", str(tmp_path / "o"),
                   "--config", str(cfg)) == 2
        assert "scale_mode" in capsys.readouterr().err

    def test_non_finite_alpha_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.ftns"
        run("gen", "--kind", "smooth", "--shape", "3,8,8", "--seed", "5", "--out", str(src))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = nan\n")
        assert run("apply", "style", "--in", str(src), "--out", str(tmp_path / "o"),
                   "--config", str(cfg)) == 2
        assert "alpha entries must be finite and > 0" in capsys.readouterr().err

    def test_bad_value_names_file_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# widths\ndk = wide\n")
        assert run("verify", "--config", str(cfg)) == 2
        assert f"error: {cfg}:2: dk: dk must be an integer, got 'wide'" in capsys.readouterr().err

    def test_missing_config_exit_3(self, tmp_path):
        assert run("gen", "--config", str(tmp_path / "nope.cfg")) == 3

    def test_undecodable_config_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\n\xff\xfe\n")
        assert run("verify", "--config", str(cfg)) == 3
        assert f"error: cannot read config {cfg}: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_stack_stage_assignment_from_config(self, tmp_path):
        src = tmp_path / "in.ftns"
        run("gen", "--kind", "smooth", "--shape", "3,8,8", "--seed", "5", "--out", str(src))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stage = 1=none,2=none,3=none\nseed = 17\n")
        dst = tmp_path / "out.ftns"
        assert run("apply", "stack", "--in", str(src), "--out", str(dst),
                   "--config", str(cfg)) == 0
        assert read_tensor(dst).tobytes() == read_tensor(src).tobytes()


# one accepted and one rejected value per parameter; every table key has a sample
GOOD = {
    "seed": "0x10", "alpha": "0.5,2", "dk": "8", "cut": "0.1", "stage": "1=plain,4=style",
    "in": "a.ftns", "out": "b.ftns", "text": "t.ftns", "kind": "checker", "shape": "2,3,4",
    "pgm": "h.pgm", "csv": "h.csv", "probes": "7", "ops": "silu,style", "suite": "grad",
    "norm_scope": "tensor", "scale_mode": "raw",
}
BAD = {
    "alpha": "0,1", "shape": "1,2", "stage": "1-style", "ops": "sin", "dk": "0",
    "probes": "wide", "cut": "1.5", "suite": "bogus", "kind": "plaid",
    "norm_scope": "global", "scale_mode": "bogus",
}


def parse_with(key, *argv):
    command = next(c for c, keys in _COMMAND_KEYS.items() if key in keys)
    return build_parser().parse_args([command, *(["style"] if command == "apply" else []), *argv])


class TestParameterTable:
    def test_every_key_has_samples(self):
        assert set(GOOD) == set(_PARAMS)

    @pytest.mark.parametrize("key", sorted(GOOD))
    def test_flag_and_config_value_merge_alike(self, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {GOOD[key]}\n")
        from_flag = _merge_config(parse_with(key, _flag(key), GOOD[key]))
        from_file = _merge_config(parse_with(key, "--config", str(cfg)))
        assert from_flag == from_file
        assert from_flag[key] != _PARAMS[key].default

    @pytest.mark.parametrize("key", sorted(BAD))
    def test_rejected_flag_shows_the_reason(self, capsys, key):
        with pytest.raises(ValueError) as reason:
            _PARAMS[key].parse(BAD[key])
        with pytest.raises(SystemExit) as exc:
            parse_with(key, _flag(key), BAD[key])
        assert exc.value.code == 2
        assert f"argument {_flag(key)}: {reason.value}" in capsys.readouterr().err


class TestHeatmap:
    def test_constant_map_single_peak_pgm(self, tmp_path):
        src = tmp_path / "const.ftns"
        write_tensor(src, np.full((1, 5, 4), 2.0))
        pgm = tmp_path / "hm.pgm"
        assert run("heatmap", "--in", str(src), "--pgm", str(pgm)) == 0
        raw = pgm.read_bytes()
        header, pixels = raw.split(b"\n255\n", 1)
        assert header == b"P5\n4 5"
        img = np.frombuffer(pixels, dtype=np.uint8).reshape(5, 4)
        assert img[2, 2] == 255
        assert img.sum() == 255  # everything else at 0

    def test_zero_map_all_zero_pgm(self, tmp_path):
        src = tmp_path / "zero.ftns"
        write_tensor(src, np.zeros((1, 4, 4)))
        pgm = tmp_path / "hm.pgm"
        assert run("heatmap", "--in", str(src), "--pgm", str(pgm)) == 0
        pixels = pgm.read_bytes().split(b"\n255\n", 1)[1]
        assert set(pixels) == {0}

    def test_csv_full_precision(self, tmp_path):
        from freqadapt import heatmap

        src = tmp_path / "n.ftns"
        run("gen", "--kind", "noise", "--shape", "2,4,4", "--seed", "2", "--out", str(src))
        csv_path = tmp_path / "hm.csv"
        assert run("heatmap", "--in", str(src), "--csv", str(csv_path)) == 0
        rows = [[float(v) for v in line.split(",")]
                for line in csv_path.read_text().strip().splitlines()]
        want = heatmap(FeatureMap(read_tensor(src))).data
        assert np.array_equal(np.asarray(rows), want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_scale_robust(self, tmp_path, scale):
        # at 1e150 the DC bin, about 1.6e154, would overflow when squared; at 1e-150
        # every bin sits far below the 1e-12 floor a regularized amplitude would add
        src = tmp_path / "x.ftns"
        write_tensor(src, scale * np.random.default_rng(3).uniform(0.0, 2.0, size=(2, 128, 128)))
        pgm, csv_path = tmp_path / "hm.pgm", tmp_path / "hm.csv"
        assert run("heatmap", "--in", str(src), "--pgm", str(pgm), "--csv", str(csv_path)) == 0
        rows = np.loadtxt(csv_path, delimiter=",")
        assert rows.shape == (128, 128) and np.all(np.isfinite(rows))
        pixels = np.frombuffer(pgm.read_bytes().split(b"\n255\n", 1)[1], dtype=np.uint8)
        assert pixels.min() < pixels.max()

    def test_requires_some_output(self, tmp_path):
        src = tmp_path / "n.ftns"
        run("gen", "--kind", "noise", "--shape", "1,4,4", "--out", str(src))
        assert run("heatmap", "--in", str(src)) == 2

    def test_high_band_mass_grows_through_crossmodal(self, tmp_path):
        import math

        src = tmp_path / "smooth.ftns"
        base = gen_features("smooth", 4, 8, 8, 11)
        write_tensor(src, base.data + 4.0)
        dst = tmp_path / "enhanced.ftns"
        assert run("apply", "crossmodal", "--in", str(src), "--out", str(dst), "--seed", "11") == 0

        def high_band_share(path):
            # per-bin summation over the centered CSV, radius cut 0.25;
            # share rather than raw mass, the two maps differ in scale
            csv_path = tmp_path / (path.stem + ".csv")
            assert run("heatmap", "--in", str(path), "--csv", str(csv_path)) == 0
            rows = [[float(v) for v in line.split(",")]
                    for line in csv_path.read_text().strip().splitlines()]
            h, w = len(rows), len(rows[0])
            hi = total = 0.0
            for i in range(h):
                for j in range(w):
                    dy = (i - h // 2) / max(h // 2, 1)
                    dx = (j - w // 2) / max(w // 2, 1)
                    total += rows[i][j]
                    if math.sqrt(dy * dy + dx * dx) / math.sqrt(2.0) > 0.25:
                        hi += rows[i][j]
            return hi / total

        assert high_band_share(dst) > high_band_share(src)


class TestVerifyAndGradcheck:
    def test_verify_spectral_suite(self, capsys):
        assert run("verify", "--suite", "spectral") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_failure_exits_1(self, capsys, monkeypatch):
        from freqadapt import cli
        from freqadapt.verify import CheckResult

        monkeypatch.setattr(
            cli, "run_suite",
            lambda name, seed=0, probes=50: [CheckResult("stub", False, "forced failure")],
        )
        assert run("verify", "--suite", "spectral") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tolerance_is_exclusive_in_both_commands(self, capsys, monkeypatch):
        from freqadapt import cli, verify
        from freqadapt.gradcheck import GradReport

        def at_tolerance(ops, seed=0, probes=50):
            return [GradReport(op, 1e-5, probes, 1e-5, 1.0) for op in ops]

        monkeypatch.setattr(cli, "run_gradcheck", at_tolerance)
        monkeypatch.setattr(verify, "run_gradcheck", at_tolerance)
        assert run("gradcheck", "--ops", "silu") == 1
        assert run("verify", "--suite", "grad") == 1
        out = capsys.readouterr().out
        assert "FAIL  grad_silu" in out

    def test_gradcheck_command_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "grad.csv"
        assert run("gradcheck", "--ops", "silu", "--probes", "3", "--csv", str(csv_path)) == 0
        assert "silu" in capsys.readouterr().out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("op_name")
        assert lines[1].startswith("silu")

    def test_module_entrypoint_subprocess(self, tmp_path):
        out = tmp_path / "x.ftns"
        proc = subprocess.run(
            [sys.executable, "-m", "freqadapt", "gen", "--kind", "checker",
             "--shape", "1,2,2", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert read_tensor(out).ravel().tolist() == [1.0, -1.0, -1.0, 1.0]

import subprocess
import sys

import numpy as np
import pytest

from freqadapt import read_tensor, write_tensor
from freqadapt.cli import main
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
        from freqadapt import FeatureMap, decompose, fft2
        from freqadapt.spectral import _band_split

        noise = tmp_path / "noise.ftns"
        smooth = tmp_path / "smooth.ftns"
        run("gen", "--kind", "noise", "--shape", "2,12,12", "--seed", "4", "--out", str(noise))
        run("gen", "--kind", "smooth", "--shape", "2,12,12", "--seed", "4", "--out", str(smooth))

        def high_fraction(path):
            amp = decompose(fft2(FeatureMap(read_tensor(path)))).amplitude
            low, high = _band_split(amp**2, 0.25)
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

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kid = noise\n")
        assert run("gen", "--config", str(cfg)) == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert run("gen", "--config", str(cfg)) == 2

    def test_missing_config_exit_3(self, tmp_path):
        assert run("gen", "--config", str(tmp_path / "nope.cfg")) == 3

    def test_stack_stage_assignment_from_config(self, tmp_path):
        src = tmp_path / "in.ftns"
        run("gen", "--kind", "smooth", "--shape", "3,8,8", "--seed", "5", "--out", str(src))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stage = 1=none,2=none,3=none\nseed = 17\n")
        dst = tmp_path / "out.ftns"
        assert run("apply", "stack", "--in", str(src), "--out", str(dst),
                   "--config", str(cfg)) == 0
        assert read_tensor(dst).tobytes() == read_tensor(src).tobytes()


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
        from freqadapt import FeatureMap, decompose, fft2, heatmap

        src = tmp_path / "n.ftns"
        run("gen", "--kind", "noise", "--shape", "2,4,4", "--seed", "2", "--out", str(src))
        csv_path = tmp_path / "hm.csv"
        assert run("heatmap", "--in", str(src), "--csv", str(csv_path)) == 0
        rows = [[float(v) for v in line.split(",")]
                for line in csv_path.read_text().strip().splitlines()]
        want = heatmap(decompose(fft2(FeatureMap(read_tensor(src))))).data
        assert np.array_equal(np.asarray(rows), want)

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

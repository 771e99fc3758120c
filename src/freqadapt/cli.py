"""Command-line harness: generate, transform, inspect, verify.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or shape error, 3 I/O or parse error, 4 degenerate input.

All randomness flows from ``--seed``; every command is deterministic
given its flags. Flags override config-file values, which override the
defaults. Config files hold one ``key = value`` per line with ``#``
comments; later keys override earlier ones and unknown keys are
rejected.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import functools
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .adapter import STAGE_KINDS, PlacementConfig, AdapterWeights, adapter_forward, apply_stage
from .crossmodal import (
    NORM_SCOPES,
    AttentionParams,
    TokenMatrix,
    crossmodal_forward,
    high_freq_shift,
)
from .errors import DegenerateSpectrumError, ShapeMismatchError, TensorFileError
from .gradcheck import GRAD_TOL, GRADCHECK_OPS, run_gradcheck
from .rng import mix_seed
from .spectral import heatmap
from .style import SCALE_MODES, style_diversify, style_transform
from .synth import FEATURE_KINDS, gen_features, gen_text_tokens
from .tensor import FeatureMap
from .tensorfile import read_tensor, write_tensor
from .verify import SUITE_NAMES, run_suite

_TEXT_TAG = 11
_ATTN_TAG = 12


def _parse_alpha(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"alpha must be a comma list of numbers, got {text!r}") from None
    if not vals or any(v <= 0 for v in vals):
        raise ValueError(f"alpha entries must be > 0, got {text!r}")
    return vals


def _parse_shape(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"shape must be C,H,W, got {text!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"shape must be three integers, got {text!r}") from None
    if any(d < 1 for d in dims):
        raise ValueError(f"shape dims must be >= 1, got {text!r}")
    return dims


def _parse_stage(text: str) -> dict[int, str]:
    assignments = {}
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"stage items must look like 1=style, got {item!r}")
        idx_str, kind = item.split("=", 1)
        try:
            idx = int(idx_str)
        except ValueError:
            raise ValueError(f"stage index must be an integer, got {idx_str!r}") from None
        kind = kind.strip()
        if kind not in STAGE_KINDS:
            raise ValueError(f"stage kind must be one of {STAGE_KINDS}, got {kind!r}")
        assignments[idx] = kind
    return assignments


def _parse_ops(text: str) -> tuple[str, ...]:
    ops = tuple(o.strip() for o in text.split(","))
    for op in ops:
        if op not in GRADCHECK_OPS:
            raise ValueError(f"unknown gradcheck op {op!r}; expected from {GRADCHECK_OPS}")
    return ops


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0) & ((1 << 64) - 1)
    except ValueError:
        raise ValueError(f"seed must be an integer, got {text!r}") from None


_PARSERS = {
    "seed": _parse_seed,
    "alpha": _parse_alpha,
    "dk": int,
    "cut": float,
    "stage": _parse_stage,
    "in": str,
    "out": str,
    "text": str,
    "kind": str,
    "shape": _parse_shape,
    "pgm": str,
    "csv": str,
    "probes": int,
    "ops": _parse_ops,
    "suite": str,
    "norm_scope": str,
    "scale_mode": str,
}

_KEY_TO_FIELD = {"in": "in_path", "out": "out_path"}


@dataclass
class RunConfig:
    """Merged command parameters: defaults, then config file, then flags."""

    seed: int = 0
    alpha: tuple | None = None
    dk: int = 64
    cut: float = 0.25
    stage: dict | None = None
    in_path: str | None = None
    out_path: str | None = None
    text: str | None = None
    kind: str | None = None
    shape: tuple | None = None
    pgm: str | None = None
    csv: str | None = None
    probes: int = 50
    ops: tuple = GRADCHECK_OPS
    suite: str = "all"
    norm_scope: str = "channel"
    scale_mode: str = "times_C"
    identity_hook: bool = False

    def validate(self) -> None:
        if self.dk < 1:
            raise ValueError(f"dk must be >= 1, got {self.dk}")
        if not 0.0 < self.cut < 1.0:
            raise ValueError(f"cut must be in (0, 1), got {self.cut}")
        if self.probes < 1:
            raise ValueError(f"probes must be >= 1, got {self.probes}")
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"suite must be one of {SUITE_NAMES}, got {self.suite!r}")
        if self.norm_scope not in NORM_SCOPES:
            raise ValueError(f"norm_scope must be one of {NORM_SCOPES}, got {self.norm_scope!r}")
        if self.scale_mode not in SCALE_MODES:
            raise ValueError(f"scale_mode must be one of {SCALE_MODES}, got {self.scale_mode!r}")
        if self.kind is not None and self.kind not in FEATURE_KINDS:
            raise ValueError(f"kind must be one of {FEATURE_KINDS}, got {self.kind!r}")


def _read_config_file(path: str) -> dict:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise TensorFileError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _PARSERS[key](value.strip())  # later keys override earlier ones
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in _read_config_file(args.config).items():
            setattr(cfg, _KEY_TO_FIELD.get(key, key), value)
    field_names = {f.name for f in fields(RunConfig)}
    for name in field_names:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            setattr(cfg, name, flag_value)
    cfg.validate()
    return cfg


def _load(path: str, kind):
    """Read a tensor file as ``kind``: a wrong rank exits 2, empty or non-finite values exit 3."""
    arr = read_tensor(path)
    try:
        return kind(arr)
    except ShapeMismatchError as exc:
        raise ShapeMismatchError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise TensorFileError(f"{path}: {exc}") from exc


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            flag = {"in_path": "--in", "out_path": "--out"}.get(name, "--" + name)
            raise ValueError(f"missing required parameter {flag}")


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    _require(cfg, "kind", "shape", "out_path")
    fm = gen_features(cfg.kind, *cfg.shape, cfg.seed)
    write_tensor(cfg.out_path, fm.data)
    c, h, w = fm.shape
    print(f"gen {cfg.kind} {c}x{h}x{w} seed={cfg.seed} -> {cfg.out_path}")
    return 0


def _apply_transform(transform: str, x: FeatureMap, cfg: RunConfig) -> FeatureMap:
    if transform == "style":
        if cfg.identity_hook:
            return style_transform(x, 0.0, 1.0)
        alpha = cfg.alpha if cfg.alpha is not None else np.ones(x.channels)
        return style_diversify(x, alpha, cfg.seed, scale_mode=cfg.scale_mode)
    if transform == "crossmodal":
        text = _load(cfg.text, TokenMatrix) if cfg.text else gen_text_tokens(
            8, 16, mix_seed(cfg.seed, _TEXT_TAG)
        )
        params = AttentionParams.seeded(x.channels, text.dim, cfg.dk,
                                        mix_seed(cfg.seed, _ATTN_TAG))
        return crossmodal_forward(x, text, params, scope=cfg.norm_scope)
    if transform == "plain":
        weights = AdapterWeights.seeded(x.channels, mix_seed(cfg.seed, 1))
        return adapter_forward(x, weights)
    # stack: fold the per-stage adapters over one map, in stage order
    assignments = cfg.stage if cfg.stage is not None else {1: "style", 3: "crossmodal"}
    num_stages = max([3] + list(assignments))
    placement = PlacementConfig(
        stage_assignments=assignments,
        alpha=cfg.alpha,
        text_tokens=_load(cfg.text, TokenMatrix) if cfg.text else None,
        d_k=cfg.dk,
        seed=cfg.seed,
        num_stages=num_stages,
    )
    out = x
    for index in range(1, num_stages + 1):
        out = apply_stage(out, placement, index)
    return out


def cmd_apply(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    _require(cfg, "in_path", "out_path")
    x = _load(cfg.in_path, FeatureMap)
    out = _apply_transform(args.transform, x, cfg)
    write_tensor(cfg.out_path, out.data)
    c, h, w = out.shape
    shift = high_freq_shift(x, out, cfg.cut)
    print(
        f"apply {args.transform} {c}x{h}x{w} min={out.data.min():.6g} "
        f"max={out.data.max():.6g} hf_shift@{cfg.cut:g}={shift:+.6g} -> {cfg.out_path}"
    )
    return 0


def _write_pgm(path: str, values: np.ndarray) -> None:
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        scaled = np.rint((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros(values.shape, dtype=np.uint8)  # constant field maps to all-zero
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + scaled.tobytes())


def cmd_heatmap(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    _require(cfg, "in_path")
    if cfg.pgm is None and cfg.csv is None:
        raise ValueError("heatmap needs --pgm and/or --csv")
    x = _load(cfg.in_path, FeatureMap)
    hm = heatmap(x).data
    written = []
    if cfg.pgm is not None:
        _write_pgm(cfg.pgm, hm)
        written.append(cfg.pgm)
    if cfg.csv is not None:
        with open(cfg.csv, "w", newline="") as fh:
            for row in hm:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        written.append(cfg.csv)
    print(f"heatmap {hm.shape[0]}x{hm.shape[1]} -> {', '.join(written)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    results = run_suite(cfg.suite, seed=cfg.seed, probes=cfg.probes)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<28} {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"verify {cfg.suite}: {len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    reports = run_gradcheck(cfg.ops, seed=cfg.seed, probes=cfg.probes)
    print(f"{'op':<18} {'probes':>6} {'max_rel_err':>12} {'best_step':>10} {'converged':>10}")
    for r in reports:
        print(
            f"{r.op_name:<18} {r.num_probes:>6} {r.max_rel_err:>12.3e} "
            f"{r.step:>10g} {r.converged_fraction:>9.0%}"
        )
    if cfg.csv is not None:
        with open(cfg.csv, "w", newline="") as fh:
            writer = csv_module.writer(fh)
            writer.writerow(["op_name", "max_rel_err", "num_probes", "step", "converged_fraction"])
            for r in reports:
                writer.writerow([r.op_name, repr(r.max_rel_err), r.num_probes,
                                 repr(r.step), repr(r.converged_fraction)])
        print(f"report -> {cfg.csv}")
    worst = max(r.max_rel_err for r in reports)
    print(f"gradcheck: worst max_rel_err={worst:.3e} (tol {GRAD_TOL:g})")
    return 0 if all(r.passed for r in reports) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Parsing keeps no state in the parser: each call fills a fresh
    namespace, so one parser serves every ``main`` call in a process.
    """
    parser = argparse.ArgumentParser(
        prog="freqadapt",
        description="Frequency-domain feature adapters on synthetic feature maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=_parse_seed, default=None, help="64-bit seed (default 0)")
        p.add_argument("--config", default=None, help="key = value config file")

    p = sub.add_parser("gen", help="generate a synthetic feature map")
    add_common(p)
    p.add_argument("--kind", choices=FEATURE_KINDS, default=None)
    p.add_argument("--shape", type=_parse_shape, default=None, metavar="C,H,W")
    p.add_argument("--out", dest="out_path", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("apply", help="apply a transform to a tensor file")
    add_common(p)
    p.add_argument("transform", choices=("style", "crossmodal", "plain", "stack"))
    p.add_argument("--in", dest="in_path", default=None)
    p.add_argument("--out", dest="out_path", default=None)
    p.add_argument("--alpha", type=_parse_alpha, default=None, metavar="A1,A2,...")
    p.add_argument("--dk", type=int, default=None, help="attention key dim (default 64)")
    p.add_argument("--cut", type=float, default=None, help="radial cut for hf_shift (default 0.25)")
    p.add_argument("--stage", type=_parse_stage, default=None, metavar="i=kind,...")
    p.add_argument("--text", default=None, help="2-axis tensor file of text tokens")
    p.add_argument("--norm-scope", dest="norm_scope", choices=NORM_SCOPES, default=None)
    p.add_argument("--scale-mode", dest="scale_mode", choices=SCALE_MODES, default=None)
    p.add_argument("--identity-hook", dest="identity_hook", action="store_true", default=None,
                   help="style only: force the identity affine map (verification hook)")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("heatmap", help="write the centered log-amplitude heatmap")
    add_common(p)
    p.add_argument("--in", dest="in_path", default=None)
    p.add_argument("--pgm", default=None, help="binary P5 output, min-max scaled")
    p.add_argument("--csv", default=None, help="full-precision CSV output")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("verify", help="run a verification suite")
    add_common(p)
    p.add_argument("--suite", choices=SUITE_NAMES, default=None)
    p.add_argument("--probes", type=int, default=None, help="gradcheck probes (default 50)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gradcheck", help="finite-difference gradient report")
    add_common(p)
    p.add_argument("--ops", type=_parse_ops, default=None, metavar="op1,op2,...")
    p.add_argument("--probes", type=int, default=None)
    p.add_argument("--csv", default=None, help="also write the report as CSV")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; usage errors exit 2 from argparse.

    The parser is built once per process and binds each subcommand's
    ``cmd_*`` function when it is built, so patching a ``cmd_*`` name later
    does not change what ``main`` runs. Tests that monkeypatch a ``cmd_*``
    function bypass the shared parser: they call the function themselves
    with a namespace from ``build_parser().parse_args(...)``.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TensorFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegenerateSpectrumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

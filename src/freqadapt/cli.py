"""Command-line harness: generate, transform, inspect, verify.

Exit codes are a stable contract: 0 success, 1 verification failure,
and for an error the code :data:`EXIT_CODES` gives its class; argparse
exits 2 on a usage error of its own.

All randomness flows from ``--seed``; every command is deterministic
given its flags. Flags override config-file values, which override the
defaults. Config files hold one ``key = value`` per line with ``#``
comments; later keys override earlier ones and unknown keys are
rejected.

``verify`` and ``gradcheck`` import their modules when they run, and
the ``--suite`` and ``--ops`` values import theirs when they are parsed,
so ``gen``, ``apply`` and ``heatmap`` never load the verification code.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .adapter import STAGE_KINDS, PlacementConfig, AdapterWeights, adapter_forward, apply_stage
from .crossmodal import (
    NORM_SCOPES,
    AttentionParams,
    crossmodal_forward,
    high_fraction,
)
from .errors import (DegenerateSpectrumError, NonFiniteResultError, ShapeMismatchError,
                     TensorFileError)
from .rng import mix_seed
from .spectral import heatmap
from .style import SCALE_MODES, style_diversify, style_transform
from .synth import FEATURE_KINDS, gen_features, gen_text_tokens
from .tensor import FeatureMap, Matrix, _quiet
from .tensorfile import read_tensor, write_tensor

_TEXT_TAG = 11
_ATTN_TAG = 12

# The exit code of each error a command may raise: the first class the error
# is an instance of decides, so a subclass comes before its base. Any other
# exception is a bug and escapes main with its traceback.
EXIT_CODES = {
    TensorFileError: 3,  # a file that cannot be read or parsed
    DegenerateSpectrumError: 4,  # a zero-spread amplitude group
    NonFiniteResultError: 5,  # a result that cannot be represented in float64
    ValueError: 2,  # a bad parameter or shape
    OSError: 3,  # a file that cannot be opened or written
    MemoryError: 5,  # an array that cannot be represented on this machine
}


def _parse_alpha(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"alpha must be a comma list of numbers, got {text!r}") from None
    if not all(0 < v < math.inf for v in vals):  # also false for nan
        raise ValueError(f"alpha entries must be finite and > 0, got {text!r}")
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
    from .gradcheck import GRADCHECK_OPS

    ops = tuple(o.strip() for o in text.split(","))
    for op in ops:
        if op not in GRADCHECK_OPS:
            raise ValueError(f"unknown gradcheck op {op!r}; expected from {GRADCHECK_OPS}")
    return ops


def _parse_suite(text: str) -> str:
    from .verify import SUITE_NAMES

    return _one_of("suite", SUITE_NAMES)(text)


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0) & ((1 << 64) - 1)
    except ValueError:
        raise ValueError(f"seed must be an integer, got {text!r}") from None


def _number(key: str, kind: type, in_range: Callable[[float], bool], expected: str):
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                             f"got {text!r}") from None
        if not in_range(value):  # also false for nan
            raise ValueError(f"{key} must be {expected}, got {value}")
        return value
    return parse


def _one_of(key: str, choices: tuple[str, ...]):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"{key} must be one of {choices}, got {text!r}")
        return text
    return parse


class _Param(NamedTuple):
    parse: Callable[[str], object]  # does all the checking; raises ValueError with the reason
    default: object
    metavar: str
    help: str


# every command parameter, declared once: a config key, and the long flag
# --key (underscores as dashes) on each command that lists it in _COMMAND_KEYS
_PARAMS = {
    "seed": _Param(_parse_seed, 0, "N", "64-bit seed"),
    "alpha": _Param(_parse_alpha, None, "A1,A2,...",
                    "Dirichlet concentrations, one or one per channel (default all 1)"),
    "dk": _Param(_number("dk", int, lambda v: v >= 1, ">= 1"), 64, "N", "attention key dim"),
    "cut": _Param(_number("cut", float, lambda v: 0.0 < v < 1.0, "in (0, 1)"), 0.25, "R",
                  "radial cut for hf_shift"),
    "stage": _Param(_parse_stage, PlacementConfig().stage_assignments, "i=kind,...",
                    "apply stack: adapter kind per stage"),
    "in": _Param(str, None, "FILE", "input tensor file"),
    "out": _Param(str, None, "FILE", "output tensor file"),
    "text": _Param(str, None, "FILE", "2-axis tensor file of text tokens"),
    "kind": _Param(_one_of("kind", FEATURE_KINDS), None, "|".join(FEATURE_KINDS),
                   "synthetic map kind"),
    "shape": _Param(_parse_shape, None, "C,H,W", "feature map shape"),
    "pgm": _Param(str, None, "FILE", "binary P5 output, min-max scaled"),
    "csv": _Param(str, None, "FILE", "full-precision CSV output"),
    "probes": _Param(_number("probes", int, lambda v: v >= 1, ">= 1"), 50, "N",
                     "gradcheck probes"),
    "ops": _Param(_parse_ops, None, "op1,op2,...", "gradcheck ops (default all)"),
    "suite": _Param(_parse_suite, "all", "NAME", "verification suite"),
    "norm_scope": _Param(_one_of("norm_scope", NORM_SCOPES), "channel", "|".join(NORM_SCOPES),
                         "crossmodal amplitude standardization scope"),
    "scale_mode": _Param(_one_of("scale_mode", SCALE_MODES), "times_C", "|".join(SCALE_MODES),
                         "style Dirichlet weight scaling"),
}

_COMMAND_KEYS = {
    "gen": ("seed", "kind", "shape", "out"),
    "apply": ("seed", "in", "out", "alpha", "dk", "cut", "stage", "text", "norm_scope",
              "scale_mode"),
    "heatmap": ("seed", "in", "pgm", "csv"),
    "verify": ("seed", "suite", "probes"),
    "gradcheck": ("seed", "ops", "probes", "csv"),
}

# the keys each apply transform reads besides seed, in, out and cut
_TRANSFORM_KEYS = {
    "style": ("alpha", "scale_mode"),
    "crossmodal": ("dk", "text", "norm_scope"),
    "plain": (),
    "stack": ("alpha", "dk", "stage", "text"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _show(value) -> str:
    """A default as it would be typed on the command line."""
    if isinstance(value, dict):
        return ",".join(f"{i}={kind}" for i, kind in value.items())
    return str(value)


def _flag_type(parse: Callable[[str], object]) -> Callable[[str], object]:
    """``parse`` for argparse: its ValueError reason becomes the usage error's message."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _read_config_file(path: str) -> dict:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in _PARAMS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _PARAMS[key].parse(value.strip())  # later keys override earlier ones
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _merge_config(args: argparse.Namespace) -> dict:
    """Parameter values: the command's defaults, then the config file, then the flags given."""
    cfg = {key: _PARAMS[key].default for key in _COMMAND_KEYS[args.command]}
    if args.config:
        cfg.update(_read_config_file(args.config))
    cfg.update((key, value) for key, value in vars(args).items() if key in _PARAMS)
    return cfg


def _load(path: str, kind):
    """Read a tensor file as ``kind``.

    A wrong rank raises ShapeMismatchError; any other ValueError of the
    payload, an empty axis or a non-finite value, becomes TensorFileError.
    """
    arr = read_tensor(path)
    try:
        return kind._adopt(arr)
    except ShapeMismatchError as exc:
        raise ShapeMismatchError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise TensorFileError(f"{path}: {exc}") from exc


def _require(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg[key] is None:
            raise ValueError(f"missing required parameter {_flag(key)}")


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    _require(cfg, "kind", "shape", "out")
    fm = gen_features(cfg["kind"], *cfg["shape"], cfg["seed"])
    write_tensor(cfg["out"], fm.data)
    c, h, w = fm.shape
    print(f"gen {cfg['kind']} {c}x{h}x{w} seed={cfg['seed']} -> {cfg['out']}")
    return 0


def _apply_transform(transform: str, cfg: dict, identity_hook: bool) -> tuple[FeatureMap, float]:
    """The input map under ``transform``, and the input's high-band fraction at ``cut``.

    The fraction is taken before the transform, so a stack holds the input
    map only through stage 1.
    """
    x = _load(cfg["in"], FeatureMap)
    before = high_fraction(x, cfg["cut"])
    seed = cfg["seed"]
    if transform == "style":
        if identity_hook:
            return style_transform(x, 0.0, 1.0), before
        alpha = cfg["alpha"] if cfg["alpha"] is not None else np.ones(x.channels)
        return style_diversify(x, alpha, seed, scale_mode=cfg["scale_mode"]), before
    if transform == "crossmodal":
        text = _load(cfg["text"], Matrix) if cfg["text"] else gen_text_tokens(
            8, 16, mix_seed(seed, _TEXT_TAG)
        )
        params = AttentionParams.seeded(x.channels, text.cols, cfg["dk"],
                                        mix_seed(seed, _ATTN_TAG))
        return crossmodal_forward(x, text, params, scope=cfg["norm_scope"]), before
    if transform == "plain":
        weights = AdapterWeights.seeded(x.channels, mix_seed(seed, 1))
        return adapter_forward(x, weights), before
    # stack: fold the per-stage adapters over one map, in stage order
    num_stages = max([3] + list(cfg["stage"]))
    placement = PlacementConfig(
        stage_assignments=cfg["stage"],
        alpha=cfg["alpha"],
        text_tokens=_load(cfg["text"], Matrix) if cfg["text"] else None,
        d_k=cfg["dk"],
        seed=seed,
        num_stages=num_stages,
    )
    out = apply_stage(x, placement, 1)
    del x  # the input is freed once stage 1 is done
    for index in range(2, num_stages + 1):
        out = apply_stage(out, placement, index)
    return out, before


def cmd_apply(args: argparse.Namespace) -> int:
    # a given flag the transform does not read is an error; only given flags are in the
    # namespace, so the same key in a config file stays allowed
    reads = ("seed", "in", "out", "cut", *_TRANSFORM_KEYS[args.transform])
    unread = [_flag(key) for key in vars(args) if key in _PARAMS and key not in reads]
    if args.identity_hook and args.transform != "style":
        unread.append("--identity-hook")
    if unread:
        raise ValueError(f"apply {args.transform} does not read {', '.join(unread)}")
    cfg = _merge_config(args)
    _require(cfg, "in", "out")
    out, before = _apply_transform(args.transform, cfg, args.identity_hook)
    write_tensor(cfg["out"], out.data)
    c, h, w = out.shape
    shift = high_fraction(out, cfg["cut"]) - before  # high_freq_shift(input, out, cut)
    print(
        f"apply {args.transform} {c}x{h}x{w} min={out.data.min():.6g} "
        f"max={out.data.max():.6g} hf_shift@{cfg['cut']:g}={shift:+.6g} -> {cfg['out']}"
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
    _require(cfg, "in")
    if cfg["pgm"] is None and cfg["csv"] is None:
        raise ValueError("heatmap needs --pgm and/or --csv")
    x = _load(cfg["in"], FeatureMap)
    hm = heatmap(x).data
    written = []
    if cfg["pgm"] is not None:
        _write_pgm(cfg["pgm"], hm)
        written.append(cfg["pgm"])
    if cfg["csv"] is not None:
        with open(cfg["csv"], "w", newline="") as fh:
            for row in hm:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        written.append(cfg["csv"])
    print(f"heatmap {hm.shape[0]}x{hm.shape[1]} -> {', '.join(written)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    cfg = _merge_config(args)
    results = run_suite(cfg["suite"], seed=cfg["seed"], probes=cfg["probes"])
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<28} {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"verify {cfg['suite']}: {len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def cmd_gradcheck(args: argparse.Namespace) -> int:
    import csv

    from .gradcheck import GRAD_TOL, GRADCHECK_OPS, run_gradcheck

    cfg = _merge_config(args)
    reports = run_gradcheck(cfg["ops"] or GRADCHECK_OPS, seed=cfg["seed"], probes=cfg["probes"])
    print(f"{'op':<18} {'probes':>6} {'max_rel_err':>12} {'best_step':>10} {'converged':>10}")
    for r in reports:
        print(
            f"{r.op_name:<18} {r.num_probes:>6} {r.max_rel_err:>12.3e} "
            f"{r.step:>10g} {r.converged_fraction:>9.0%}"
        )
    if cfg["csv"] is not None:
        with open(cfg["csv"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["op_name", "max_rel_err", "num_probes", "step", "converged_fraction"])
            for r in reports:
                writer.writerow([r.op_name, repr(r.max_rel_err), r.num_probes,
                                 repr(r.step), repr(r.converged_fraction)])
        print(f"report -> {cfg['csv']}")
    worst = max(r.max_rel_err for r in reports)
    print(f"gradcheck: worst max_rel_err={worst:.3e} (tol {GRAD_TOL:g})")
    return 0 if all(r.passed for r in reports) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built whole on the first call and shared after it.

    Parsing keeps no state in the parser: each call fills a fresh
    namespace, so one parser serves every ``main`` call in a process.
    """
    parser = argparse.ArgumentParser(
        prog="freqadapt",
        description="Frequency-domain feature adapters on synthetic feature maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("gen", cmd_gen, "generate a synthetic feature map"),
        ("apply", cmd_apply, "apply a transform to a tensor file"),
        ("heatmap", cmd_heatmap, "write the centered log-amplitude heatmap"),
        ("verify", cmd_verify, "run a verification suite"),
        ("gradcheck", cmd_gradcheck, "finite-difference gradient report"),
    )
    for name, func, summary in commands:
        command = sub.add_parser(name, help=summary)
        command.set_defaults(func=func)
        if name == "apply":
            command.add_argument("transform", choices=tuple(_TRANSFORM_KEYS))
            command.add_argument("--identity-hook", action="store_true",
                                 help="style only: force the identity affine map "
                                      "(verification hook)")
        command.add_argument("--config", metavar="FILE", help="key = value config file")
        for key in _COMMAND_KEYS[name]:
            param = _PARAMS[key]
            help_text = param.help
            if param.default is not None:
                help_text += f" (default {_show(param.default)})"
            # unset flags stay out of the namespace, so only given flags override the file
            command.add_argument(_flag(key), dest=key, type=_flag_type(param.parse),
                                 default=argparse.SUPPRESS, metavar=param.metavar,
                                 help=help_text)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; argparse raises SystemExit on a usage error.

    An error of a class in :data:`EXIT_CODES` prints one ``error:`` line
    on stderr and returns that class's code. The command runs with numpy's
    overflow, invalid and divide warnings off, for this call only: they
    change no value, and a computed map or matrix that is not finite still
    fails the finiteness check it is adopted through
    (:class:`NonFiniteResultError`).

    The parser is built whole once per process and binds each subcommand's
    ``cmd_*`` function when it is built, so patching a ``cmd_*`` name later
    does not change what ``main`` runs. Tests that monkeypatch a ``cmd_*``
    function bypass the shared parser: they call the function themselves
    with a namespace from ``build_parser().parse_args(...)``.
    """
    args = build_parser().parse_args(argv)
    try:
        with _quiet():
            return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())

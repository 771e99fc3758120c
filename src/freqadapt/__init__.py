"""freqadapt: frequency-domain feature adapters with built-in verification.

Two transforms over C x H x W feature maps, built from first principles on
double-precision numpy:

* style diversification -- Dirichlet-reweighted per-channel statistics
  applied as an affine map to the amplitude spectrum, phase untouched;
* cross-modal normalization -- cross-attention from visual tokens to text
  embeddings followed by per-channel standardization of the amplitude
  spectrum, which shifts energy toward high frequencies.

Both slot into a small residual adapter block with multi-kernel
convolutions and a per-stage placement config. Everything is pure,
deterministic given explicit seeds, and ships with direct-DFT oracles,
Jacobian-vector products checked against Ridders' extrapolation of
central differences, and a CLI (``freqadapt``) for synthetic data,
transforms, heatmaps and the verification suites.

The verification names (those of :mod:`~freqadapt.verify`, the
full-grid references ``fft2``, ``dft2_oracle`` and ``decompose`` among
them, and those of :mod:`~freqadapt.gradcheck`) load on first use, so a
process that only runs the transforms never imports those modules.
"""

import importlib

from .adapter import (
    STAGE_KINDS,
    AdapterWeights,
    PlacementConfig,
    adapter_forward,
    apply_stage,
    run_stack,
    stage_seed,
)
from .crossmodal import (
    NORM_SCOPES,
    AttentionParams,
    cross_attention,
    crossmodal_forward,
    flatten_tokens,
    high_fraction,
    high_freq_shift,
    spectral_normalize,
    unflatten_tokens,
)
from .errors import (
    DegenerateSpectrumError,
    NonFiniteResultError,
    ShapeMismatchError,
    SymmetryViolationError,
    TensorFileError,
)
from .rng import SplitMix64, mix_seed
from .spectral import AMP_EPS, amp_map, heatmap
from .style import (
    SCALE_MODES,
    channel_stats,
    sample_dirichlet,
    style_diversify,
    style_transform,
)
from .synth import FEATURE_KINDS, gen_features, gen_text_tokens
from .tensor import FeatureMap, Matrix, conv2d, silu, softmax_rows
from .tensorfile import read_tensor, write_tensor

__version__ = "0.1.0"

# exports served by __getattr__, each from the module that defines it
_LAZY = {
    **dict.fromkeys(("GRADCHECK_OPS", "GradReport", "fd_directional", "jvp_cross_attention",
                     "jvp_crossmodal", "jvp_silu", "jvp_style_transform", "run_gradcheck"),
                    "gradcheck"),
    **dict.fromkeys(("SUITE_NAMES", "CheckResult", "decompose", "dft2_oracle", "fft2",
                     "run_suite"), "verify"),
}

# the public names imported above, less the submodules and importlib, and the lazy ones
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, type(importlib))]
                 + list(_LAZY))


def __getattr__(name: str):
    """A verification export, imported from its module on first use (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))

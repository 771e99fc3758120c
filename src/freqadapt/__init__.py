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
Jacobian-vector products checked against central differences, and a CLI
(``freqadapt``) for synthetic data, transforms, heatmaps and the
verification suites.
"""

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
    high_freq_shift,
    spectral_normalize,
    unflatten_tokens,
)
from .errors import (
    DegenerateSpectrumError,
    ShapeMismatchError,
    SymmetryViolationError,
    TensorFileError,
)
from .gradcheck import (
    GRADCHECK_OPS,
    GradReport,
    fd_directional,
    jvp_cross_attention,
    jvp_crossmodal,
    jvp_silu,
    jvp_style_transform,
    run_gradcheck,
)
from .rng import SplitMix64, mix_seed
from .spectral import (
    AMP_EPS,
    amp_map,
    decompose,
    dft2_oracle,
    fft2,
    heatmap,
)
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
from .verify import SUITE_NAMES, CheckResult, run_suite

__version__ = "0.1.0"

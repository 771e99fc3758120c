"""The bit contract: SHA-256 of end-to-end outputs, pinned per numpy/BLAS/SIMD environment.

GEMM bits can depend on the BLAS kernel and FFT bits on the numpy build,
so ``bits.json`` records the digests under the environment they were
taken in. In an environment with no record, each test skips and its
reason gives the environment key and the digest, ready to be added. A
change that alters bits on purpose updates ``bits.json`` in the same
commit.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from freqadapt import AdapterWeights, AttentionParams
from freqadapt.cli import main

SEEDS = range(100)


def environment_key() -> dict:
    """The numpy version, BLAS name and version, and SIMD features of this process."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd": simd["baseline"] + simd["found"]}


def check(**digests: str) -> None:
    """Assert each digest is the one recorded under its name here; skip where nothing is recorded."""
    key = environment_key()
    records = json.loads((Path(__file__).parent / "bits.json").read_text())
    recorded = next((r["digests"] for r in records if r["key"] == key), None)
    if recorded is None:
        pytest.skip(f"no digests recorded for {json.dumps(key)}: {json.dumps(digests)}")
    assert digests == {name: recorded[name] for name in digests}


def run(argv) -> str:
    """``main(argv)``'s stdout, after checking it exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def test_apply_stack(tmp_path):
    # the gen output is the stack's input; both are hashed over all seeds, in seed order
    src, dst = str(tmp_path / "in.bin"), str(tmp_path / "out.bin")
    inputs, outputs = hashlib.sha256(), hashlib.sha256()
    for s in SEEDS:
        run(["gen", "--kind", "smooth", "--shape", "16,32,32", "--seed", str(s), "--out", src])
        run(["apply", "stack", "--seed", str(s), "--in", src, "--out", dst])
        inputs.update(Path(src).read_bytes())
        outputs.update(Path(dst).read_bytes())
    check(apply_stack_inputs=inputs.hexdigest(), apply_stack_outputs=outputs.hexdigest())


def test_seeded_weights():
    digest = hashlib.sha256()
    for s in SEEDS:
        w, p = AdapterWeights.seeded(16, s), AttentionParams.seeded(16, 16, 64, s)
        for arr in (w.k3, w.k5, w.k7, w.agg, w.proj, p.wq, p.wk, p.wv, p.wo):
            digest.update(arr.tobytes())
    check(seeded_weights=digest.hexdigest())


def test_verify_stdout():
    stdout = run(["verify", "--suite", "all", "--seed", "0"])
    check(verify_all_stdout=hashlib.sha256(stdout.encode()).hexdigest())


def test_gradcheck_csv(tmp_path):
    csv = tmp_path / "grad.csv"
    run(["gradcheck", "--seed", "0", "--csv", str(csv)])
    check(gradcheck_csv=hashlib.sha256(csv.read_bytes()).hexdigest())

"""The CLI's failure contract under fuzzed input: every run ends in a documented exit code.

Hypothesis feeds ``apply style|crossmodal|plain|stack`` and ``heatmap``
with byte-mutated tensor files, config files and payloads of extreme
scale, through in-process ``main``. Every run returns 0 or a code of
:data:`freqadapt.cli.EXIT_CODES`, with nothing on stderr on success and
one ``error:`` line otherwise, and the code is the one the table gives
the class of the error the command raised.
"""

import contextlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from freqadapt.cli import _PARAMS, EXIT_CODES, build_parser, main
from freqadapt.synth import gen_features
from freqadapt.tensorfile import write_tensor

COMMANDS = (("apply", "style"), ("apply", "crossmodal"), ("apply", "plain"), ("apply", "stack"),
            ("heatmap",))
BASE = gen_features("smooth", 3, 8, 8, 7).data
HEADER = 12 + 8 * BASE.ndim  # magic, version, ndim, then one u64 per dim
PAYLOAD = 8 * BASE.size
DIMS = (0, 1, 2**32, 2**63, 2**64 - 1)

commands = st.sampled_from(COMMANDS)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    write_tensor(path / "text.ftns", np.ones((4, 16)))
    write_tensor(path / "text3.ftns", np.ones((2, 4, 16)))
    return path


def tensor_bytes(workdir, data) -> bytes:
    write_tensor(workdir / "made.ftns", data)
    return (workdir / "made.ftns").read_bytes()


def table_code(error: type[BaseException]) -> int | None:
    return next((code for cls, code in EXIT_CODES.items() if issubclass(error, cls)), None)


def run_contract(workdir, command, payload: bytes, config: bytes | None = None) -> tuple[int, str]:
    """Run ``command`` on ``payload`` through ``main``, check the contract, and return the code and stdout."""
    src = workdir / "in.ftns"
    src.write_bytes(payload)
    out = workdir / ("out.csv" if command == ("heatmap",) else "out.ftns")
    argv = [*command, "--in", str(src), "--csv" if command == ("heatmap",) else "--out", str(out)]
    if config is not None:
        (workdir / "run.cfg").write_bytes(config)
        argv += ["--config", str(workdir / "run.cfg")]

    # the command function on its own, under main's errstate: which class it raises
    args = build_parser().parse_args(argv)
    raised = None
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            args.func(args)
    except Exception as exc:  # any class, to compare with the code main returns
        raised = type(exc)
    out.unlink(missing_ok=True)

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)  # an exception that escapes fails the test
    if raised is None:
        assert code == 0 and stderr.getvalue() == "" and out.exists()
    else:
        assert code == table_code(raised) and code in (2, 3, 4, 5), (raised, code)
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not out.exists()
    event(f"exit {code}")  # the spread of codes, shown by --hypothesis-show-statistics
    return code, stdout.getvalue()


def mutated(base: bytes, mutation) -> bytes:
    kind, *rest = mutation
    if kind == "truncate":
        return base[:rest[0]]
    raw = bytearray(base)
    if kind == "dim":
        axis, value = rest
        raw[12 + 8 * axis:20 + 8 * axis] = value.to_bytes(8, "little")
    else:
        pos, byte = rest
        raw[pos] = byte
    return bytes(raw)


mutations = st.one_of(
    st.tuples(st.just("header"), st.integers(0, HEADER - 1), st.integers(0, 255)),
    st.tuples(st.just("payload"), st.integers(HEADER, HEADER + PAYLOAD - 1), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(0, HEADER + PAYLOAD - 1)),
    st.tuples(st.just("dim"), st.integers(0, BASE.ndim - 1), st.sampled_from(DIMS)),
)


@settings(max_examples=200, deadline=None)
@given(command=commands, mutation=mutations)
def test_mutated_tensor_files(workdir, command, mutation):
    payload = mutated(tensor_bytes(workdir, BASE), mutation)
    code, _ = run_contract(workdir, command, payload)
    if mutation[0] in ("truncate", "dim"):
        assert code == 3  # the header no longer matches the payload


# Config values: valid ones and invalid ones for each key, or text with no digits,
# so that no value asks for a large allocation or a long loop. The path keys take
# only the paths set here: a config's own pgm path would be written to.
CONFIG_VALUES = {
    "seed": ["0", "123456789", "0xff", "-1", "18446744073709551616", "x"],
    "alpha": ["1", "0.5,2,1", "1e308,1e308,1e308", "1e-300,1e-300,1e-300", "0", "nan", "1,2"],
    "dk": ["1", "64", "0", "2.5"],
    "cut": ["0.25", "0.99", "0", "1", "nan"],
    "stage": ["1=style", "1=plain,2=crossmodal,3=style", "4=style", "1=bogus", "1"],
    "norm_scope": ["channel", "tensor", "pixel"],
    "scale_mode": ["times_C", "raw", "squared"],
    "probes": ["5", "0"],
}
FREE_KEYS = sorted(set(_PARAMS) - {"in", "out", "pgm", "csv", "text"})
words = st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=8)


def config_line(key_strategy):
    def line(key):
        values = st.sampled_from(CONFIG_VALUES.get(key, ["1"])) | words
        return st.builds(lambda v, eq: f"{key}{eq}{v}", values, st.sampled_from([" = ", "="]))
    return key_strategy.flatmap(line)


config_texts = st.lists(
    st.one_of(
        config_line(st.sampled_from(FREE_KEYS)),
        st.sampled_from(["text = {dir}/text.ftns", "text = {dir}/text3.ftns",
                         "text = {dir}/missing.ftns", "# comment", "", "seed", "bogus = 1"]),
        words,
    ),
    max_size=5,
).map(lambda lines: "\n".join(lines).encode("utf-8"))


@settings(max_examples=200, deadline=None)
@given(command=commands, config=config_texts | st.binary(max_size=24))
def test_config_files(workdir, command, config):
    config = config.replace(b"{dir}", str(workdir).encode())
    run_contract(workdir, command, tensor_bytes(workdir, BASE), config)


@settings(max_examples=200, deadline=None)
@given(command=commands,
       scale=st.integers(-300, 308).map(lambda e: min(10.0 ** e, 1.5e308)) | st.just(0.0),
       bad=st.none() | st.sampled_from([math.nan, math.inf, -math.inf]),
       at=st.tuples(st.integers(0, 2), st.integers(0, 7), st.integers(0, 7)))
# a transform of these maps overflows: the high-band shift must still print finite
@example(command=("apply", "plain"), scale=1.5e308, bad=None, at=(0, 0, 0))
@example(command=("apply", "crossmodal"), scale=1e308, bad=None, at=(0, 0, 0))
def test_payload_scales(workdir, command, scale, bad, at):
    data = BASE * scale
    if bad is not None:
        data[at] = bad
    code, stdout = run_contract(workdir, command, tensor_bytes(workdir, data))
    if bad is not None:
        assert code == 3
    elif code == 0 and command[0] == "apply":
        # the summary's high-band shift is finite at every scale that exits 0
        shift = re.search(r"hf_shift@\S+=(\S+) ->", stdout).group(1)
        assert math.isfinite(float(shift)), stdout

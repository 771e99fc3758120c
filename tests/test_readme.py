import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def module_map_rows():
    text = README.read_text()
    table = text.split("## Module map", 1)[1]
    return re.findall(r"^\| `(freqadapt\.\w+)` \| (.*) \|$", table, flags=re.M)


def listed_names(contents):
    """Identifiers in one module-map row; `jvp_*` stands for every name with that prefix."""
    # prose such as `freqadapt verify` is not an identifier and is skipped
    return [n for n in re.findall(r"`([^`]+)`", contents) if re.fullmatch(r"\w+\*?", n)]


def matches(listed, name):
    return name == listed or (listed.endswith("*") and name.startswith(listed[:-1]))


def test_module_map_names_exist():
    rows = module_map_rows()
    assert len(rows) >= 10
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in listed_names(contents):
            assert any(matches(name, attr) for attr in dir(module)), (module_name, name)


def test_every_export_is_in_module_map():
    import freqadapt

    listed = [n for _, contents in module_map_rows() for n in listed_names(contents)]
    # dir() also lists the exports that load on first use, which getattr resolves
    exported = [name for name in dir(freqadapt)
                if not name.startswith("_") and not inspect.ismodule(getattr(freqadapt, name))]
    assert len(exported) >= 40
    missing = [name for name in exported if not any(matches(n, name) for n in listed)]
    assert missing == []


def dotted_names():
    """The backticked dotted names in README; `spectral.amp_map(x, fn)` gives `spectral.amp_map`."""
    return re.findall(r"`(\w+(?:\.\w+)+)(?:\([^`]*\))?`", README.read_text())


def resolves(dotted):
    """Whether getattr finds ``dotted`` from its head.

    The head is `np`, `freqadapt`, a freqadapt module, or a name one of them defines.
    """
    import freqadapt

    modules = {"np": np, "freqadapt": freqadapt}
    for info in pkgutil.iter_modules(freqadapt.__path__):
        if not info.name.startswith("_"):  # importing __main__ would run the CLI
            modules[info.name] = importlib.import_module(f"freqadapt.{info.name}")
    head, *rest = dotted.split(".")
    # a head that names no module is a name a module defines, as in `AdapterWeights.seeded`
    objs = [modules[head]] if head in modules else [vars(m)[head] for m in modules.values()
                                                      if head in vars(m)]
    for part in rest:
        objs = [getattr(obj, part) for obj in objs if hasattr(obj, part)]
    return bool(objs)


def test_dotted_names_resolve():
    names = dotted_names()
    assert {"gradcheck.amp_map_jvp", "freqadapt.cli.EXIT_CODES", "np.fft.fft2"} <= set(names)
    assert [name for name in names if not resolves(name)] == []
    # the check itself tells a stale name from a live one
    assert not resolves("spectral.amp_map_jvp") and not resolves("freqadapt.cli.NO_SUCH_NAME")


def test_config_keys_match_parsers():
    from freqadapt.cli import _PARAMS

    section = README.read_text().split("### Config files", 1)[1].split("\n## ", 1)[0]
    listed = section.split("Keys mirror the long flags:", 1)[1]
    assert set(re.findall(r"`(\w+)`", listed)) == set(_PARAMS)


def test_exit_code_table_matches_cli():
    from freqadapt.cli import EXIT_CODES

    section = README.read_text().split("### Exit codes", 1)[1].split("\n#", 1)[0]
    listed = [int(code) for code in re.findall(r"^\| (\d+) \|", section, flags=re.M)]
    assert sorted(listed) == sorted({0, 1, *EXIT_CODES.values()})


def test_gamma_window_crossover_matches_rng():
    from freqadapt.rng import _GAMMA_WINDOW

    section = README.read_text().split("## Determinism and golden values", 1)[1].split("\n## ", 1)[0]
    bullet = section.split("* `gamma_array(shapes)`", 1)[1].split("\n* ", 1)[0]
    assert re.findall(r"from (\d+) components on", " ".join(bullet.split())) == [str(_GAMMA_WINDOW)]


def test_block_size_matches_spectral():
    from freqadapt.spectral import _BLOCK_BYTES

    text = " ".join(README.read_text().split())
    conventions = text.split("## Numerical conventions", 1)[1].split(" ## ", 1)[0]
    assert re.findall(r"each about (\d+) KB of half spectrum", conventions) == [str(_BLOCK_BYTES // 1024)]
    # the smooth generator's channel blocks take the same size
    assert re.findall(r"padded buffer fits in (\d+) KB", text) == [str(_BLOCK_BYTES // 1024)]


def test_numpy_floor_takes_fft_out():
    # the spectral core passes out= to np.fft.fft/ifft/irfft, which numpy 1.x rejects
    floor = re.search(r'"numpy>=([\d.]+)"', PYPROJECT.read_text()).group(1)
    assert int(floor.split(".")[0]) >= 2
    assert f"numpy>={floor}" in README.read_text()


def cli_examples():
    """The argument lists of the ``freqadapt ...`` lines in the README's CLI code block."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("freqadapt ")]


def test_cli_examples_work(tmp_path, monkeypatch):
    from freqadapt.cli import build_parser, main

    examples = cli_examples()
    assert [argv[0] for argv in examples] == ["gen", "apply", "apply", "apply", "heatmap", "verify", "gradcheck"]
    for argv in examples:
        build_parser().parse_args(argv)
    # verify and gradcheck take seconds, so they are only parsed
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        if argv[0] in ("gen", "apply", "heatmap"):
            assert main(argv) == 0, argv
    assert {path.name for path in tmp_path.iterdir()} == {
        "feats.ftns", "styled.ftns", "enhanced.ftns", "stacked.ftns", "spectrum.pgm", "spectrum.csv"}

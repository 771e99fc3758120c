import importlib
import inspect
import re
from pathlib import Path

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
    exported = [name for name, value in vars(freqadapt).items()
                if not name.startswith("_") and not inspect.ismodule(value)]
    assert len(exported) >= 40
    missing = [name for name in exported if not any(matches(n, name) for n in listed)]
    assert missing == []


def test_config_keys_match_parsers():
    from freqadapt.cli import _PARAMS

    section = README.read_text().split("### Config files", 1)[1].split("\n## ", 1)[0]
    listed = section.split("Keys mirror the long flags:", 1)[1]
    assert set(re.findall(r"`(\w+)`", listed)) == set(_PARAMS)


def test_numpy_floor_takes_fft_out():
    # the spectral core passes out= to np.fft.fft/ifft/irfft, which numpy 1.x rejects
    floor = re.search(r'"numpy>=([\d.]+)"', PYPROJECT.read_text()).group(1)
    assert int(floor.split(".")[0]) >= 2
    assert f"numpy>={floor}" in README.read_text()

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def module_map_rows():
    text = README.read_text()
    table = text.split("## Module map", 1)[1]
    return re.findall(r"^\| `(freqadapt\.\w+)` \| (.*) \|$", table, flags=re.M)


def test_module_map_names_exist():
    rows = module_map_rows()
    assert len(rows) >= 10
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        # prose such as `freqadapt verify` is not an identifier and is skipped
        names = [n for n in re.findall(r"`([^`]+)`", contents) if re.fullmatch(r"\w+\*?", n)]
        for name in names:
            if name.endswith("*"):
                assert any(attr.startswith(name[:-1]) for attr in dir(module)), (module_name, name)
            else:
                assert hasattr(module, name), (module_name, name)


def test_config_keys_match_parsers():
    from freqadapt.cli import _PARSERS

    section = README.read_text().split("### Config files", 1)[1].split("\n## ", 1)[0]
    listed = section.split("Keys mirror the long flags:", 1)[1]
    assert set(re.findall(r"`(\w+)`", listed)) == set(_PARSERS)

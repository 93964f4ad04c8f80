import importlib
import pkgutil
import re
from pathlib import Path

import tamerep

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(tamerep.__path__)}


def _cited_names(text: str) -> list[tuple[str, str]]:
    """(module, dotted name) for every inline code span of the form
    module.name or tamerep.module.name, with an optional call suffix."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    out = []
    for span in re.findall(r"`([^`]+)`", text):
        m = re.fullmatch(r"(?:tamerep\.)?(\w+)\.([A-Za-z_][\w.]*)(?:\(.*\))?", span.strip(), re.S)
        if m and m.group(1) in MODULES:
            out.append((m.group(1), m.group(2)))
    return out


def test_cited_names_parse():
    text = "`ff.sqrt`, `tamerep.groups.closure(gens, cap)`, `x.y`, `(sub @ r) % p`\n```\nff.gone\n```"
    assert _cited_names(text) == [("ff", "sqrt"), ("groups", "closure")]


def test_readme_cites_existing_names():
    cited = _cited_names(README.read_text(encoding="utf-8"))
    assert cited
    missing = []
    for module, name in cited:
        obj = importlib.import_module(f"tamerep.{module}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{name}")
    assert missing == []

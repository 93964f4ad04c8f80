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


# the public names of tamerep: what the CLI, certificates, sweep, classify,
# the benchmark and the Library tour reach
PUBLIC_API = [
    "CharType", "FieldDescriptor", "FieldElement", "FormKind", "GroupFlavor", "GroupHandle",
    "Matrix", "PairCandidate", "QuadraticSpace", "ResidualRep", "SquareClass",
    "SubgroupPlacement", "TameCharacter", "ToolkitError", "TypeReport", "audit_adz",
    "build_residual_rep", "classify_subgroup", "classify_type", "closure", "commutant_dim",
    "example21_check", "factorize", "find_generator", "form_kind", "gamma_d", "group_order",
    "image_group", "invariant_forms", "is_metacyclic_tn", "is_prime", "is_self_dual",
    "is_square", "make_field", "mult_order_mod", "normal_subgroups", "nullspace",
    "search_pairs", "spinor_norm", "witt_decompose",
]


def test_public_api_pinned():
    assert sorted(tamerep.__all__) == PUBLIC_API
    assert [name for name in PUBLIC_API if not hasattr(tamerep, name)] == []
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    imported = re.search(r"from tamerep import \(([^)]*)\)", tour).group(1)
    names = [name.strip() for name in imported.split(",") if name.strip()]
    assert names and [name for name in names if name not in PUBLIC_API] == []

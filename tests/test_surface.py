"""Every export of abconvex has a caller outside the unit tests."""

import re
import types
from pathlib import Path

import abconvex

ROOT = Path(__file__).resolve().parents[1]

#: paper-level helpers that nothing but their tests calls, each kept because it
#: carries its own algorithm rather than restating a kernel
KEPT_HELPERS = {"concavity_probe", "coupling_check", "disjoint_sublevel", "is_support",
                "phi_lsc_set_separation"}


def caller_less_exports() -> set[str]:
    """The exports with no word match in the library (outside __init__ and
    the export's own def or class line), perfbench or the acceptance tests."""
    library = Path(abconvex.__file__).parent
    files = [f for f in sorted(library.glob("*.py")) if f.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    lines = [line for f in files for line in f.read_text(encoding="utf-8").splitlines()]
    exports = [name for name in dir(abconvex) if not name.startswith("_")
               and not isinstance(getattr(abconvex, name), types.ModuleType)]
    out = set()
    for name in exports:
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{name}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            out.add(name)
    return out


def test_only_the_kept_helpers_have_no_caller():
    assert caller_less_exports() == KEPT_HELPERS

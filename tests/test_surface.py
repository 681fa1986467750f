"""Every export of abconvex, and every public method and property of an
exported class, has a caller outside the unit tests.

A caller is a word match in the library (outside __init__ and the name's own
def or class line), perfbench or the acceptance tests: the export's name, or
a member's name after a dot.  A member is a public function, property,
classmethod, staticmethod or cached property in the body of an exported
class; a match is by name alone, so a member that shares its name with one
the library calls is not caught.
"""

import functools
import re
import types
from pathlib import Path

import abconvex

ROOT = Path(__file__).resolve().parents[1]

#: paper-level helpers that nothing but their tests calls, each kept because it
#: carries its own algorithm rather than restating a kernel
KEPT_HELPERS = {"concavity_probe", "coupling_check", "disjoint_sublevel", "is_support",
                "phi_lsc_set_separation"}

MEMBER_KINDS = (types.FunctionType, property, classmethod, staticmethod,
                functools.cached_property)


def _caller_lines() -> list[str]:
    library = Path(abconvex.__file__).parent
    files = [f for f in sorted(library.glob("*.py")) if f.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    return [line for f in files for line in f.read_text(encoding="utf-8").splitlines()]


def _exports() -> dict:
    return {name: getattr(abconvex, name) for name in dir(abconvex) if not name.startswith("_")
            and not isinstance(getattr(abconvex, name), types.ModuleType)}


def _caller_less(names, prefix: str) -> set[str]:
    """The names with no match of prefix + name outside a def or class line."""
    lines = _caller_lines()
    out = set()
    for name in names:
        word = re.compile(rf"{prefix}\b{name}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{name}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            out.add(name)
    return out


def caller_less_exports() -> set[str]:
    """The exports with no word match."""
    return _caller_less(_exports(), "")


def caller_less_members() -> set[str]:
    """The members of exported classes, as Class.member, with no .member match."""
    members = {}
    for cls_name, obj in _exports().items():
        if isinstance(obj, type):
            for name, attr in vars(obj).items():
                if not name.startswith("_") and isinstance(attr, MEMBER_KINDS):
                    members.setdefault(name, []).append(f"{cls_name}.{name}")
    return {qual for name in _caller_less(members, r"\.") for qual in members[name]}


def test_only_the_kept_helpers_have_no_caller():
    assert caller_less_exports() == KEPT_HELPERS


def test_every_member_of_an_exported_class_has_a_caller():
    assert caller_less_members() == set()

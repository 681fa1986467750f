"""Every golden digest in tests/golden/digests.json is reproduced bit for bit
(see tests/golden/regen.py for the corpus and for regenerating an entry)."""

import ast
import json
import os
import platform
from pathlib import Path

import pytest

from golden import regen

WANT = json.loads(regen.DIGESTS.read_text())


def platform_line():
    """The machine and numpy's enabled SIMD dispatch targets, which set the
    signs of some zero maxima and sums the digests pin."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    enabled = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "")
    return (f"machine {platform.machine()}, numpy dispatch enabled: {enabled}, "
            f"NPY_DISABLE_CPU_FEATURES={disabled!r}")


@pytest.mark.parametrize("group", sorted(regen.GROUPS))
def test_digests_unchanged(group):
    got = regen.GROUPS[group]()
    want = {name: d for name, d in WANT.items() if name.startswith(group + "/")}
    changed = regen.changed(want, got)
    assert want and changed == [], f"changed {changed} on {platform_line()}"


def test_every_entry_belongs_to_a_group():
    assert {name.split("/")[0] for name in WANT} == set(regen.GROUPS)


#: numpy functions whose SIMD loops may round differently from libm, and from
#: one CPU to another
TRANSCENDENTALS = frozenset({
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "logaddexp", "logaddexp2",
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2",
    "asin", "acos", "atan", "atan2",
    "sinh", "cosh", "tanh", "arcsinh", "arccosh", "arctanh", "asinh", "acosh", "atanh",
    "power", "pow", "float_power"})


def numpy_transcendentals(source):
    """Lines of source that name a numpy transcendental: np.<name> or
    numpy.<name> (through submodules too), or an import of one from numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in TRANSCENDENTALS:
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in ("np", "numpy"):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [(node.lineno, f"from {node.module} import {a.name}")
                      for a in node.names if a.name in TRANSCENDENTALS]
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_generator_draws_without_numpy_transcendentals():
    """The corpus is the same on every CPU: regen.py draws with `math`, never
    with a numpy transcendental (numpy's AVX-512 exp differs from libm's in
    the last bit on about 4.5% of draws)."""
    assert numpy_transcendentals(Path(regen.__file__).read_text(encoding="utf-8")) == []
    assert numpy_transcendentals("np.exp(u)\nmap(numpy.emath.log, u)\n"
                                 "from numpy import power") == [
        "line 1: np.exp", "line 2: numpy.emath.log", "line 3: from numpy import power"]

"""Every golden digest in tests/golden/digests.json is reproduced bit for bit
(see tests/golden/regen.py for the corpus and for regenerating an entry)."""

import ast
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import abconvex
from golden import regen

WANT = json.loads(regen.DIGESTS.read_text())


def enabled_targets():
    """numpy's dispatched SIMD targets that are enabled in this process,
    space-separated, as CI computes NPY_DISABLE_CPU_FEATURES."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))


def platform_line():
    """The machine and numpy's enabled SIMD dispatch targets, which set the
    sums the digests pin."""
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "")
    return (f"machine {platform.machine()}, numpy dispatch enabled: "
            f"{enabled_targets() or 'none'}, NPY_DISABLE_CPU_FEATURES={disabled!r}")


@pytest.mark.parametrize("group", sorted(regen.GROUPS))
def test_digests_unchanged(group):
    got = regen.GROUPS[group]()
    want = {name: d for name, d in WANT.items() if name.startswith(group + "/")}
    changed = regen.changed(want, got)
    assert want and changed == [], f"changed {changed} on {platform_line()}"


#: the groups whose outputs hold maxima and minima that the kernels return
#: under the zero rule (see abconvex.core)
ZERO_RULE_GROUPS = ("c_transform", "conjugation", "constrained", "duality", "transport")


def test_zero_rule_groups_unchanged_under_baseline_dispatch():
    """Those groups, recomputed in a subprocess with every dispatched SIMD
    target disabled, reproduce digests.json: no zero's sign follows numpy's
    loop order."""
    disabled = " ".join(filter(None, [os.environ.get("NPY_DISABLE_CPU_FEATURES"),
                                      enabled_targets()]))
    # the library this process tests, then the directory of the golden package
    path = [str(Path(m.__file__).resolve().parents[1]) for m in (abconvex, regen)]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled, PYTHONPATH=os.pathsep.join(
        filter(None, path + [os.environ.get("PYTHONPATH")])))
    code = ("import json, sys; from golden import regen; print(json.dumps("
            "{name: d for g in sys.argv[1:] for name, d in regen.GROUPS[g]().items()}))")
    run = subprocess.run([sys.executable, "-c", code, *ZERO_RULE_GROUPS], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    want = {name: d for name, d in WANT.items() if name.split("/")[0] in ZERO_RULE_GROUPS}
    changed = regen.changed(want, json.loads(run.stdout))
    assert changed == [], f"changed {changed} with NPY_DISABLE_CPU_FEATURES={disabled!r}"


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

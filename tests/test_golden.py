"""Every golden digest in tests/golden/digests.json is reproduced bit for bit
(see tests/golden/regen.py for the corpus and for regenerating an entry)."""

import json
import os
import platform

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

"""Every golden digest in tests/golden/digests.json is reproduced bit for bit
(see tests/golden/regen.py for the corpus and for regenerating an entry)."""

import json

import pytest

from golden import regen

WANT = json.loads(regen.DIGESTS.read_text())


@pytest.mark.parametrize("group", sorted(regen.GROUPS))
def test_digests_unchanged(group):
    got = regen.GROUPS[group]()
    want = {name: d for name, d in WANT.items() if name.startswith(group + "/")}
    assert want and regen.changed(want, got) == []


def test_every_entry_belongs_to_a_group():
    assert {name.split("/")[0] for name in WANT} == set(regen.GROUPS)

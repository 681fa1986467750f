"""transport: what `abconvex transport` does per instance.

Why this workload: it isolates the transport layer (the transportation
simplex and its strong-duality audit), which the other workloads touch only at
20x20 or below.  Simplex behaviour depends on degeneracy and aspect ratio, so
half of the instances carry generic real costs and marginals and half are
degenerate (small integer costs and integer marginals), with square and
rectangular shapes from 60x60 to 150x150.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import abconvex as ab
import refs
from harness import Item

WHY = ("transportation simplex plus its strong-duality audit on 60x60 to 150x150, "
       "half generic and half degenerate; bypasses every grid kernel")

#: seconds one pass over the full batch took on the reference box when the
#: benchmark was defined; it fixes the pass count (see run.passes)
PASS_SECONDS = 5.0
#: how closely this workload's timing follows the calibration kernel's speed
#: (see harness.at_reference_speed)
SPEED_SENSITIVITY = 1.0

EXPECTED_SPANS = ("transport.solve_transport", "transport.kantorovich_gap_report")

# (n, m); each shape appears once generic and once degenerate.  An odd number
# of shapes keeps the tail's rank (p75 of 14 items x 3 passes) inside one
# item's samples rather than on the edge between two items
SHAPES = ((60, 60), (90, 90), (90, 90), (60, 150), (150, 60), (120, 120), (150, 150))
TINY_SHAPES = ((4, 4), (6, 5), (5, 7))


def instance(rng, n, m, degenerate):
    if degenerate:
        cost = rng.integers(0, 10, (n, m)).astype(float)
        total = n * m
        mu = rng.multinomial(total, np.full(n, 1.0 / n)).astype(float)
        nu = rng.multinomial(total, np.full(m, 1.0 / m)).astype(float)
    else:
        cost = rng.uniform(0.0, 10.0, (n, m))
        mu = rng.uniform(0.1, 1.0, n)
        nu = rng.uniform(0.1, 1.0, m)
        mu *= nu.sum() / mu.sum()
    return cost, mu, nu


def generate(rng, tiny: bool) -> dict:
    data = {}
    k = 0
    for n, m in (TINY_SHAPES if tiny else SHAPES):
        for degenerate in (False, True):
            cost, mu, nu = instance(rng, n, m, degenerate)
            data[f"t{k}_cost"], data[f"t{k}_mu"], data[f"t{k}_nu"] = cost, mu, nu
            k += 1
    return data


def load(data, tiny: bool) -> list:
    count = sum(1 for key in data if key.endswith("_cost"))
    # smallest first, so that warm-up runs the cheapest instance
    order = sorted(range(count), key=lambda k: data[f"t{k}_cost"].size)
    return [transport_item(data[f"t{k}_cost"], data[f"t{k}_mu"], data[f"t{k}_nu"])
            for k in order]


def corrupt_transport(out):
    """A solve whose optimal value is perturbed by 1e-6 of its scale."""
    coupling, pots, value, audit = out
    return coupling, pots, value + 1e-6 * max(1.0, abs(value)), audit


def transport_item(cost, mu, nu):
    """solve_transport then kantorovich_gap_report, as the CLI runner does."""
    prob = ab.TransportProblem(cost=cost, mu=mu, nu=nu)

    def call():
        coupling, pots, value = ab.solve_transport(prob)
        return coupling, pots, value, ab.kantorovich_gap_report(prob)

    def check(out):
        coupling, pots, value, audit = out
        return refs.check_transport(cost, mu, nu, value, coupling.q, pots.psi,
                                    pots.phi, audit)

    kind = "degenerate" if float(mu.sum()).is_integer() and \
        np.array_equal(cost, np.round(cost)) else "generic"
    return Item(kind="transport", label=f"transport {cost.shape[0]}x{cost.shape[1]} {kind}",
                call=call, check=check,
                observe=lambda out: (out[0].q, out[1].psi, out[1].phi, out[2],
                                     dataclasses.astuple(out[3])),
                corrupt=corrupt_transport)

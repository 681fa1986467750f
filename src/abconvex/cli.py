"""Scenario runner: every module exposed as a subcommand with JSON reports.

Scenarios are JSON files validated against schemas/schema.json in this
package (reports against schemas/report_schema.json); reports are JSON
with extended reals encoded as {"finite": v} | "+inf" | "-inf" so that
infinities round-trip losslessly.  Reports are byte-identical for a fixed
(scenario, seed) pair; wall-clock timing goes to stderr only.

Exit codes: 0 success, 2 invalid scenario (also an unreadable input, a file
that is not a JSON object or holds NaN/Infinity literals, an unwritable --out
or --csv path, a solver out of iterations, a grid too large to allocate, a
number outside the doubles, or a failed internal invariant),
3 negative mathematical outcome where a positive one was demanded (e.g.
certify found no certificate).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import FiniteMetricSpace, GridFn, build_metric_space
from .errors import AbconvexError, NoWitness, ScenarioError
from .families import (
    DualGrid,
    ElemFamily,
    ElemParams,
    FamilyKind,
    Sampled1D,
    biconjugate,
    conjugate_transform,
    default_dual_grid,
    peaking_witness,
    urysohn_witness,
)
from .lagrangian import (
    DualityReport,
    EQ_TOL,
    PerturbationProblem,
    duality_report,
    gap_certificate,
    lsc_defect,
    lsc_profile,
)
from .constrained import (DEFAULT_LADDER, ConstrainedInstance, ConstraintMap,
                          verify_zero_gap_metric)
from .transport import (
    ConicLP,
    TransportProblem,
    conic_lp_dual,
    kantorovich_gap_report,
    solve_transport,
)

SCHEMA_PATH = Path(__file__).resolve().parent / "schemas" / "schema.json"
REPORT_SCHEMA_PATH = SCHEMA_PATH.with_name("report_schema.json")

EXIT_OK = 0
EXIT_BAD_SCENARIO = 2
EXIT_NEGATIVE = 3


# ---------------------------------------------------------------------------
# JSON <-> value helpers
# ---------------------------------------------------------------------------

def ext_to_json(x):
    v = float(x)
    if v == np.inf:
        return "+inf"
    if v == -np.inf:
        return "-inf"
    return {"finite": v}

_NUMBER_TYPES = frozenset((int, float))

def _is_ext(v) -> bool:
    """v encodes an extended real: a number, "+inf", "-inf" or {"finite":
    number}.  A number has the exact type int or float, so a bool is none, as
    in JSON Schema; of these types json.load makes no subclass but bool."""
    t = type(v)
    return (t in _NUMBER_TYPES or (t is str and v in ("+inf", "-inf"))
            or (t is dict and len(v) == 1 and type(v.get("finite")) in _NUMBER_TYPES))

def ext_from_json(v) -> float:
    if not _is_ext(v):
        raise ScenarioError(f"bad extended-real encoding: {v!r}")
    if type(v) is dict:
        return float(v["finite"])
    if type(v) is str:
        return np.inf if v == "+inf" else -np.inf
    return float(v)

def ext_list(values) -> list:
    return [ext_to_json(v) for v in values]

def _decode_ext(v):
    return [_decode_ext(x) for x in v] if isinstance(v, list) else ext_from_json(v)

def float_array(values, field: str) -> np.ndarray:
    """A vector or a matrix (a list of rows) of numbers as doubles; a matrix
    whose rows differ in length raises ScenarioError naming field."""
    try:
        return np.asarray(values, dtype=float)
    except ValueError:
        lengths = [len(row) for row in values]
        k = next(k for k, n in enumerate(lengths) if n != lengths[0])
        raise ScenarioError(f"{field} row {k} has length {lengths[k]}, "
                            f"row 0 has length {lengths[0]}") from None

def ext_array(values, field: str) -> np.ndarray:
    """A vector or a matrix (a list of rows) of encoded extended reals."""
    return float_array(_decode_ext(values), field)


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(x) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_json(value, parts: list, newline: str) -> None:
    """Append to parts the JSON text of value; newline is a line break and
    the indent of value's line.  The text is that of json.dumps(value,
    sort_keys=True, indent=2, allow_nan=False), raising its errors, from
    plain functions: json's indenting encoder is a set of closures whose
    reference cycle outlives every call."""
    if isinstance(value, str):
        parts.append(_encode_str(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write_json(item, parts, inner)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(sep + _encode_str(_key_text(key)) + ": ")
            _write_json(item, parts, inner)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def json_text(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2, allow_nan=False)."""
    parts: list = []
    _write_json(value, parts, "\n")
    return "".join(parts)


def params_to_json(p: ElemParams) -> dict:
    return {
        "a": p.a,
        "ell": None if p.ell is None else p.ell.tolist(),
        "anchor": p.anchor,
        "c": p.c,
    }


def parse_domain(spec: dict, validate: str) -> FiniteMetricSpace:
    pts = float_array(spec["points"], "domain.points")
    metric = spec.get("metric", "euclidean")
    if isinstance(metric, dict):
        metric = float_array(metric["custom"], "domain.metric.custom")
    return build_metric_space(pts, metric_kind=metric, validate=validate)


def parse_family(spec: dict, domain: FiniteMetricSpace) -> ElemFamily:
    kind = FamilyKind(spec["kind"])
    if kind == FamilyKind.SIGMA_NU:
        sigma = GridFn(domain, np.asarray(spec["sigma"], dtype=float))
        nu = GridFn(domain, np.asarray(spec["nu"], dtype=float))
        return ElemFamily.sigma_nu(domain, sigma, nu)
    if kind == FamilyKind.GENERALIZED_METRIC:
        shape = Sampled1D(np.asarray(spec["g_shape"]["ts"], dtype=float),
                          np.asarray(spec["g_shape"]["vs"], dtype=float))
        return ElemFamily.generalized_metric(domain, shape,
                                             float(spec["quasi_subadd_const"]))
    if kind == FamilyKind.GAUGE:
        return ElemFamily.gauge(domain, spec.get("norm", "l2"))
    return ElemFamily(kind, domain)


def parse_dual_grid(spec: dict, domain: FiniteMetricSpace, f=None) -> DualGrid:
    family = parse_family(spec, domain)
    if "params" in spec:
        return DualGrid(family, tuple(ElemParams(**d) for d in spec["params"]))
    return default_dual_grid(family, f, **{k: int(v) for k, v in spec.get("auto", {}).items()})


def report_duality(rep: DualityReport) -> dict:
    return {
        "primal": ext_to_json(rep.primal),
        "dual": ext_to_json(rep.dual),
        "gap": ext_to_json(rep.gap),
        "V": ext_list(rep.V.values),
        "V_star": ext_list(rep.V_star),
        "V_bidual_at_y0": ext_to_json(rep.V_bidual_at_y0),
        "anchor_gap": ext_to_json(rep.anchor_gap()),
        "reconstruction_ok": rep.reconstruction_ok,
        "convexity_scope": rep.convexity_scope,
        "convexity_holds": rep.convexity_holds,
        "certificate": report_certificate(rep.certificate),
        "multiplier_grid": {
            "kind": rep.psi_grid.family.kind.value,
            "size": rep.psi_grid.size,
        },
    }


def report_certificate(cert) -> dict | None:
    if cert is None:
        return None
    return {
        "psi1": params_to_json(cert.psi1),
        "psi2": params_to_json(cert.psi2),
        "phi1": {"kind": cert.phi1.kind, "level": cert.phi1.level},
        "phi2": {"kind": cert.phi2.kind, "level": cert.phi2.level},
        "t": {"t0": cert.t.t0, "level": cert.t.level,
              "value": cert.t.lower_envelope_value},
    }


def lsc_curve(rep: DualityReport) -> list[dict]:
    """Defect of the optimal value function per punctured-ball radius."""
    radii, defects = lsc_profile(rep.V, rep.y0)
    return [{"radius": r, "defect": d} for r, d in zip(radii.tolist(), defects.tolist())]


# ---------------------------------------------------------------------------
# scenario runners (each returns (results_dict, curve_rows, exit_code))
# ---------------------------------------------------------------------------

def run_conjugate(sc: dict, rng, validate: str):
    domain = parse_domain(sc["domain"], validate)
    f = GridFn(domain, ext_array(sc["function"], "function"))
    grid = parse_dual_grid(sc["family"], domain, f)
    star = conjugate_transform(f, grid)
    second = biconjugate(f, grid, star)
    defects = [float(v - w) if np.isfinite(v) else None
               for v, w in zip(f.values, second.values)]
    results = {
        "conjugate": ext_list(star),
        "biconjugate": ext_list(second.values),
        "defect": defects,
        "grid_size": grid.size,
    }
    return results, None, EXIT_OK


def _canonical_instance(shape: str, n_points: int):
    if n_points % 2 == 0:
        raise ScenarioError(f"canonical level {n_points} is even; a level must be odd "
                            "so that y = 0 is a grid point")
    ys = np.linspace(-1.0, 1.0, n_points)
    y0 = n_points // 2
    ys[y0] = 0.0  # linspace can miss zero by an ulp (99 points)
    Y = build_metric_space(ys[:, None])
    if shape == "vee_down":
        p = np.vstack([ys, -ys])          # V(y) = -|y|
    else:
        p = np.abs(ys)[None, :]           # V(y) = |y|
    prob = PerturbationProblem(Y=Y, p=p, y0=y0)
    V = GridFn(Y, p.min(axis=0))
    grid = default_dual_grid(ElemFamily.affine(Y), V)
    return prob, grid


def _perturbation(sc: dict, validate: str):
    """The problem of a gap or certify scenario, and its multiplier grid
    (defaults drawn from the optimal value function V)."""
    domain = parse_domain(sc["domain"], validate)
    p = ext_array(sc["p"], "p")
    prob = PerturbationProblem(Y=domain, p=p, y0=int(sc["y0"]))
    return prob, parse_dual_grid(sc["family"], domain, GridFn(domain, p.min(axis=0)))


def run_gap(sc: dict, rng, validate: str):
    if "canonical" in sc:
        shape = sc["canonical"]["shape"]
        levels = [int(v) for v in sc["canonical"]["levels"]]
        base_r = 2.0 / (levels[0] - 1)
        rows = []
        for n_points in levels:
            prob, grid = _canonical_instance(shape, n_points)
            rep = duality_report(prob, grid)
            rows.append({
                "points": n_points,
                "spacing": 2.0 / (n_points - 1),
                "gap": rep.gap.as_float(),
                "lsc_defect": lsc_defect(rep.V, rep.y0, base_r),
            })
        results = {"refinement": rows, "shape": shape, "base_radius": base_r}
        return results, rows, EXIT_OK

    prob, grid = _perturbation(sc, validate)
    rep = duality_report(prob, grid, convexity_scope=sc.get("convexity_scope", "anchor"))
    results = report_duality(rep)
    curve = lsc_curve(rep)
    results["lsc_curve"] = curve
    return results, curve, EXIT_OK


def run_certify(sc: dict, rng, validate: str):
    prob, grid = _perturbation(sc, validate)
    cert = gap_certificate(prob, grid, float(sc["alpha"]))
    results = {
        "alpha": float(sc["alpha"]),
        "certificate": report_certificate(cert),
    }
    return results, None, (EXIT_OK if cert is not None else EXIT_NEGATIVE)


def run_constrained(sc: dict, rng, validate: str):
    domain = parse_domain(sc["domain"], validate)
    f = GridFn(len(sc["f"]), ext_array(sc["f"], "f"))
    cmap = ConstraintMap(
        feasible=tuple(frozenset(s) for s in sc["A"]),
        n_x=f.size,
        allow_empty=bool(sc.get("allow_empty", False)),
    )
    inst = ConstrainedInstance(f=f, map=cmap, Y=domain, y0=int(sc["y0"]))
    ladder = tuple(float(a) for a in sc.get("ladder", DEFAULT_LADDER))
    rep = verify_zero_gap_metric(inst, ladder, tol=float(sc.get("tol", EQ_TOL)))
    curve = [{"rung": a} for a in rep.ladder]
    results = {
        "duality": report_duality(rep.duality),
        "constrained_value": ext_to_json(rep.constrained_value),
        "ladder": list(rep.ladder),
        "minimal_rung": rep.minimal_rung,
        "proof_bound": rep.proof_bound,
        "anchor_feasible": rep.anchor_feasible,
        "hypothesis": rep.hypothesis,
    }
    return results, curve, EXIT_OK


def run_transport(sc: dict, rng, validate: str):
    if "cost_csv" in sc:
        cost = np.loadtxt(sc["cost_csv"], delimiter=",", ndmin=2)
    else:
        cost = float_array(sc["cost"], "cost")
    prob = TransportProblem(cost=cost, mu=sc["mu"], nu=sc["nu"])
    coupling, pots, value = solve_transport(prob)
    audit = kantorovich_gap_report(prob, (coupling, pots, value))
    results = {
        "value": value,
        "coupling": coupling.q.tolist(),
        "potentials": {"psi": pots.psi.tolist(), "phi": pots.phi.tolist()},
        "primal": audit.primal,
        "dual": audit.dual,
        "gap": audit.gap,
        "slack_violations": audit.slack_violations,
        "orientation": audit.orientation,
    }
    return results, None, EXIT_OK


def run_conic(sc: dict, rng, validate: str):
    rep = conic_lp_dual(ConicLP(pi=sc["pi"], c_vec=sc["c"]))
    results = {
        "primal": ext_to_json(rep.primal),
        "dual": ext_to_json(rep.dual),
        "q_star": None if rep.q_star is None else rep.q_star.tolist(),
    }
    return results, None, EXIT_OK


def run_peaking(sc: dict, rng, validate: str):
    domain = parse_domain(sc["domain"], validate)
    family = parse_family(sc["family"], domain)
    y0 = int(sc["y0"])
    if not 0 <= y0 < domain.n:
        raise ScenarioError("y0 out of range")
    anchor = sc.get("g", {}).get("anchor")
    if anchor is not None and not 0 <= anchor < domain.n:
        raise ScenarioError("g.anchor out of range")
    eps, delta = float(sc["eps"]), float(sc["delta"])
    witnesses = {}
    if "g" in sc:
        witnesses["peaking"] = lambda: peaking_witness(family, y0, eps, delta, float(sc["K"]),
                                                       ElemParams(**sc["g"]))
    if sc.get("urysohn"):
        witnesses["urysohn"] = lambda: urysohn_witness(family, y0, eps, delta)
    results: dict = {}
    code = EXIT_OK
    for name, witness in witnesses.items():
        try:
            results[f"{name}_witness"] = params_to_json(witness())
        except NoWitness as e:
            results[f"{name}_witness"] = None
            results[f"{name}_failure"] = str(e)
            code = EXIT_NEGATIVE
    draws = int(sc.get("draws", 0))
    if draws:
        ok = 0
        drawn = []
        for _ in range(draws):
            eps = float(rng.uniform(0.05, 1.0))
            delta = float(rng.uniform(0.1, 1.5))
            K = float(rng.uniform(0.1, 5.0))
            anchor = int(rng.integers(domain.n))
            a = float(rng.uniform(0.5, 4.0))
            c = float(rng.uniform(-2.0, 2.0))
            g = ElemParams(a=a, anchor=anchor, c=c)
            try:
                peaking_witness(family, y0, eps, delta, K, g)
                ok += 1
                drawn.append({"eps": eps, "delta": delta, "K": K, "ok": True})
            except NoWitness:
                drawn.append({"eps": eps, "delta": delta, "K": K, "ok": False})
        results["draws"] = drawn
        results["draws_verified"] = ok
        if ok != draws:
            code = EXIT_NEGATIVE
    return results, None, code


RUNNERS = {
    "conjugate": run_conjugate,
    "gap": run_gap,
    "certify": run_certify,
    "constrained": run_constrained,
    "transport": run_transport,
    "conic": run_conic,
    "peaking": run_peaking,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def load_schema(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _resolve_refs(schema: dict) -> dict:
    """schema without $defs, each {"$ref": "#/$defs/<name>"} replaced by the
    definition it names.  A $ref with sibling keywords, one of another form,
    one to a missing definition and a cycle raise SchemaError."""
    from jsonschema.exceptions import SchemaError

    defs = schema.get("$defs", {})

    def resolve(node, names):
        if isinstance(node, list):
            return [resolve(v, names) for v in node]
        if not isinstance(node, dict):
            return node
        if "$ref" not in node:
            return {k: resolve(v, names) for k, v in node.items()}
        ref = node["$ref"]
        name = ref.removeprefix("#/$defs/")
        if len(node) > 1:
            raise SchemaError(f"$ref {ref!r} has sibling keywords")
        if name == ref:
            raise SchemaError(f"$ref {ref!r} is not of the form '#/$defs/<name>'")
        if name not in defs:
            raise SchemaError(f"$ref {ref!r} names no definition")
        if name in names:
            raise SchemaError(f"$ref {ref!r} is cyclic")
        return resolve(defs[name], names | {name})

    return resolve({k: v for k, v in schema.items() if k != "$defs"}, frozenset())


#: The numeric-table definitions of the schema, as (rows nested, extended
#: reals allowed).  The validator checks each with the "table" keyword.
_TABLES = {
    "extvector": (False, True),
    "extmatrix": (True, True),
    "numvector": (False, False),
    "nummatrix": (True, False),
}


def _vector_ok(row, ext: bool) -> bool:
    """row is a non-empty list of numbers, or of extended reals if ext."""
    if type(row) is not list or not row:
        return False
    if set(map(type, row)) <= _NUMBER_TYPES:
        return True
    return ext and all(map(_is_ext, row))


def _table(validator, table, instance, schema):
    """The "table" keyword, whose value is [name, definition]: instance is
    valid if one pass of a Python loop finds it the table $defs/<name>
    describes, never looser than the definition; any other instance gets the
    errors of the definition itself."""
    name, definition = table
    nested, ext = _TABLES[name]
    if nested:
        ok = (type(instance) is list and bool(instance)
              and all(_vector_ok(row, ext) for row in instance))
    else:
        ok = _vector_ok(instance, ext)
    if not ok:
        yield from validator.descend(instance, definition)


def _kind_branches(all_of: list) -> dict:
    """{K: T_K} of an allOf whose every member is {"if": {"properties":
    {"kind": {"const": K}}}, "then": T_K}, for distinct strings K; any other
    allOf raises SchemaError."""
    from jsonschema.exceptions import SchemaError

    branches = {}
    for member in all_of:
        try:
            kind = member["if"]["properties"]["kind"]["const"]
        except (TypeError, KeyError):
            kind = None
        if (type(kind) is not str or kind in branches or set(member) != {"if", "then"}
                or member["if"] != {"properties": {"kind": {"const": kind}}}):
            raise SchemaError(f"allOf member {member!r} does not dispatch on a kind: "
                              "{'if': {'properties': {'kind': {'const': K}}}, 'then': ...}")
        branches[kind] = member["then"]
    return branches


def _by_kind(validator, branches, instance, schema):
    """The "by_kind" keyword, which stands for the allOf _kind_branches
    reads: instance gets the errors of each branch T_K whose if holds.  For
    an object with a kind, that is T_K alone if kind is the string K, and no
    branch otherwise; for an object without one, or any other instance,
    every branch, in order."""
    if isinstance(instance, dict) and "kind" in instance:
        kind = instance["kind"]
        if isinstance(kind, str) and kind in branches:
            yield from validator.descend(instance, branches[kind], schema_path=kind)
    else:
        for kind, then in branches.items():
            yield from validator.descend(instance, then, schema_path=kind)


@functools.cache
def scenario_validator():
    """The validator for the scenario schema, built once per process.  On
    first use the shipped schema is checked against its metaschema; each of
    its numeric-table definitions is then wrapped in the "table" keyword
    (_table), its local $refs are resolved (_resolve_refs), so that no
    scenario cell pays for a reference lookup, and its top-level allOf
    becomes the "by_kind" keyword (_by_kind), so that a scenario is checked
    against its own kind's branch without testing the other kinds' ifs."""
    from jsonschema.validators import extend, validator_for

    schema = load_schema(SCHEMA_PATH)
    cls = validator_for(schema)
    cls.check_schema(schema)
    defs = schema.get("$defs", {})
    tables = {name: {"table": [name, defs[name]]} for name in _TABLES if name in defs}
    resolved = _resolve_refs({**schema, "$defs": {**defs, **tables}})
    resolved = dict(("by_kind", _kind_branches(v)) if k == "allOf" else (k, v)
                    for k, v in resolved.items())
    return extend(cls, {"table": _table, "by_kind": _by_kind})(resolved)


def validate_scenario(scenario: dict) -> None:
    """Raise the best_match message of the scenario's schema violations."""
    from jsonschema.exceptions import best_match

    error = best_match(scenario_validator().iter_errors(scenario))
    if error is not None:
        raise ScenarioError(f"scenario failed schema validation: {error.message}")


def _reject_constant(name: str):
    raise ScenarioError(f"non-standard JSON literal {name}; extended reals are "
                        'written "+inf" or "-inf"')


def _within_doubles(parse):
    """A json number hook: parse(text), unless its magnitude exceeds the
    largest double (a float literal that overflows to inf, a huge int)."""
    def read(text):
        value = parse(text)
        if abs(value) <= sys.float_info.max:
            return value
        raise ScenarioError(f"number {text} lies outside the doubles")
    return read


_NUMBER_HOOKS = {"parse_float": _within_doubles(float), "parse_int": _within_doubles(int)}


def load_scenario(path) -> dict:
    """Parse a scenario file.  An unreadable file, the non-standard literals
    NaN, Infinity and -Infinity, a number outside the doubles and a top-level
    value that is not an object raise ScenarioError("cannot read scenario:
    ...")."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            scenario = json.load(fh, parse_constant=_reject_constant, **_NUMBER_HOOKS)
        if not isinstance(scenario, dict):
            raise ScenarioError(f"top-level value is a {type(scenario).__name__}, "
                                "not an object")
    except (OSError, ValueError, ScenarioError) as e:
        raise ScenarioError(f"cannot read scenario: {e}") from None
    return scenario


@contextlib.contextmanager
def _writing(what: str):
    try:
        yield
    except OSError as e:
        raise ScenarioError(f"cannot write {what}: {e}") from None


def run_scenario(path: str, out=None, seed=None, tol=None, validate="full",
                 csv_path=None, command=None) -> int:
    """Execute one scenario file and write its JSON report.  Returns the exit
    code; raises nothing scenario-related (errors map to exit codes).  A
    command other than None is the kind the file must declare."""
    t0 = time.monotonic()
    try:
        scenario = load_scenario(path)
        if command is not None and scenario.get("kind") != command:
            raise ScenarioError(f"scenario kind {scenario.get('kind')!r} does not match "
                                f"command {command!r}")
        if tol is not None:
            scenario = {**scenario, "tol": tol}
        validate_scenario(scenario)
        kind = scenario["kind"]
        if "tol" in scenario:
            if kind != "constrained":
                raise ScenarioError(f"tol applies to constrained scenarios, not {kind}")
            if not math.isfinite(scenario["tol"]):
                raise ScenarioError("tol must be finite")
        seed_val = seed if seed is not None else scenario.get("seed")
        seed_val = None if seed_val is None else int(seed_val)  # the schema admits 7.0
        if scenario.get("draws") and seed_val is None:
            raise ScenarioError("randomized scenarios require a seed")
        rng = np.random.default_rng(seed_val)
        results, curve, code = RUNNERS[kind](scenario, rng, validate)
        if csv_path is not None and not curve:
            raise ScenarioError("this scenario produces no curve table")

        report = {
            "tool": {"name": "abconvex", "version": __version__},
            "kind": kind,
            "seed": seed_val,
            "scenario": scenario,
            "results": results,
            "exit_code": code,
        }
        payload = json_text(report) + "\n"
        if csv_path is not None:  # first, so that a report is never left by a failed table
            with _writing("csv"), open(csv_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(curve[0]))
                writer.writeheader()
                writer.writerows(curve)
        if out in (None, "-"):
            sys.stdout.write(payload)
        else:
            try:
                with _writing("report"):
                    Path(out).write_text(payload, encoding="utf-8")
            except ScenarioError:  # nor a table by a failed report
                if csv_path is not None:
                    Path(csv_path).unlink(missing_ok=True)
                raise
    except (AbconvexError, ValueError, KeyError, OSError, OverflowError, AssertionError,
            MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_SCENARIO

    print(f"elapsed_s={time.monotonic() - t0:.3f}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="abconvex",
        description="Finite-grid conjugate-duality scenario runner",
    )
    parser.add_argument("command", choices=sorted(RUNNERS))
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument("--out", default=None, help="report path (default stdout)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--validate", choices=["full", "fast"], default="full")
    parser.add_argument("--csv", dest="csv_path", default=None,
                        help="also write the scenario's curve table as CSV")
    args = parser.parse_args(argv)
    return run_scenario(args.scenario, out=args.out, seed=args.seed, tol=args.tol,
                        validate=args.validate, csv_path=args.csv_path, command=args.command)


if __name__ == "__main__":
    sys.exit(main())

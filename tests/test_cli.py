"""Scenario runner: exit codes, schema validation, determinism, CSV output."""

import copy
import functools
import gc
import json
import math
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from abconvex import (
    DualGrid,
    ElemFamily,
    ElemParams,
    GridFn,
    PerturbationProblem,
    Sampled1D,
    biconjugate,
    build_metric_space,
    conjugate_transform,
    default_dual_grid,
    duality_report,
    lsc_defect,
)
from abconvex.cli import (
    EXIT_BAD_SCENARIO,
    EXIT_NEGATIVE,
    EXIT_OK,
    REPORT_SCHEMA_PATH,
    SCHEMA_PATH,
    ext_from_json,
    ext_to_json,
    json_text,
    load_scenario,
    load_schema,
    lsc_curve,
    run_scenario,
    scenario_validator,
    validate_scenario,
)
import abconvex.transport as transport
from abconvex.errors import ImproperInput, ScenarioError
from abconvex.transport import kantorovich_gap_report, solve_transport
from conftest import (CONIC_OVERFLOWS, LAGRANGIAN_OVERFLOWS, TRANSPORT_OVERFLOWS,
                      degenerate_transport, lagrangian_overflow_scenario,
                      large_cost_transport, old_lsc_curve, old_lsc_defect, random_transport,
                      transport_overflow_message)

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"

ALL_SCENARIOS = sorted(SCENARIOS.glob("*.json"))
EXPECTED_EXITS = {
    "certify_vee_down_fail.json": EXIT_NEGATIVE,
}


def run_file(path, tmp_path, name="out.json", **kw):
    out = tmp_path / name
    code = run_scenario(str(path), out=str(out), **kw)
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, out


class TestExtRealEncoding:
    def test_round_trip(self):
        for v in (0.0, -1.5, np.inf, -np.inf, 1e300):
            assert ext_from_json(ext_to_json(v)) == v

    def test_accepts_bare_numbers(self):
        assert ext_from_json(2) == 2.0
        assert ext_from_json({"finite": 3.5}) == 3.5

    def test_rejects_junk(self):
        from abconvex.errors import ScenarioError

        for junk in ("inf", True, False, {"finite": True}, {"finite": "1"},
                     {"finite": None}, {"finite": 1, "x": 0}, {}, [1.0]):
            with pytest.raises(ScenarioError, match="bad extended-real encoding"):
                ext_from_json(junk)


class TestScenarios:
    @pytest.mark.parametrize("path", ALL_SCENARIOS, ids=lambda p: p.name)
    def test_runs_and_validates(self, path, tmp_path):
        code, report, _ = run_file(path, tmp_path)
        assert code == EXPECTED_EXITS.get(path.name, EXIT_OK)
        jsonschema.validate(report, load_schema(REPORT_SCHEMA_PATH))
        jsonschema.validate(report["scenario"], load_schema(SCHEMA_PATH))

    def test_gap_vee_down_values(self, tmp_path):
        code, report, _ = run_file(SCENARIOS / "gap_vee_down.json", tmp_path)
        assert code == EXIT_OK
        assert report["results"]["gap"] == {"finite": 1.0}
        assert report["results"]["dual"] == {"finite": -1.0}

    def test_transport_value(self, tmp_path):
        _, report, _ = run_file(SCENARIOS / "transport_2x2.json", tmp_path)
        assert report["results"]["value"] == 1.0
        assert report["results"]["slack_violations"] == 0

    def test_conic_value(self, tmp_path):
        _, report, _ = run_file(SCENARIOS / "conic_small.json", tmp_path)
        assert report["results"]["primal"] == {"finite": 11.0}

    def test_conic_exact_zero_optimum(self, tmp_path, capsys):
        # pi @ c overflows the doubles, but the optimum 1e616 - 1e616 is 0
        sc = {"kind": "conic", "pi": [1e308, 1e308], "c": [1e308, -1e308]}
        code, err = _run_main("conic", sc, tmp_path, capsys)
        assert code == EXIT_OK and "Traceback" not in err
        results = json.loads((tmp_path / "o.json").read_text())["results"]
        assert results["primal"] == results["dual"] == {"finite": 0.0}

    def test_constrained_minimal_rung(self, tmp_path):
        _, report, _ = run_file(SCENARIOS / "constrained_2x2.json", tmp_path)
        assert report["results"]["minimal_rung"] == 2.0
        assert report["results"]["duality"]["gap"] == {"finite": 0.0}

    def test_constrained_repeated_rungs(self, tmp_path):
        # the report of a ladder with repeated rungs is that of its sorted set
        reports = []
        for k, ladder in enumerate(([4.0, 1.0, 2.0, 2.0, 1.0], [1.0, 2.0, 4.0])):
            p = tmp_path / f"sc{k}.json"
            p.write_text(json.dumps(_mutated("constrained_2x2.json",
                                             lambda sc: sc.update(ladder=ladder))))
            code, report, _ = run_file(p, tmp_path, name=f"o{k}.json")
            assert code == EXIT_OK
            reports.append(report["results"])
        assert reports[0] == reports[1] and reports[0]["ladder"] == [1.0, 2.0, 4.0]

    def test_conjugate_values(self, tmp_path):
        _, report, _ = run_file(SCENARIOS / "conjugate_abs.json", tmp_path)
        assert report["results"]["conjugate"] == [
            {"finite": 1.0}, {"finite": 0.0}, {"finite": 0.0},
            {"finite": 0.0}, {"finite": 1.0},
        ]

    def test_conjugate_computed_once(self, tmp_path, monkeypatch):
        import abconvex.cli as cli
        import abconvex.families as families
        calls = []

        def counted(f, dual, real=families.conjugate_transform):
            calls.append(dual.size)
            return real(f, dual)

        monkeypatch.setattr(cli, "conjugate_transform", counted)
        monkeypatch.setattr(families, "conjugate_transform", counted)
        code, _, _ = run_file(SCENARIOS / "conjugate_abs.json", tmp_path)
        assert code == EXIT_OK and len(calls) == 1

    def test_conjugate_defects_are_convexity_defects(self, tmp_path):
        # a non-convex function with a +inf hole and a -0.0: the defect at each
        # finite point is f - f** there, from one biconjugate, bit for bit
        points, slopes = [-2.0, -1.0, 0.0, 1.0, 2.0], [-2.0, -1.0, 0.0, 1.0, 2.0]
        values = [1.0, -0.0, 1.5, np.inf, 3.0]
        sc = {"kind": "conjugate",
              "domain": {"points": [[p] for p in points], "metric": "euclidean"},
              "function": [ext_to_json(v) for v in values],
              "family": {"kind": "affine", "params": [{"ell": [s]} for s in slopes]}}
        path = tmp_path / "defects.json"
        path.write_text(json.dumps(sc))
        code, report, _ = run_file(path, tmp_path)
        assert code == EXIT_OK
        domain = build_metric_space(np.asarray(points)[:, None])
        f = GridFn(domain, values)
        grid = DualGrid(ElemFamily.affine(domain), tuple(ElemParams(ell=[s]) for s in slopes))
        want = [float(v - w) if np.isfinite(v) else None
                for v, w in zip(f.values, biconjugate(f, grid).values)]
        got = report["results"]["defect"]
        assert [repr(v) for v in got] == [repr(v) for v in want]
        assert got[3] is None and got[2] > 0

    def test_peaking_witness_values(self, tmp_path):
        _, report, _ = run_file(SCENARIOS / "peaking_demo.json", tmp_path)
        w = report["results"]["peaking_witness"]
        assert w["a"] == 4.5 and w["c"] == 0.5
        assert report["results"]["draws_verified"] == 5


def _no_peak(sc):
    """A cone shape that turns negative on the far set, where no witness
    exists, and no Urysohn search."""
    del sc["urysohn"]
    sc["family"] = {"kind": "generalized_metric", "quasi_subadd_const": 2.0,
                    "g_shape": {"ts": [0, 1, 2], "vs": [0, 1, -1]}}


class TestNegativeOutcomes:
    def test_peaking_without_witness_exits_3(self, tmp_path, capsys):
        sc = _mutated("peaking_demo.json", _no_peak)
        code, err = _run_main("peaking", sc, tmp_path, capsys)
        assert code == EXIT_NEGATIVE and "Traceback" not in err
        report = json.loads((tmp_path / "o.json").read_text())
        results = report["results"]
        assert report["exit_code"] == EXIT_NEGATIVE
        assert results["peaking_witness"] is None
        assert results["peaking_failure"] == ("cone shape vanishes on the far set; "
                                              "no decay possible")
        assert (len(results["draws"]), results["draws_verified"]) == (5, 0)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["peaking_demo.json", "gap_vee_down.json",
                                      "transport_2x2.json"])
    def test_byte_identical_reports(self, name, tmp_path):
        _, _, out1 = run_file(SCENARIOS / name, tmp_path, name="a.json", seed=123)
        _, _, out2 = run_file(SCENARIOS / name, tmp_path, name="b.json", seed=123)
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_draws(self, tmp_path):
        _, r1, _ = run_file(SCENARIOS / "peaking_demo.json", tmp_path,
                            name="a.json", seed=1)
        _, r2, _ = run_file(SCENARIOS / "peaking_demo.json", tmp_path,
                            name="b.json", seed=2)
        assert r1["results"]["draws"] != r2["results"]["draws"]


def _stdlib_text(value):
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


def _text_or_error(write, value):
    try:
        return write(value)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


class _LoudFloat(float):
    def __repr__(self):
        return "loud"


class _LoudInt(int):
    def __repr__(self):
        return "loud"


class _LoudStr(str):
    def __str__(self):
        return "loud"


_WRITER_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1e22, 0.1, 2.0 ** 53]))
_WRITER_TEXT = st.text(st.one_of(st.characters(codec=None, exclude_categories=()),
                                 st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\udfff\U0001f600')),
                       max_size=8)
_WRITER_LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-2 ** 70, 2 ** 70),
    _WRITER_FLOATS, _WRITER_FLOATS.map(np.float64), _WRITER_FLOATS.map(_LoudFloat),
    st.integers().map(_LoudInt), _WRITER_TEXT, _WRITER_TEXT.map(_LoudStr))
_WRITER_KEYS = st.one_of(_WRITER_TEXT, st.integers(), _WRITER_FLOATS)
_WRITER_TREES = st.recursive(
    _WRITER_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_WRITER_TEXT, inner, max_size=4),
        st.dictionaries(_WRITER_KEYS, inner, max_size=3)),
    max_leaves=24)


class TestReportWriter:
    """cli.json_text, the report writer, against the json.dumps call it
    stands for: the same text, or the same exception and message."""

    @settings(max_examples=400, deadline=None)
    @given(_WRITER_TREES)
    def test_trees_match_json_dumps(self, tree):
        assert _text_or_error(json_text, tree) == _text_or_error(_stdlib_text, tree)

    @pytest.mark.parametrize("tree", [
        {}, [], (), {"a": {}, "b": [], "c": [[], {}]}, [[[[]]]], -0.0, 5e-324, 1e16,
        1e-7, 2 ** 53 + 1, -(2 ** 64), True, None, "\"\\\x01\u00e9\ud800\U0001f600",
        {"k": (1, 2.5, "x")}, {2: "b", 1.5: "a", -1: None}, {True: 1}, {None: 0},
    ])
    def test_edge_values(self, tree):
        assert json_text(tree) == _stdlib_text(tree)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.inf)],
                             ids=["nan", "inf", "-inf", "np_inf"])
    @pytest.mark.parametrize("where", ["top", "list", "value", "key"])
    def test_non_finite_float(self, bad, where):
        tree = {"top": bad, "list": [1.0, [bad]], "value": {"a": 1, "b": bad},
                "key": {1.0: 0, bad: 1}}[where]
        with pytest.raises(ValueError) as want:
            _stdlib_text(tree)
        with pytest.raises(ValueError) as got:
            json_text(tree)
        assert str(got.value) == str(want.value)
        assert str(got.value) == f"Out of range float values are not JSON compliant: {bad!r}"

    @pytest.mark.parametrize("tree", [np.int64(3), {"a": [np.int64(3)]}, {1, 2},
                                      [np.bool_(True)], {(1, 2): 0}, {"a": 1, 2: 0}])
    def test_unserializable(self, tree):
        with pytest.raises(TypeError) as want:
            _stdlib_text(tree)
        with pytest.raises(TypeError) as got:
            json_text(tree)
        assert str(got.value) == str(want.value)

    def test_run_scenario_leaves_no_cycle(self, tmp_path):
        """No report leaves garbage for the cycle collector: every shipped
        scenario, run again with the collector off, leaves none."""
        for path in ALL_SCENARIOS:
            run_file(path, tmp_path, seed=7)  # fills the process-wide caches
            gc.collect()
            gc.disable()
            try:
                code = run_scenario(str(path), out=str(tmp_path / "again.json"), seed=7)
                unreachable = gc.collect()
            finally:
                gc.enable()
            assert (path.name, code, unreachable) == (
                path.name, EXPECTED_EXITS.get(path.name, EXIT_OK), 0)


_LSC_VALUES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 0.5, 2.0, -2.5,
                               1e308, -1e308])


@st.composite
def _lsc_cases(draw):
    """(V, y0) on points of an integer grid, scaled, so that distances repeat."""
    dim = draw(st.integers(1, 2))
    cells = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=9,
                          unique=True))
    scale = draw(st.sampled_from([1.0, 0.1, 0.3]))
    Y = build_metric_space(np.asarray(cells, dtype=float) * scale, validate="fast")
    values = draw(st.lists(_LSC_VALUES, min_size=Y.n, max_size=Y.n))
    return GridFn(Y, values), draw(st.integers(0, Y.n - 1))


def _rows_bits(rows):
    return [[(key, type(v), np.float64(v).tobytes()) for key, v in row.items()]
            for row in rows]


_LSC_OVERFLOW = (ImproperInput, "the lsc defect overflows the doubles")


def _lsc_line(values, y0=0):
    return GridFn(build_metric_space([[float(i)] for i in range(len(values))]), values), y0


# pinned, as random draws seldom meet them: a defect that overflows at the
# second radius, and one behind a -inf, which is an exact +inf
_LSC_OVERFLOW_CASES = [_lsc_line([1e308, 0.0, -1e308]), _lsc_line([1e308, -math.inf, -1e308])]


class TestLscProfile:
    """lsc_curve and lsc_defect, both read off lsc_profile's one sort and
    prefix minimum, against the per-radius loops they replaced
    (conftest.old_lsc_curve, old_lsc_defect): the same values bit for bit,
    or the same error.  Where the old loop's V(y0) - min overflowed to +inf,
    the new code raises ImproperInput."""

    @staticmethod
    def _overflowed(V, y0, radius, defect):
        """Whether a defect of +inf at radius came from an overflow: a -inf in
        the punctured ball makes an exact +inf."""
        d = V.domain.dist[y0]
        return defect == math.inf and V.values[(d > 0) & (d <= radius)].min() > -math.inf

    def _outcome(self, curve, V, y0, oracle=False):
        """The rows' bits or the error; only the old loop's overflowed +inf is
        read as the rejection, so the new code has to raise it."""
        try:
            with np.errstate(over="ignore" if oracle else "raise"):  # 1e308 - (-1e308)
                rows = curve(SimpleNamespace(V=V, y0=y0))
        except (ValueError, ImproperInput) as e:
            return type(e), str(e)
        if oracle and any(self._overflowed(V, y0, row["radius"], row["defect"])
                          for row in rows):
            return _LSC_OVERFLOW
        return _rows_bits(rows)

    @settings(max_examples=300, deadline=None)
    @given(_lsc_cases())
    @example(_LSC_OVERFLOW_CASES[0])
    @example(_LSC_OVERFLOW_CASES[1])
    def test_matches_per_radius_loop(self, case):
        V, y0 = case
        assert self._outcome(lsc_curve, V, y0) == self._outcome(old_lsc_curve, V, y0,
                                                                oracle=True)

    @settings(max_examples=300, deadline=None)
    @given(_lsc_cases())
    @example(_LSC_OVERFLOW_CASES[0])
    @example(_LSC_OVERFLOW_CASES[1])
    def test_lsc_defect_matches_masked_minimum(self, case):
        V, y0 = case
        d = np.unique(V.domain.dist[y0])
        radii = [*d, *((d[1:] + d[:-1]) / 2), d[-1] * 2, *(d[1:2] / 2), math.inf, 0.0, -1.0]

        def outcome(defect, r, oracle=False):
            try:
                with np.errstate(over="ignore" if oracle else "raise"):
                    value = defect(V, y0, float(r))
            except (ValueError, ImproperInput) as e:
                return type(e), str(e)
            if oracle and self._overflowed(V, y0, r, value):
                return _LSC_OVERFLOW
            return np.float64(value).tobytes()

        assert [outcome(lsc_defect, r) for r in radii] == [
            outcome(old_lsc_defect, r, oracle=True) for r in radii]
        # a NaN radius is rejected like every radius that is not positive; the
        # old loop's `radius <= 0` let it through to an empty ball and 0.0
        assert outcome(lsc_defect, math.nan) == (ValueError, "radius must be positive")

    def test_one_point_domain_has_no_radius(self):
        V = GridFn(build_metric_space([[0.0]]), [math.inf])
        assert lsc_curve(SimpleNamespace(V=V, y0=0)) == old_lsc_curve(
            SimpleNamespace(V=V, y0=0)) == []

    def test_overflow_is_rejected(self):
        V = GridFn(build_metric_space([[0.0], [1.0], [2.0]]), [1e308, 0.0, -1e308])
        with pytest.raises(RuntimeWarning, match="^overflow encountered in"):
            old_lsc_curve(SimpleNamespace(V=V, y0=0))
        with pytest.raises(ImproperInput, match="^the lsc defect overflows the doubles$"):
            lsc_curve(SimpleNamespace(V=V, y0=0))
        with pytest.raises(ImproperInput, match="^the lsc defect overflows the doubles$"):
            lsc_defect(V, 0, 2.0)
        assert lsc_defect(V, 0, 1.0) == 1e308  # its own defect is a double
        V = GridFn(V.domain, [1e308, 0.0, -math.inf])  # an infinite defect is no overflow
        assert lsc_defect(V, 0, 2.0) == old_lsc_defect(V, 0, 2.0) == math.inf

    def test_infinite_value_at_y0(self):
        V = GridFn(build_metric_space([[0.0], [1.0]]), [math.inf, 0.0])
        for curve in (lsc_curve, old_lsc_curve):
            with pytest.raises(ValueError, match="^lsc_defect needs a finite value at y0$"):
                curve(SimpleNamespace(V=V, y0=0))


class TestErrorPaths:
    def test_schema_violation_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "transport", "mu": [1.0]}))
        assert run_scenario(str(bad), out=str(tmp_path / "o.json")) == EXIT_BAD_SCENARIO

    def test_unreadable_exit_2(self, tmp_path):
        assert run_scenario(str(tmp_path / "missing.json")) == EXIT_BAD_SCENARIO

    def test_invariant_violation_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "kind": "transport",
            "cost": [[1.0]], "mu": [1.0], "nu": [2.0],
        }))
        assert run_scenario(str(bad), out=str(tmp_path / "o.json")) == EXIT_BAD_SCENARIO

    def test_certify_above_primal_exit_2(self, tmp_path):
        sc = json.loads((SCENARIOS / "certify_vee_up.json").read_text())
        sc["alpha"] = 5.0
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(sc))
        assert run_scenario(str(p), out=str(tmp_path / "o.json")) == EXIT_BAD_SCENARIO

    def test_draws_without_seed_exit_2(self, tmp_path, capsys):
        sc = _mutated("peaking_demo.json", lambda sc: sc.pop("seed"))
        code, err = _run_main("peaking", sc, tmp_path, capsys)
        assert code == EXIT_BAD_SCENARIO
        assert err == "error: randomized scenarios require a seed\n"

    def test_nonmetric_domain_exit_2(self, tmp_path):
        sc = json.loads((SCENARIOS / "gap_vee_down.json").read_text())
        sc["domain"]["metric"] = {"custom": [[0, 1, 1, 1, 1]] * 5}
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(sc))
        assert run_scenario(str(p), out=str(tmp_path / "o.json")) == EXIT_BAD_SCENARIO


class TestCsvAndCostCsv:
    def test_refinement_csv(self, tmp_path):
        csv_path = tmp_path / "curve.csv"
        code = run_scenario(str(SCENARIOS / "gap_refinement.json"),
                            out=str(tmp_path / "o.json"), csv_path=str(csv_path))
        assert code == EXIT_OK
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "points,spacing,gap,lsc_defect"
        assert len(lines) == 6

    def test_csv_rejected_without_curve(self, tmp_path):
        code = run_scenario(str(SCENARIOS / "transport_2x2.json"),
                            out=str(tmp_path / "o.json"),
                            csv_path=str(tmp_path / "c.csv"))
        assert code == EXIT_BAD_SCENARIO

    def test_cost_loaded_from_csv(self, tmp_path):
        cost_path = tmp_path / "cost.csv"
        cost_path.write_text("0.0,1.0\n1.0,0.0\n")
        sc = {"kind": "transport", "cost_csv": str(cost_path),
              "mu": [1.0, 0.0], "nu": [0.0, 1.0]}
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(sc))
        code, report, _ = run_file(p, tmp_path)
        assert code == EXIT_OK and report["results"]["value"] == 1.0


class TestEntryPoint:
    def test_subprocess_invocation(self, tmp_path):
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "abconvex.cli", "transport",
             "--scenario", str(SCENARIOS / "transport_2x2.json"),
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["results"]["value"] == 1.0
        assert "elapsed_s=" in proc.stderr

    def test_kind_mismatch(self):
        proc = subprocess.run(
            [sys.executable, "-m", "abconvex.cli", "conic",
             "--scenario", str(SCENARIOS / "transport_2x2.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_BAD_SCENARIO


def _mutated(name, mutate):
    sc = json.loads((SCENARIOS / name).read_text())
    mutate(sc)
    return sc


# invalid mutations of shipped scenarios, one per kind of schema breach
SCHEMA_MUTATIONS = {
    "missing_required": ("transport_2x2.json", lambda sc: sc.pop("mu")),
    "wrong_type": ("certify_vee_up.json", lambda sc: sc.update(alpha="high")),
    "bad_extreal": ("gap_vee_down.json",
                    lambda sc: sc["p"][0].__setitem__(1, "inf")),
    "bad_finite_wrapper": ("conjugate_abs.json",
                           lambda sc: sc["function"].__setitem__(0, {"value": 1.0})),
    "unknown_property": ("gap_vee_up.json",
                         lambda sc: sc["family"]["params"][0].update(slope=1.0)),
    "bad_family_kind": ("peaking_demo.json",
                        lambda sc: sc["family"].update(kind="cubic")),
    "bad_scenario_kind": ("conic_small.json", lambda sc: sc.update(kind="dual")),
    "kind_missing": ("gap_vee_down.json", lambda sc: sc.pop("kind")),
    "kind_null": ("transport_2x2.json", lambda sc: sc.update(kind=None)),
    "kind_number": ("constrained_2x2.json", lambda sc: sc.update(kind=3)),
    "kind_list": ("gap_refinement.json", lambda sc: sc.update(kind=["gap"])),
    "negative_seed": ("peaking_demo.json", lambda sc: sc.update(seed=-1)),
}


class TestSchemaValidator:
    @pytest.mark.parametrize("case", sorted(SCHEMA_MUTATIONS))
    def test_message_matches_jsonschema_validate(self, case, tmp_path):
        sc = _mutated(*SCHEMA_MUTATIONS[case])
        with pytest.raises(jsonschema.ValidationError) as oracle:
            jsonschema.validate(sc, load_schema(SCHEMA_PATH))
        with pytest.raises(ScenarioError) as got:
            validate_scenario(sc)
        assert str(got.value) == (
            f"scenario failed schema validation: {oracle.value.message}")
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(sc))
        assert run_scenario(str(p), out=str(tmp_path / "o.json")) == EXIT_BAD_SCENARIO

    @pytest.mark.parametrize("case, message", [
        ("sigma", "'sigma' is a required property"),
        ("nu", "'nu' is a required property"),
        ("g_shape", "'g_shape' is a required property"),
        ("quasi_subadd_const", "'quasi_subadd_const' is a required property"),
        ("K", "'K' is a dependency of 'g'"),
    ])
    def test_missing_field_a_runner_reads(self, case, message, tmp_path, capsys):
        if case == "K":
            sc = _mutated("peaking_demo.json", lambda sc: sc.pop("K"))
        else:
            kind = "sigma_nu" if case in ("sigma", "nu") else "generalized_metric"
            family = {k: v for k, v in FAMILY_KINDS[kind][0].items() if k != case}
            sc = _mutated("gap_vee_down.json", lambda sc: sc.update(family=family))
        code, err = _run_main(sc["kind"], sc, tmp_path, capsys)
        assert code == EXIT_BAD_SCENARIO
        assert err == f"error: scenario failed schema validation: {message}\n"

    def test_metaschema_checked_once(self, monkeypatch, tmp_path):
        from jsonschema.validators import validator_for

        cls = validator_for(load_schema(SCHEMA_PATH))
        original = cls.check_schema
        checks = []

        def counting_check(schema, *args, **kwargs):
            checks.append(schema)
            return original(schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", staticmethod(counting_check))
        scenario_validator.cache_clear()
        for name in ("gap_vee_down.json", "transport_2x2.json"):
            code, _, _ = run_file(SCENARIOS / name, tmp_path, name=f"o_{name}")
            assert code == EXIT_OK
        assert checks == [load_schema(SCHEMA_PATH)]  # as shipped, $refs unresolved

    def test_invalid_schema_raises_on_first_use(self, monkeypatch, tmp_path):
        _assert_schema_error_on_first_use({"type": 12}, monkeypatch, tmp_path)

    @pytest.mark.parametrize("kind_schema, defs", [
        ({"$ref": "https://example.com/kind.json"}, {}),
        ({"$ref": "#/$defs/missing"}, {"kind": {"type": "string"}}),
        ({"$ref": "#/$defs/kind", "minLength": 1}, {"kind": {"type": "string"}}),
        ({"$ref": "#/$defs/node"}, {"node": {"type": "array", "items": {"$ref": "#/$defs/node"}}}),
    ], ids=["non_local", "missing_definition", "sibling_keywords", "cycle"])
    def test_unresolvable_ref_raises_on_first_use(self, kind_schema, defs, monkeypatch,
                                                  tmp_path):
        schema = {"$schema": "https://json-schema.org/draft/2020-12/schema",
                  "properties": {"kind": kind_schema}, "$defs": defs}
        _assert_schema_error_on_first_use(schema, monkeypatch, tmp_path)

    @pytest.mark.parametrize("all_of", [
        [{"required": ["kind"]}],
        [True],
        [{"if": {"properties": {"kind": {"enum": ["conic"]}}}, "then": {}}],
        [{"if": {"properties": {"kind": {"const": 3}}}, "then": {}}],
        [{"if": {"properties": {"kind": {"const": "conic"}}}, "then": {}, "else": False}],
        [{"if": {"properties": {"kind": {"const": "conic"}}, "required": ["kind"]},
          "then": {}}],
        [{"if": {"properties": {"kind": {"const": "conic"}}}}],
        [{"if": {"properties": {"kind": {"const": "conic"}}}, "then": {}}] * 2,
    ], ids=["no_if", "boolean", "enum", "non_string_const", "else", "if_extra_keyword",
            "no_then", "repeated_kind"])
    def test_all_of_without_kind_dispatch_raises_on_first_use(self, all_of, monkeypatch,
                                                              tmp_path):
        schema = {"$schema": "https://json-schema.org/draft/2020-12/schema",
                  "properties": {"kind": {"type": "string"}}, "allOf": all_of}
        _assert_schema_error_on_first_use(schema, monkeypatch, tmp_path)

    def test_all_of_becomes_by_kind_in_place(self):
        shipped = load_schema(SCHEMA_PATH)
        schema = scenario_validator().schema
        assert list(schema) == ["by_kind" if k == "allOf" else k
                                for k in shipped if k != "$defs"]
        assert list(schema["by_kind"]) == [
            member["if"]["properties"]["kind"]["const"] for member in shipped["allOf"]]

    def test_validator_schema_has_no_refs(self):
        text = json.dumps(scenario_validator().schema)
        assert "$ref" not in text and "$defs" not in text


def _assert_schema_error_on_first_use(schema, monkeypatch, tmp_path):
    import abconvex.cli as cli

    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps(schema))
    monkeypatch.setattr(cli, "SCHEMA_PATH", bad)
    cli.scenario_validator.cache_clear()
    try:
        with pytest.raises(jsonschema.SchemaError):
            cli.validate_scenario({"kind": "conic"})
    finally:
        cli.scenario_validator.cache_clear()


@functools.cache
def _oracle_validator():
    """The scenario validator without $ref resolution: the shipped schema,
    $refs in place, with extreal and domain.metric back to oneOf."""
    from jsonschema.validators import validator_for

    schema = load_schema(SCHEMA_PATH)
    for node in (schema["$defs"]["extreal"], schema["$defs"]["domain"]["properties"]["metric"]):
        node["oneOf"] = node.pop("anyOf")
    return validator_for(schema)(schema)


#: values that replace leaves, fill extra keys and extend arrays
_WRONG_VALUES = ("x", "inf", "+inf", "-inf", {"finite": "a"}, {"finite": 1.5},
                 {"finite": 1.5, "extra": 0}, {}, [], [1.0], [["a"]], None, True, -1, 0,
                 2.5, 7.0, "euclidean", {"custom": [[0.0]]}, {"custom": "a"})
_EXTRA_KEYS = ("extra", "metric", "finite", "custom", "seed")
MUTATIONS_PER_SCENARIO = 240


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, (dict, list)):
        for k, v in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(v, (*path, k))


def _random_mutation(sc, rnd):
    """sc after one to three random edits: a value replaced by a wrong one,
    a key deleted, an extra key, an item appended, or domain.metric set."""
    sc = copy.deepcopy(sc)
    for _ in range(rnd.randint(1, 3)):
        nodes = list(_nodes(sc))
        op = rnd.choice(("replace", "delete", "extra", "append", "metric"))
        value = copy.deepcopy(rnd.choice(_WRONG_VALUES))
        dicts = [node for _, node in nodes if isinstance(node, dict) and node]
        lists = [node for _, node in nodes if isinstance(node, list)]
        if op == "delete" and dicts:
            node = rnd.choice(dicts)
            del node[rnd.choice(sorted(node))]
        elif op == "extra" and dicts:
            rnd.choice(dicts)[rnd.choice(_EXTRA_KEYS)] = value
        elif op == "append" and lists:
            node = rnd.choice(lists)
            node.append(copy.deepcopy(rnd.choice(node)) if node and rnd.random() < 0.5
                        else value)
        elif op == "metric" and isinstance(sc.get("domain"), dict):
            sc["domain"]["metric"] = value
        else:
            path, _ = rnd.choice(nodes[1:])
            parent = sc
            for k in path[:-1]:
                parent = parent[k]
            parent[path[-1]] = value
    return sc


def _verdicts(scenarios):
    """(oracle message, validate_scenario message) of each scenario, None
    for a valid one; the validator's is_valid must agree with the oracle."""
    from jsonschema.exceptions import best_match

    oracle, validator = _oracle_validator(), scenario_validator()
    for sc in scenarios:
        error = best_match(oracle.iter_errors(sc))
        assert validator.is_valid(sc) == (error is None)
        try:
            validate_scenario(sc)
            got = None
        except ScenarioError as e:
            got = str(e)
        yield (None if error is None else
               f"scenario failed schema validation: {error.message}"), got


class TestResolvedSchemaOracle:
    """validate_scenario against the validator built from the unresolved
    oneOf schema: the same verdict and the same best_match message."""

    def test_shipped_scenarios(self):
        scenarios = [json.loads(p.read_text()) for p in ALL_SCENARIOS]
        assert list(_verdicts(scenarios)) == [(None, None)] * len(scenarios)

    @pytest.mark.parametrize("case", sorted(SCHEMA_MUTATIONS))
    def test_schema_mutation(self, case):
        [(want, got)] = _verdicts([_mutated(*SCHEMA_MUTATIONS[case])])
        assert want is not None
        assert got == want

    def test_kind_mutations(self):
        """Every shipped scenario under every kind, and under a kind that is
        deleted or not one of them, and instances that are no object."""
        kinds = load_schema(SCHEMA_PATH)["properties"]["kind"]["enum"]
        scenarios = [json.loads(p.read_text()) for p in ALL_SCENARIOS]
        mutants = [{**sc, "kind": kind}
                   for sc in scenarios for kind in [*kinds, "dual", None, 3, ["gap"]]]
        mutants += [{k: v for k, v in sc.items() if k != "kind"} for sc in scenarios]
        mutants += [[], [{"kind": "gap"}], "gap", 3, None, True]
        pairs = list(_verdicts(mutants))
        assert [k for k, (want, got) in enumerate(pairs) if want != got] == []
        assert len(scenarios) <= sum(want is None for want, _ in pairs) < len(pairs)

    @pytest.mark.parametrize("path", ALL_SCENARIOS, ids=lambda p: p.stem)
    def test_random_mutations(self, path):
        rnd = random.Random(path.name)
        sc = json.loads(path.read_text())
        mutants = [_random_mutation(sc, rnd) for _ in range(MUTATIONS_PER_SCENARIO)]
        pairs = list(_verdicts(mutants))
        assert [k for k, (want, got) in enumerate(pairs) if want != got] == []
        invalid = sum(want is not None for want, _ in pairs)
        assert 0 < invalid < len(pairs)


#: the numeric tables a cell mutation targets, as (scenario, its change, path
#: to the table): ext-tables first, then num-tables
CELL_TABLES = {
    "p": ("gap_vee_down.json", None, ("p",)),
    "function": ("conjugate_abs.json", None, ("function",)),
    "mu": ("transport_2x2.json", None, ("mu",)),
    "points": ("gap_vee_down.json", None, ("domain", "points")),
    "cost": ("transport_2x2.json", None, ("cost",)),
    "sigma": ("gap_vee_down.json",
              lambda sc: sc.update(family=copy.deepcopy(FAMILY_KINDS["sigma_nu"][0])),
              ("family", "sigma")),
}
#: values dropped into one cell of a table; "empty_row" empties the cell's row
CELL_VALUES = {
    "true": True, "false": False, "nested_list": [1.0], "empty_row": [],
    "finite_true": {"finite": True}, "finite_extra_key": {"finite": 1, "x": 0},
    "empty_object": {}, "plus_inf": "+inf", "int_beyond_doubles": 10**400,
    "float_inf": json.loads("1e400"),
}


def _table_scenario(table):
    """(scenario holding the table, paths of the table's cells)."""
    name, change, path = CELL_TABLES[table]
    sc = _mutated(name, change or (lambda sc: None))
    node = sc
    for k in path:
        node = node[k]
    cells = [(*path, i) if not isinstance(v, list) else (*path, i, j)
             for i, v in enumerate(node) for j in range(len(v) if isinstance(v, list) else 1)]
    return sc, cells


def _set(sc, path, value):
    node = sc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value


def _cell_mutants(table, value):
    """The table's scenario with value in its first cell, and with it in its
    last; "empty_row" puts [] in place of the row of that cell."""
    for pick in (0, -1):
        sc, cells = _table_scenario(table)
        path = cells[pick]
        if value == "empty_row":
            path = path[:-1]
        _set(sc, path, copy.deepcopy(CELL_VALUES[value]))
        yield sc


def _schema_cells(node):
    """Candidate cells read from a schema node: every enum and const value and
    each with its first character dropped, one value of each JSON type, and an
    object of each property named, holding each of these, alone or beside an
    unknown key."""
    values = [0, -1.5, 10**400, json.loads("1e400"), True, False, None, "", "x",
              [], [1.0], {}]
    props = set()
    for _, sub in _nodes(node):
        if isinstance(sub, dict):
            for word in sub.get("enum", []) + ([sub["const"]] if "const" in sub else []):
                values += [word, word[1:]] if isinstance(word, str) else [word]
            props |= set(sub.get("properties", {}))
    values += [{p: v} for p in sorted(props) for v in list(values)]
    values += [{p: 1.0, "x": 0} for p in sorted(props)]
    return values


class TestFastCellCheck:
    """The validator's table keyword against the oneOf oracle: a cell gets the
    oracle's verdict, whether the one-pass check accepts it or the table falls
    back to the schema's definition."""

    @pytest.mark.parametrize("value", sorted(CELL_VALUES))
    @pytest.mark.parametrize("table", sorted(CELL_TABLES))
    def test_cell_mutation(self, table, value):
        pairs = list(_verdicts(_cell_mutants(table, value)))
        assert [got for _, got in pairs] == [want for want, _ in pairs]

    @pytest.mark.parametrize("table, definition", [("function", "extreal"),
                                                   ("mu", "numvector")])
    def test_grammar_read_from_schema(self, table, definition):
        """Cells derived from the shipped definition get the same verdict
        from the validator and the oracle, so the table check cannot drift
        from the definition."""
        validator, oracle = scenario_validator(), _oracle_validator()
        cells = _schema_cells(load_schema(SCHEMA_PATH)["$defs"][definition])
        verdicts = []
        for cell in cells:
            sc, paths = _table_scenario(table)
            _set(sc, paths[0], cell)
            verdicts.append((validator.is_valid(sc), oracle.is_valid(sc)))
        assert [f for f, _ in verdicts] == [g for _, g in verdicts]
        accepted = {type(c) for c, (_, g) in zip(cells, verdicts) if g}
        assert accepted == ({int, float, str, dict} if definition == "extreal"
                            else {int, float})
        assert not all(g for _, g in verdicts)

    @settings(max_examples=300, deadline=None)
    @given(table=st.sampled_from(sorted(CELL_TABLES)), where=st.integers(0, 99),
           cell=st.recursive(
               st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
               | st.sampled_from(["+inf", "-inf", "inf", ""]),
               lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
                   st.sampled_from(["finite", "x"]), inner, max_size=2),
               max_leaves=4))
    def test_no_fast_accept_of_a_violation(self, table, where, cell):
        sc, paths = _table_scenario(table)
        _set(sc, paths[where % len(paths)], cell)
        assert scenario_validator().is_valid(sc) == _oracle_validator().is_valid(sc)

    def test_fallback_accepts_numpy_floats(self):
        """A cell of a subclass of float fails the one-pass check, whose types
        are exact, and is accepted by the definition it falls back to."""
        sc = _mutated("transport_2x2.json",
                      lambda sc: sc.update(mu=[np.float64(v) for v in sc["mu"]]))
        validate_scenario(sc)
        sc["mu"][0] = True
        with pytest.raises(ScenarioError, match="^scenario failed schema validation: "
                                                "True is not of type 'number'$"):
            validate_scenario(sc)


def _run_main(command, sc, tmp_path, capsys):
    """(exit code, stderr) of the CLI entry point run in this process on sc,
    the report written to tmp_path / "o.json"."""
    from abconvex.cli import main

    path = tmp_path / "sc.json"
    path.write_text(json.dumps(sc))
    code = main([command, "--scenario", str(path), "--out", str(tmp_path / "o.json")])
    return code, capsys.readouterr().err


def _cli_subprocess(command, sc, tmp_path, *flags):
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(sc))
    return subprocess.run(
        [sys.executable, "-m", "abconvex.cli", command, "--scenario", str(p),
         "--out", str(tmp_path / "o.json"), *flags],
        capture_output=True, text=True,
    )


#: peaking scenarios whose witness scale leaves the doubles
WITNESS_SCALE_OVERFLOWS = {
    # kappa * delta underflows to 0 (a ZeroDivisionError traceback, exit 1)
    "gauge_origin_width": {
        "kind": "peaking", "y0": 0, "eps": 0.5, "delta": 5e-324, "urysohn": True,
        "domain": {"points": [[0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [2, 0, 0, 0, 0]]},
        "family": {"kind": "gauge", "norm": "linf"}},
    # eps + K - g overflows in need ("a must be finite", or a RuntimeWarning)
    "peaking_need": {
        "kind": "peaking", "y0": 0, "eps": 1e308, "delta": 1.0, "K": 0,
        "domain": {"points": [[0.0], [1.0], [2.0]]}, "family": {"kind": "metric"},
        "g": {"a": 8e307, "anchor": 0}},
    # 1 / delta overflows ("a must be finite", a parameter never given)
    "metric_scale": {
        "kind": "peaking", "y0": 0, "eps": 0.5, "delta": 5e-324, "urysohn": True,
        "domain": {"points": [[0.0], [1.0], [2.0]]}, "family": {"kind": "metric"}},
}


class TestBadInputsExit2:
    @pytest.mark.parametrize("case", sorted(WITNESS_SCALE_OVERFLOWS))
    def test_witness_scale_overflow(self, case, tmp_path, monkeypatch):
        monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
        proc = _cli_subprocess("peaking", WITNESS_SCALE_OVERFLOWS[case], tmp_path)
        assert proc.returncode == EXIT_BAD_SCENARIO
        assert proc.stderr.splitlines()[0] == "error: the witness scale overflows the doubles"
        assert "Traceback" not in proc.stderr

    def test_missing_cost_csv(self, tmp_path):
        sc = {"kind": "transport", "cost_csv": str(tmp_path / "absent.csv"),
              "mu": [1.0, 0.0], "nu": [0.0, 1.0]}
        proc = _cli_subprocess("transport", sc, tmp_path)
        assert proc.returncode == EXIT_BAD_SCENARIO
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("mutate", [
        lambda sc: sc.update(y0=99),
        lambda sc: sc["g"].update(anchor=99),
    ], ids=["y0", "anchor"])
    def test_peaking_index_out_of_range(self, mutate, tmp_path):
        sc = _mutated("peaking_demo.json", mutate)
        proc = _cli_subprocess("peaking", sc, tmp_path)
        assert proc.returncode == EXIT_BAD_SCENARIO
        assert "Traceback" not in proc.stderr
        assert "out of range" in proc.stderr

    @pytest.mark.parametrize("function, auto", [
        ([1.0, 0.0, 1.0], {"curvature_levels": 1100}),
        ([-1e308, 1e308, 0.0], {}),
    ], ids=["curvature_levels", "slope_bound"])
    def test_default_grid_overflow(self, function, auto, tmp_path, capsys):
        sc = _mutated("conjugate_abs.json", lambda sc: sc.update(
            function=function, family={"kind": "quad_minus", "auto": auto}))
        code, err = _run_main("conjugate", sc, tmp_path, capsys)
        assert code == EXIT_BAD_SCENARIO
        assert err.startswith("error: ") and "overflow" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["gap_vee_down.json", "conjugate_abs.json"])
    def test_explicit_member_overflow(self, name, tmp_path, capsys):
        # the cone -1e308 * d(., y) reaches -2e308 at distance 2
        sc = _mutated(name, lambda sc: sc.update(
            family={"kind": "metric", "params": [{"a": 1e308, "anchor": 0}]}))
        code, err = _run_main(sc["kind"], sc, tmp_path, capsys)
        assert code == EXIT_BAD_SCENARIO
        assert err.startswith("error: member values overflow the doubles")
        assert "Traceback" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("pi, c", CONIC_OVERFLOWS, ids=["minus_inf", "plus_inf"])
    def test_conic_optimum_overflow(self, pi, c, tmp_path, capsys):
        code, err = _run_main("conic", {"kind": "conic", "pi": pi, "c": c}, tmp_path, capsys)
        assert code == EXIT_BAD_SCENARIO
        assert err.startswith("error: the optimum <pi, c> overflows the doubles")
        assert "Traceback" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("case", sorted(LAGRANGIAN_OVERFLOWS))
    def test_lagrangian_overflow(self, case, tmp_path, capsys):
        code, err = _run_main("gap", lagrangian_overflow_scenario(case), tmp_path, capsys)
        assert code == EXIT_BAD_SCENARIO
        assert err == f"error: {LAGRANGIAN_OVERFLOWS[case][3]}\n"

    def test_even_canonical_level(self, tmp_path, capsys):
        sc = {"kind": "gap", "canonical": {"shape": "vee_up", "levels": [5, 4]}}
        code, err = _run_main("gap", sc, tmp_path, capsys)
        assert code == EXIT_BAD_SCENARIO
        assert err.startswith("error: canonical level 4 is even; a level must be odd")
        assert "Traceback" not in err

    def test_odd_canonical_level_where_linspace_misses_zero(self, tmp_path, capsys):
        assert not (np.linspace(-1.0, 1.0, 99) == 0.0).any()
        sc = {"kind": "gap", "canonical": {"shape": "vee_up", "levels": [99]}}
        code, _ = _run_main("gap", sc, tmp_path, capsys)
        assert code == EXIT_OK
        (row,) = json.loads((tmp_path / "o.json").read_text())["results"]["refinement"]
        assert row["points"] == 99 and row["gap"] == 0.0

    # 10**17 doubles exceed any address space, so numpy's request for them is
    # refused before anything is allocated
    @pytest.mark.parametrize("sc", [
        {"kind": "gap", "canonical": {"shape": "vee_up", "levels": [10 ** 17 + 1]}},
        {"kind": "conjugate", "domain": {"points": [[-1.0], [0.0], [1.0]]},
         "function": [1.0, 0.0, 1.0],
         "family": {"kind": "affine", "auto": {"slope_count": 10 ** 17}}},
    ], ids=["canonical_level", "slope_count"])
    def test_grid_too_large_to_allocate(self, sc, tmp_path, capsys):
        code, err = _run_main(sc["kind"], sc, tmp_path, capsys)
        assert code == EXIT_BAD_SCENARIO
        assert err.startswith("error: Unable to allocate")
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(TRANSPORT_OVERFLOWS))
    def test_transport_overflow(self, case, tmp_path, capsys):
        # schema-valid, but the value, the potentials or the audit's dual
        # objective leave the doubles
        cost, mu, nu = TRANSPORT_OVERFLOWS[case]
        sc = {"kind": "transport", "cost": cost, "mu": mu, "nu": nu}
        code, err = _run_main("transport", sc, tmp_path, capsys)
        assert code == EXIT_BAD_SCENARIO
        assert err == f"error: {transport_overflow_message(case)}\n"

    def test_infeasible_plan_exit_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(transport, "_solve_tree_alloc", lambda n, m, *_: np.full((n, m), -1.0))
        sc = _mutated("transport_2x2.json", lambda sc: None)
        code, err = _run_main("transport", sc, tmp_path, capsys)
        assert code == EXIT_BAD_SCENARIO and "Traceback" not in err
        assert err.startswith("error: final plan is infeasible")


def _nonmetric(sc):
    sc["domain"]["metric"] = {"custom": [[0, 1, 1, 1, 1]] * 5}


def _conjugate_abs_bytes(number):
    """conjugate_abs.json with its first function value written as number."""
    text = (SCENARIOS / "conjugate_abs.json").read_text()
    return text.replace('"function": [1.0,', f'"function": [{number},', 1).encode()


def _signed_zero_repeat(sc):
    """conjugate_abs.json's member {"ell": [0.0]} once more as {"ell": [-0.0]}."""
    sc["family"]["params"].append({"ell": [-0.0]})


def _gap_30x40(last_cell=None):
    """A 30 x 40 gap scenario whose 1200 table cells the one-pass check reads,
    its last p cell replaced by last_cell if given."""
    ys = [[-1.0 + 2.0 * j / 39] for j in range(40)]
    p = [[((7 * i + 13 * j) % 17) / 4.0 - 2.0 for j in range(40)] for i in range(30)]
    if last_cell is not None:
        p[-1][-1] = last_cell
    return {"kind": "gap", "domain": {"points": ys}, "p": p, "y0": 20,
            "family": {"kind": "affine", "auto": {"slope_count": 7}}}


def _collinear(shrink):
    """A conjugate scenario on 8 near-collinear points in the plane about 1e5
    from the origin, divided by shrink: rounding alone breaks the triangle
    inequality by more than METRIC_TOL at shrink 1, and cannot at 1e5.  Both
    run, as Euclidean points are never swept."""
    pts = [[(1e5 + 1e5 * 0.6 * k / 7) / shrink, (1e5 + 1e5 * 0.8 * k / 7) / shrink]
           for k in range(8)]
    return {"kind": "conjugate", "domain": {"points": pts},
            "function": [float(k % 3) for k in range(8)],
            "family": {"kind": "affine", "params": [{"ell": [1.0, 0.0]}, {"ell": [0.0, 1.0]}]}}


#: every error exit of run_scenario and main, each exit code 2 with no
#: traceback: (command, the scenario file as raw bytes, as a shipped
#: scenario's name and an update of it, or None for no file, run_scenario's
#: keywords, and the first stderr line); {tmp} is the test's directory
CLI_EXITS = {
    "unreadable": ("transport", None, {},
                   "error: cannot read scenario: [Errno 2] No such file or directory: "
                   "'{tmp}/sc.json'"),
    "nan_literal": ("transport", b'{"kind": "transport", "cost": [[NaN]], "mu": [1], "nu": [1]}',
                    {}, "error: cannot read scenario: non-standard JSON literal NaN; "
                        'extended reals are written "+inf" or "-inf"'),
    "not_an_object": ("transport", b"[1, 2]", {},
                      "error: cannot read scenario: top-level value is a list, not an object"),
    "schema_violation": ("transport", ("transport_2x2.json", lambda sc: sc.pop("nu")), {},
                         "error: scenario failed schema validation: "
                         "'nu' is a required property"),
    "tol_other_kind": ("gap", ("gap_vee_up.json", None), {"tol": 0.5},
                       "error: tol applies to constrained scenarios, not gap"),
    "runner_error": ("gap", ("gap_vee_down.json", _nonmetric), {}, "error: asymmetry"),
    "unwritable_out": ("transport", ("transport_2x2.json", None),
                       {"out": "{tmp}/missing/r.json"},
                       "error: cannot write report: [Errno 2] No such file or directory: "
                       "'{tmp}/missing/r.json'"),
    "csv_without_curve": ("transport", ("transport_2x2.json", None),
                          {"csv_path": "{tmp}/c.csv"},
                          "error: this scenario produces no curve table"),
    "unwritable_csv": ("gap", ("gap_refinement.json", None),
                       {"csv_path": "{tmp}/missing/c.csv"},
                       "error: cannot write csv: [Errno 2] No such file or directory: "
                       "'{tmp}/missing/c.csv'"),
    "kind_mismatch": ("conic", ("transport_2x2.json", None), {},
                      "error: scenario kind 'transport' does not match command 'conic'"),
    "float_beyond_doubles": ("conjugate", _conjugate_abs_bytes("1e400"), {},
                             "error: cannot read scenario: number 1e400 lies outside "
                             "the doubles"),
    "int_beyond_doubles": ("conjugate", _conjugate_abs_bytes("1" + "0" * 400), {},
                           "error: cannot read scenario: number 1%s lies outside the "
                           "doubles" % ("0" * 400)),
    "signed_zero_repeat": ("conjugate", ("conjugate_abs.json", _signed_zero_repeat), {},
                           "error: duplicate parameter tuple in DualGrid"),
    # V(y0) - V(y1) = 1e308 - (-1e308); |bidual - p| overflows too, harmlessly
    "lsc_defect_overflow": ("gap", json.dumps({
        "kind": "gap", "domain": {"points": [[0.0], [1.0]]}, "p": [[1e308, -1e308]],
        "y0": 0, "family": {"kind": "affine", "params": [{"ell": [0.0]}]}}).encode(), {},
        "error: the lsc defect overflows the doubles"),
    "gap_30x40_inf": ("gap", json.dumps(_gap_30x40("inf")).encode(), {},
                      "error: scenario failed schema validation: "
                      "'inf' is not valid under any of the given schemas"),
    # tables whose rows differ in length pass the schema, which checks each row
    "ragged_p": ("gap", ("gap_vee_down.json", lambda sc: sc["p"][1].pop()), {},
                 "error: p row 1 has length 4, row 0 has length 5"),
    "ragged_points": ("gap", ("gap_vee_down.json",
                              lambda sc: sc["domain"]["points"][3].append(0.0)), {},
                      "error: domain.points row 3 has length 2, row 0 has length 1"),
    "ragged_custom": ("conjugate", ("conjugate_abs.json", lambda sc: sc["domain"].update(
        metric={"custom": [[0, 1, 2], [1, 0], [2, 1, 0]]})), {},
        "error: domain.metric.custom row 1 has length 2, row 0 has length 3"),
    "ragged_cost": ("transport", ("transport_2x2.json", lambda sc: sc["cost"][1].pop()), {},
                    "error: cost row 1 has length 1, row 0 has length 2"),
}

#: valid scenarios beside CLI_EXITS cases, which exit 0 with a report that
#: validates: (command, scenario)
CLI_RUNS = {
    "gap_30x40": ("gap", _gap_30x40()),
    "collinear_1": ("conjugate", _collinear(1e5)),
    "collinear_1e5": ("conjugate", _collinear(1.0)),
}


class TestErrorExits:
    @pytest.mark.parametrize("case", sorted(CLI_EXITS))
    def test_exit_code_and_first_line(self, case, tmp_path, capsys):
        from abconvex.cli import main

        command, contents, kw, line = CLI_EXITS[case]
        path = tmp_path / "sc.json"
        if isinstance(contents, bytes):
            path.write_bytes(contents)
        elif contents is not None:
            name, mutate = contents
            path.write_text(json.dumps(_mutated(name, mutate or (lambda sc: None))))
        kwargs = {"out": "{tmp}/o.json", **kw}
        kwargs = {k: v.format(tmp=tmp_path) if isinstance(v, str) else v
                  for k, v in kwargs.items()}
        argv = [command, "--scenario", str(path)]
        for key, flag in (("out", "--out"), ("csv_path", "--csv"), ("tol", "--tol")):
            if key in kwargs:
                argv += [flag, str(kwargs[key])]
        def outcome(code):  # the exit code, the first stderr line, and any traceback
            err = capsys.readouterr().err
            return code, err.splitlines()[0], "Traceback" in err

        want = (EXIT_BAD_SCENARIO, line.format(tmp=tmp_path), False)
        assert outcome(main(argv)) == want
        assert outcome(run_scenario(str(path), command=command, **kwargs)) == want
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("case", sorted(CLI_RUNS))
    def test_valid_neighbour_exits_0(self, case, tmp_path, capsys):
        command, sc = CLI_RUNS[case]
        code, err = _run_main(command, sc, tmp_path, capsys)
        assert (code, "Traceback" in err) == (EXIT_OK, False)
        report = json.loads((tmp_path / "o.json").read_text())
        assert report["exit_code"] == EXIT_OK
        jsonschema.validate(report, load_schema(REPORT_SCHEMA_PATH))

    @pytest.mark.parametrize("command, code", [("transport", EXIT_OK),
                                               ("conic", EXIT_BAD_SCENARIO)])
    def test_main_reads_the_file_once(self, command, code, monkeypatch, capsys):
        import abconvex.cli as cli

        calls = []

        def counting_load(path):
            calls.append(path)
            return load_scenario(path)

        monkeypatch.setattr(cli, "load_scenario", counting_load)
        path = str(SCENARIOS / "transport_2x2.json")
        assert cli.main([command, "--scenario", path]) == code
        assert calls == [path]


class TestValidateFlag:
    def test_fast_skips_the_triangle_check(self, tmp_path, capsys):
        """A custom metric that breaks the triangle inequality (0 to 2 is 5,
        via 1 it is 2) exits 2 under the default --validate full and runs
        under --validate fast."""
        from abconvex.cli import main

        sc = _mutated("conjugate_abs.json", lambda sc: sc["domain"].update(
            metric={"custom": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}))
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(sc))
        argv = ["conjugate", "--scenario", str(path), "--out", str(tmp_path / "o.json")]
        assert main(argv) == EXIT_BAD_SCENARIO
        assert capsys.readouterr().err.splitlines()[0] == "error: triangle inequality violated"
        assert main([*argv, "--validate", "fast"]) == EXIT_OK


class TestTol:
    @pytest.mark.parametrize("name, tol", [
        ("constrained_2x2.json", "-1"),
        ("constrained_2x2.json", "0"),
        ("constrained_2x2.json", "inf"),
        ("gap_vee_up.json", "5"),
    ])
    def test_bad_or_unused_tol_exit_2(self, name, tol, tmp_path):
        sc = _mutated(name, lambda sc: None)
        proc = _cli_subprocess(sc["kind"], sc, tmp_path, "--tol", tol)
        assert proc.returncode == EXIT_BAD_SCENARIO
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert not (tmp_path / "o.json").exists()

    def test_tol_in_file_of_other_kind_exit_2(self, tmp_path):
        p = tmp_path / "sc.json"
        sc = _mutated("gap_vee_up.json", lambda sc: sc.update(tol=0.1))
        p.write_text(json.dumps(sc))
        assert run_scenario(str(p), out=str(tmp_path / "o.json")) == EXIT_BAD_SCENARIO

    def test_constrained_tol_accepted(self, tmp_path):
        sc = _mutated("constrained_2x2.json", lambda sc: None)
        proc = _cli_subprocess("constrained", sc, tmp_path, "--tol", "1e-6")
        assert proc.returncode == EXIT_OK
        assert json.loads((tmp_path / "o.json").read_text())["scenario"]["tol"] == 1e-6


class TestUnwritableOutputExit2:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "abconvex.cli", *args],
                              capture_output=True, text=True)

    def test_unwritable_out(self, tmp_path):
        proc = self._run("transport", "--scenario",
                         str(SCENARIOS / "transport_2x2.json"),
                         "--out", str(tmp_path / "missing" / "r.json"))
        assert proc.returncode == EXIT_BAD_SCENARIO
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot write report")

    def test_unwritable_csv(self, tmp_path):
        out = tmp_path / "r.json"
        proc = self._run("gap", "--scenario",
                         str(SCENARIOS / "gap_refinement.json"), "--out", str(out),
                         "--csv", str(tmp_path / "missing" / "c.csv"))
        assert proc.returncode == EXIT_BAD_SCENARIO
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot write csv")
        assert not out.exists()  # the table is written before the report

    def test_unwritable_out_with_csv(self, tmp_path):
        table = tmp_path / "c.csv"
        proc = self._run("gap", "--scenario",
                         str(SCENARIOS / "gap_refinement.json"),
                         "--out", str(tmp_path / "missing" / "r.json"), "--csv", str(table))
        assert proc.returncode == EXIT_BAD_SCENARIO
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot write report")
        assert not table.exists()  # the table of a failed run is removed


class TestSolverLimitExit2:
    def test_cli_exits_2_without_traceback(self, monkeypatch, capsys):
        from abconvex.cli import main

        real = transport._simplex_pivots
        monkeypatch.setattr(transport, "_simplex_pivots",
                            lambda cost, mu, nu, max_pivots: real(cost, mu, nu, 0))
        code = main(["transport", "--scenario", str(SCENARIOS / "transport_2x2.json")])
        err = capsys.readouterr().err
        assert code == EXIT_BAD_SCENARIO
        assert err.startswith("error: ") and "pivots" in err
        assert "Traceback" not in err


class TestTransportSolvedOnce:
    @pytest.mark.parametrize("degenerate", [False, True],
                             ids=["generic", "degenerate"])
    def test_report_from_solved_triple_matches(self, degenerate):
        rng = np.random.default_rng(31 + degenerate)
        for _ in range(20):
            n, m = (int(v) for v in rng.integers(1, 16, 2))
            prob = (degenerate_transport(rng, n, m) if degenerate
                    else random_transport(rng, max_n=15, max_m=15))
            solved = solve_transport(prob)
            assert kantorovich_gap_report(prob, solved) == kantorovich_gap_report(prob)

    def test_cli_solves_once(self, monkeypatch, tmp_path):
        import abconvex.cli as cli

        calls = []

        def counting_solve(prob):
            calls.append(prob)
            return solve_transport(prob)

        monkeypatch.setattr(cli, "solve_transport", counting_solve)
        monkeypatch.setattr(transport, "solve_transport", counting_solve)
        code, report, _ = run_file(SCENARIOS / "transport_2x2.json", tmp_path)
        assert code == EXIT_OK and report["results"]["gap"] == 0.0
        assert len(calls) == 1


class TestMalformedJsonExit2:
    @pytest.mark.parametrize("name, mutate", [
        ("certify_vee_up.json", lambda sc: sc.update(alpha=-math.inf)),
        ("certify_vee_up.json", lambda sc: sc.update(alpha=math.inf)),
        ("transport_2x2.json", lambda sc: sc["cost"][0].__setitem__(1, math.nan)),
    ], ids=["-Infinity", "Infinity", "NaN"])
    def test_non_standard_literal(self, name, mutate, tmp_path):
        sc = _mutated(name, mutate)
        proc = _cli_subprocess(sc["kind"], sc, tmp_path)
        assert proc.returncode == EXIT_BAD_SCENARIO
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot read scenario: non-standard JSON")
        assert not (tmp_path / "o.json").exists()
        assert run_scenario(str(tmp_path / "sc.json")) == EXIT_BAD_SCENARIO

    @pytest.mark.parametrize("data, message", [
        (b"[1, 2]", "top-level value"),
        (b"3", "top-level value"),
        (b'"transport"', "top-level value"),
        (b"null", "top-level value"),
        (b"\xff\xfe{", "'utf-8' codec"),
    ], ids=["list", "number", "string", "null", "not-utf8"])
    def test_not_a_json_object(self, data, message, tmp_path):
        p = tmp_path / "sc.json"
        p.write_bytes(data)
        proc = subprocess.run([sys.executable, "-m", "abconvex.cli", "transport",
                               "--scenario", str(p)], capture_output=True, text=True)
        assert proc.returncode == EXIT_BAD_SCENARIO
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: cannot read scenario: {message}")
        assert run_scenario(str(p)) == EXIT_BAD_SCENARIO

    @pytest.mark.parametrize("command, text, line", [
        ("conic", '{"kind": "conic", "pi": [1%s], "c": [1.0]}' % ("0" * 5000),
         "error: cannot read scenario: Exceeds the limit (4300 digits) for integer string "
         "conversion"),
        ("conic", '{"kind": "conic", "pi": [1%s], "c": [1.0]}' % ("0" * 400),
         "error: cannot read scenario: number 1%s lies outside the doubles" % ("0" * 400)),
        ("peaking", json.dumps(_mutated("peaking_demo.json",
                                        lambda sc: sc["g"].update(a=10 ** 400))),
         "error: cannot read scenario: number 1%s lies outside the doubles" % ("0" * 400)),
    ], ids=["too_many_digits", "conic", "member"])
    def test_integer_beyond_the_doubles(self, command, text, line, tmp_path, capsys):
        from abconvex.cli import main

        p = tmp_path / "sc.json"
        p.write_text(text)
        code = main([command, "--scenario", str(p)])
        err = capsys.readouterr().err
        assert code == EXIT_BAD_SCENARIO and "Traceback" not in err
        assert err.startswith(line)


class TestLargeCostTransport:
    def test_exits_0(self, tmp_path):
        # 18 x 11 with costs up to 2.8e9: the audit's tolerances scale with
        # the costs
        prob = large_cost_transport(np.random.default_rng(0), 18, 11, 2e8)
        sc = {"kind": "transport", "cost": prob.cost.tolist(), "mu": prob.mu.tolist(),
              "nu": prob.nu.tolist()}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(sc))
        code, report, _ = run_file(path, tmp_path)
        assert code == EXIT_OK and report["results"]["slack_violations"] == 0
        assert report["results"]["value"] == solve_transport(prob)[2]


def _convert(*keys):
    """A function (sc, convert) that applies convert to the value at
    sc[keys[0]][keys[1]]...; "*" stands for every item of a list."""
    def apply(node, keys, convert):
        key, rest = keys[0], keys[1:]
        for k in (range(len(node)) if key == "*" else [key]):
            if rest:
                apply(node[k], rest, convert)
            else:
                node[k] = convert(node[k])
    return lambda sc, convert: apply(sc, keys, convert)


#: one case per use of an integer field of the scenario schema: (schema
#: pointer of the field, shipped scenario, update that puts the field in
#: use, converter of the field)
INTEGER_FIELDS = {
    "seed": ("/properties/seed", "peaking_demo.json", None, _convert("seed")),
    "family.params.anchor": ("/$defs/params/properties/anchor", "gap_vee_down.json",
                             lambda sc: sc.update(family={"kind": "metric", "params": [
                                 {"a": 1.0, "anchor": 0}, {"a": 2.0, "anchor": 2}]}),
                             _convert("family", "params", "*", "anchor")),
    "g.anchor": ("/$defs/params/properties/anchor", "peaking_demo.json", None,
                 _convert("g", "anchor")),
    "auto.slope_count": ("/$defs/family/properties/auto/properties/slope_count",
                         "conjugate_abs.json",
                         lambda sc: sc.update(family={"kind": "quad_minus",
                                                      "auto": {"slope_count": 5}}),
                         _convert("family", "auto", "slope_count")),
    "auto.curvature_levels": ("/$defs/family/properties/auto/properties/curvature_levels",
                              "conjugate_abs.json",
                              lambda sc: sc.update(family={"kind": "quad_minus",
                                                           "auto": {"curvature_levels": 3}}),
                              _convert("family", "auto", "curvature_levels")),
    "auto.max_anchors": ("/$defs/family/properties/auto/properties/max_anchors",
                         "conjugate_abs.json",
                         lambda sc: sc.update(family={"kind": "metric",
                                                      "auto": {"max_anchors": 2}}),
                         _convert("family", "auto", "max_anchors")),
    "gap.y0": ("/allOf/1/then/anyOf/0/properties/y0", "gap_vee_down.json", None, _convert("y0")),
    "gap.canonical.levels": ("/allOf/1/then/anyOf/1/properties/canonical/properties/levels/items",
                             "gap_refinement.json", None, _convert("canonical", "levels", "*")),
    "certify.y0": ("/allOf/2/then/properties/y0", "certify_vee_up.json", None, _convert("y0")),
    "constrained.A": ("/allOf/3/then/properties/A/items/items", "constrained_2x2.json", None,
                      _convert("A", "*", "*")),
    "constrained.y0": ("/allOf/3/then/properties/y0", "constrained_2x2.json", None,
                       _convert("y0")),
    "peaking.y0": ("/allOf/6/then/properties/y0", "peaking_demo.json", None, _convert("y0")),
    "peaking.draws": ("/allOf/6/then/properties/draws", "peaking_demo.json", None,
                      _convert("draws")),
}


def _integer_pointers(node, pointer=""):
    if isinstance(node, dict):
        if node.get("type") == "integer":
            yield pointer
        for k, v in node.items():
            yield from _integer_pointers(v, f"{pointer}/{k}")
    elif isinstance(node, list):
        for k, v in enumerate(node):
            yield from _integer_pointers(v, f"{pointer}/{k}")


class TestIntegralFloats:
    """JSON Schema counts 7.0 as an integer, so each integer field may come
    as an integral float; it must act as the integer does."""

    def test_every_integer_field_has_a_case(self):
        assert set(_integer_pointers(load_schema(SCHEMA_PATH))) == {
            pointer for pointer, _, _, _ in INTEGER_FIELDS.values()}

    @pytest.mark.parametrize("case", sorted(INTEGER_FIELDS))
    def test_acts_as_the_integer(self, case, tmp_path, capsys):
        _, name, use, convert_field = INTEGER_FIELDS[case]
        runs = []
        for convert in (int, float):
            sc = _mutated(name, use or (lambda sc: None))
            convert_field(sc, convert)
            validate_scenario(sc)
            code, err = _run_main(sc["kind"], sc, tmp_path, capsys)
            assert code in (EXIT_OK, EXIT_BAD_SCENARIO, EXIT_NEGATIVE)
            assert "Traceback" not in err
            runs.append((json.dumps(sc), code,
                         json.loads((tmp_path / "o.json").read_text())["results"]))
        assert runs[0][0] != runs[1][0]  # the float form differs in the file
        assert runs[0][1:] == runs[1][1:]


_LINE = [-1.0, -0.5, 0.0, 0.5, 1.0]
_G_SHAPE = {"ts": [0.0, 1.0, 2.0], "vs": [0.0, 1.0, 1.5]}

#: the three family kinds parse_family builds with extra data, each as its
#: scenario spec and the family built directly
FAMILY_KINDS = {
    "sigma_nu": ({"kind": "sigma_nu", "sigma": [1.0, 0.5, 0.0, 0.5, 1.0],
                  "nu": _LINE, "auto": {"curvature_levels": 3}},
                 lambda Y: ElemFamily.sigma_nu(Y, GridFn(Y, [1.0, 0.5, 0.0, 0.5, 1.0]),
                                               GridFn(Y, _LINE))),
    "generalized_metric": ({"kind": "generalized_metric", "g_shape": _G_SHAPE,
                            "quasi_subadd_const": 2.0, "auto": {"max_anchors": 3}},
                           lambda Y: ElemFamily.generalized_metric(
                               Y, Sampled1D(_G_SHAPE["ts"], _G_SHAPE["vs"]), 2.0)),
    "gauge": ({"kind": "gauge", "norm": "l1", "auto": {"slope_count": 3}},
              lambda Y: ElemFamily.gauge(Y, "l1")),
}


class TestFamilyKinds:
    """conjugate and gap scenarios of each family kind that carries data of
    its own, against the library called directly."""

    @staticmethod
    def _run(sc, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(sc))
        code, report, _ = run_file(path, tmp_path)
        assert code == EXIT_OK
        jsonschema.validate(report, load_schema(REPORT_SCHEMA_PATH))
        return report["results"]

    @pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
    def test_conjugate(self, kind, tmp_path):
        spec, family = FAMILY_KINDS[kind]
        f_vals = [1.0, 0.25, 0.0, 0.25, 1.0]
        results = self._run({"kind": "conjugate", "domain": {"points": [[x] for x in _LINE]},
                             "function": f_vals, "family": spec}, tmp_path)
        Y = build_metric_space(np.asarray(_LINE)[:, None])
        f = GridFn(Y, f_vals)
        grid = default_dual_grid(family(Y), f, **spec["auto"])
        assert results["conjugate"] == [ext_to_json(v) for v in conjugate_transform(f, grid)]
        assert results["biconjugate"] == [ext_to_json(v) for v in biconjugate(f, grid).values]
        assert results["grid_size"] == grid.size

    @pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
    def test_gap(self, kind, tmp_path):
        spec, family = FAMILY_KINDS[kind]
        p = [[1.0, 0.5, 0.0, 0.5, 1.0], [0.5, 0.0, 1.0, 0.0, 0.5]]
        results = self._run({"kind": "gap", "domain": {"points": [[x] for x in _LINE]},
                             "p": p, "y0": 2, "family": spec}, tmp_path)
        Y = build_metric_space(np.asarray(_LINE)[:, None])
        prob = PerturbationProblem(Y=Y, p=p, y0=2)
        V = GridFn(Y, np.min(p, axis=0))
        rep = duality_report(prob, default_dual_grid(family(Y), V, **spec["auto"]))
        for key in ("primal", "dual", "gap", "V_bidual_at_y0"):
            assert results[key] == ext_to_json(getattr(rep, key))
        assert results["V_star"] == [ext_to_json(v) for v in rep.V_star]
        assert results["multiplier_grid"] == {"kind": kind, "size": rep.psi_grid.size}
        assert (results["certificate"] is None) == (rep.certificate is None)

"""Command-line interface: subcommands, formats, determinism and exit codes."""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperqudit import (
    OrdinalMorphism,
    build_state,
    hypergraph_from_json,
    hypergraph_to_json,
    marked_state,
    qutrit_hypergraph,
    qutrit_marked,
)
import hyperqudit.cli as cli
from hyperqudit.cli import build_parser, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def f2_chain_document(l):
    """An F2 hypergraph over [l] with a first-power key on every run of 2 or 3 vertices."""
    first = [1, 0]  # acts as the first power
    runs = [tuple(range(r, r + size)) for size in (2, 3) for r in range(l - size + 1)]
    return {"ring": {"name": "F2"}, "l": l, "edges": [
        {"vertices": list(e), "calibration": [{"w": {str(v): first for v in e}, "value": 1}]}
        for e in runs]}


def load_with_corrupted_table(monkeypatch):
    """Make the CLI's loader cache a phase table that is wrong at entry 5."""
    from hyperqudit import phase_table

    def corrupted(doc, kind):
        hg = hypergraph_from_json(doc, kind)
        table = phase_table(hg).copy()
        table[5] = (table[5] + 1) % hg.ring.char
        table.flags.writeable = False
        hg._phase_table_cache = table
        return hg

    monkeypatch.setattr(cli, "hypergraph_from_json", corrupted)


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()
        assert build_parser().format_help() == build_parser.__wrapped__().format_help()

    @pytest.mark.parametrize("argv", [
        ["--help"], ["state", "verify", "--help"], [], ["state"],
        ["convert", "x.json", "--from", "dense"], ["classify", "d", "--max-l", "six"],
    ])
    def test_help_and_usage_errors_repeat_byte_identical(self, capsys, argv):
        seen = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            captured = capsys.readouterr()
            seen.append((exc.value.code, captured.out, captured.err))
        assert seen[0] == seen[1]
        assert seen[0][1] or seen[0][2]

    def test_rebound_handler_runs(self, capsys, monkeypatch):
        path = str(FIXTURES / "bell_00.json")
        assert run(capsys, "state", "build", path)[0] == 0
        monkeypatch.setattr(cli, "cmd_state_build", lambda args: 7)
        assert main(["state", "build", path]) == 7


class TestStateBuild:
    def test_bell_00_table(self, capsys):
        code, out, _ = run(capsys, "state", "build", str(FIXTURES / "bell_00.json"))
        assert code == 0
        rows = [line for line in out.strip().split("\n") if not line.startswith("#")]
        assert rows == ["0,0  0", "0,1  0", "1,0  0", "1,1  1"]

    def test_dense_flag_appends_amplitudes(self, capsys):
        code, out, _ = run(capsys, "state", "build", "--dense", str(FIXTURES / "bell_00.json"))
        assert code == 0
        rows = [line for line in out.strip().split("\n") if not line.startswith("#")]
        assert rows[0].split()[-1] == "0.5,0"
        assert rows[-1].split()[-1] == "-0.5,0"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "--json", "state", "build", str(FIXTURES / "qutrit_c.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["phases"] == build_state(qutrit_hypergraph("c")).phases.tolist()

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "state", "build", str(FIXTURES / "qutrit_e.json"))
        _, second, _ = run(capsys, "state", "build", str(FIXTURES / "qutrit_e.json"))
        assert first == second

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run(capsys, "state", "build", "no_such_file.json")
        assert code == 1
        assert "error" in err

    def test_json_error_is_machine_readable(self, capsys):
        code, _, err = run(capsys, "--json", "state", "build", "no_such_file.json")
        assert code == 1
        doc = json.loads(err)
        assert set(doc) == {"error", "type"}


class TestStateVerify:
    def test_stabilizer_line(self, capsys):
        code, out, _ = run(capsys, "state", "verify", str(FIXTURES / "qutrit_c.json"),
                           "--stabilizer")
        assert code == 0
        assert out.strip() == "27/27 stabilizer checks passed"

    def test_stabilizer_suite_passes_above_the_label_cap(self, capsys, tmp_path):
        # the passing path needs the 2^12 entries of the state, not 2^24 for all labels
        path = tmp_path / "f2_l12.json"
        path.write_text(json.dumps(f2_chain_document(12)))
        assert run(capsys, "state", "verify", str(path), "--stabilizer") == (
            0, "4096/4096 stabilizer checks passed\n", "")

    def test_default_suites_pass_above_the_pairing_cap(self, capsys, tmp_path):
        # the lme row check reads the one-qudit pairing, not the 2^24 pairs at l = 12
        path = tmp_path / "f2_l12.json"
        path.write_text(json.dumps(f2_chain_document(12)))
        assert run(capsys, "state", "verify", str(path)) == (0, (
            "4096/4096 stabilizer checks passed\n"
            "2/2 covariance checks passed\n"
            "lme passed (exact path only (dense path over cap))\n"
            "3/3 stabilizer pushforward checks passed\n"), "")
        code, out, _ = run(capsys, "--json", "state", "verify", str(path))
        assert code == 0 and json.loads(out)["ok"] is True

    def test_all_suites_bell(self, capsys):
        code, out, _ = run(capsys, "state", "verify", str(FIXTURES / "bell_01.json"))
        assert code == 0
        assert "stabilizer checks passed" in out
        assert "covariance checks passed" in out
        assert "lme passed" in out
        assert "pushforward checks passed" in out

    def test_json_verdict(self, capsys):
        code, out, _ = run(capsys, "--json", "state", "verify",
                           str(FIXTURES / "bell_10.json"), "--lme")
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("l", range(1, 8))
    def test_covariance_morphisms_are_distinct(self, l):
        from hyperqudit.cli import _verify_morphisms

        morphs = _verify_morphisms(l)
        assert len(set(morphs)) == len(morphs)
        assert morphs.count(OrdinalMorphism.identity(l)) == 1

    def test_covariance_counts_distinct_checks(self, capsys, tmp_path):
        doc = {"ring": {"name": "F2"}, "l": 5, "edges": [
            {"vertices": [0, 1, 2], "calibration": [{"w": {"0": [1, 0], "2": [1, 0]},
                                                     "value": 1}]},
            {"vertices": [3, 4]}]}
        path = tmp_path / "l5.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "state", "verify", str(path), "--covariance")
        assert code == 0
        assert out.strip() == "34/34 covariance checks passed"


class TestReduce:
    def test_qutrit_a_reduction(self, capsys):
        code, out, _ = run(capsys, "reduce", str(FIXTURES / "qutrit_a.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["constant"] == 0
        effective = hypergraph_from_json(doc["effective"], "calibrated")
        assert effective.edges == ((0, 1, 2), (0, 2), (1, 2), (2,))
        assert doc["chart"] == [0, 1, 2]

    def test_core_strips_isolated_vertices(self, capsys, tmp_path, f3):
        from hyperqudit import CalibratedHypergraph, CycExponent, ExpFunc

        sq = CycExponent.from_dense(f3, (0, 0, 1))
        hg = CalibratedHypergraph(f3, 3, {(0, 2): {ExpFunc.make({0: sq, 2: sq}): 1}})
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(hypergraph_to_json(hg)))
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["chart"] == [0, 2]
        core = hypergraph_from_json(doc["core"], "calibrated")
        assert core.l == 2 and core.edges == ((0, 1),)


class TestClassify:
    def test_relabelled_copies_in_one_class(self, capsys, tmp_path):
        from hyperqudit import OrdinalMorphism, apply_morphism, effectivize

        base, _ = effectivize(qutrit_hypergraph("b"))
        rotated = apply_morphism(OrdinalMorphism(3, 3, (1, 2, 0)), base)
        other, _ = effectivize(qutrit_hypergraph("d"))
        for name, hg in [("one.json", base), ("two.json", rotated), ("three.json", other)]:
            (tmp_path / name).write_text(json.dumps(hypergraph_to_json(hg)))
        code, out, _ = run(capsys, "classify", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        classes = {frozenset(c["members"]) for c in doc["classes"]}
        assert classes == {frozenset({"one.json", "two.json"}), frozenset({"three.json"})}


class TestConvert:
    def test_marked_round_trip(self, capsys):
        code, out, _ = run(capsys, "convert", str(FIXTURES / "marked_qutrit_b.json"),
                           "--from", "marked", "--to", "calibrated")
        assert code == 0
        hg = hypergraph_from_json(json.loads(out), "calibrated")
        assert build_state(hg) == marked_state(qutrit_marked("b"))

    def test_marked_xstar_flag(self, capsys, f3):
        code, out, _ = run(capsys, "convert", str(FIXTURES / "marked_qutrit_b.json"),
                           "--from", "marked", "--to", "calibrated", "--xstar", "1")
        assert code == 0
        hg = hypergraph_from_json(json.loads(out), "calibrated")
        assert build_state(hg) == marked_state(qutrit_marked("b"), f3.from_int(1))

    def test_weighted(self, capsys):
        code, out, _ = run(capsys, "convert", str(FIXTURES / "weighted_f3_pair.json"),
                           "--from", "weighted", "--to", "calibrated")
        assert code == 0
        doc = json.loads(out)
        hg = hypergraph_from_json(doc, "calibrated")
        assert hg.edges == ((0, 1),)

    def test_poly(self, capsys, f3):
        code, out, _ = run(capsys, "convert", str(FIXTURES / "poly_f3_square.json"),
                           "--from", "poly", "--to", "calibrated")
        assert code == 0
        hg = hypergraph_from_json(json.loads(out), "calibrated")
        from hyperqudit import phase_table

        assert phase_table(hg).tolist() == [f3.trace(x * x) for x in f3.elements]


class TestMatrices:
    def test_f3_tables(self, capsys):
        code, out, _ = run(capsys, "--json", "matrices", str(FIXTURES / "f3.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["A"] == [[[1], [0], [0]], [[1], [1], [1]], [[1], [2], [1]]]
        assert doc["A_inverse"] == [[[1], [0], [0]], [[0], [2], [1]], [[2], [2], [2]]]
        assert doc["C"] == [[[0], [1], [1]], [[1], [1], [1]], [[1], [1], [2]]]
        assert doc["C_inverse"] == [[[2], [1], [0]], [[1], [1], [2]], [[0], [2], [1]]]

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "matrices", str(FIXTURES / "f3.json"))
        assert code == 0
        assert out.startswith("A\n")

    def test_ring_rejected(self, capsys):
        code, _, err = run(capsys, "matrices", str(FIXTURES / "z4.json"))
        assert code == 1
        assert "field" in err


class TestRingInfo:
    def test_z4_text(self, capsys):
        code, out, _ = run(capsys, "ring", "info", str(FIXTURES / "z4.json"))
        assert code == 0
        assert "GR(4,1)" in out
        assert "nilpotent" in out and "unit" in out

    def test_gr42_json(self, capsys):
        code, out, _ = run(capsys, "--json", "ring", "info", str(FIXTURES / "gr42.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["q"] == 16
        assert len(doc["units"]) == 12 and len(doc["nilpotents"]) == 4
        assert [[0, 1], 0, 3] in doc["index_period"]


class TestDenseCap:
    def test_env_var_limits_dense_paths(self, capsys, monkeypatch):
        # the pushforward suite is exact, so only the lme dense path is capped
        monkeypatch.setenv("HGS_DENSE_CAP", "4")
        code, out, _ = run(capsys, "state", "verify", str(FIXTURES / "qutrit_b.json"),
                           "--lme", "--pushforward")
        assert code == 0
        assert "exact path only" in out
        assert "3/3 stabilizer pushforward checks passed" in out

    def test_json_reports_capped_lme_and_judges_every_suite(self, capsys, monkeypatch):
        import hyperqudit.cli as cli

        monkeypatch.setenv("HGS_DENSE_CAP", "4")
        argv = ["--json", "state", "verify", str(FIXTURES / "qutrit_b.json"), "--lme",
                "--pushforward"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"]["pushforward"] == {"passed": 3, "total": 3, "ok": True}
        assert doc["checks"]["lme"]["ok"] is True and doc["ok"] is True
        assert "exact path only" in doc["checks"]["lme"]["detail"]
        monkeypatch.setattr(cli, "lme_orthonormal", lambda hg: False)
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5"])
    def test_invalid_cap_exits_one(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("HGS_DENSE_CAP", raw)
        code, out, err = run(capsys, "state", "verify", str(FIXTURES / "qutrit_b.json"), "--lme")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "HGS_DENSE_CAP" in err

    def test_capped_lme_runs_the_exact_path_once(self, capsys, monkeypatch):
        import hyperqudit.hyperstate as hyperstate

        calls = []
        exact = hyperstate.lme_orthonormal

        def counting(hg):
            calls.append(hg)
            return exact(hg)

        monkeypatch.setattr(cli, "lme_orthonormal", counting)
        monkeypatch.setattr(hyperstate, "lme_orthonormal", counting)
        monkeypatch.setenv("HGS_DENSE_CAP", "4")
        code, out, _ = run(capsys, "state", "verify", str(FIXTURES / "qutrit_b.json"), "--lme")
        assert code == 0
        assert out == "lme passed (exact path only (dense path over cap))\n"
        assert len(calls) == 1

    def test_too_large_guard(self, f3, monkeypatch):
        from hyperqudit.errors import TooLarge
        from hyperqudit.states import to_dense

        monkeypatch.setenv("HGS_DENSE_CAP", "2")
        psi = build_state(qutrit_hypergraph("a"))
        with pytest.raises(TooLarge):
            to_dense(psi)


class TestExitCodes:
    def test_oversized_grade_exits_one(self, capsys, tmp_path):
        doc = {"ring": {"name": "F3"}, "l": 40, "edges": [
            {"vertices": [0, 39], "calibration": [{"w": {"0": [0, 0, 1]}, "value": 1}]}]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "state", "build", str(path))
        assert time.perf_counter() - start < 5.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "exact cap" in err

    @pytest.mark.parametrize("doc, message", [
        ({"ring": {"name": "F3"}, "l": "x", "edges": []}, "l must be an integer"),
        ({"ring": {"name": "F3"}, "l": 2, "edges": 5}, "edges must be a list"),
        ({"l": 2, "edges": []}, "no 'ring' field"),
        ({"ring": {"name": "F6"}, "l": 2, "edges": []}, "unknown ring 'F6'"),
        ({"ring": 5, "l": 2}, "ring descriptor must be an object"),
        ({"ring": {"name": "F3"}, "l": 2, "edges": [{"vertices": [0, 1], "calibration": [
            {"w": {"0": ["a", 0, 0]}, "value": 1}]}]}, "component 'a' at index 0"),
        ({"ring": {"name": "F3"}, "l": 2, "edges": [{"calibration": []}]}, "no 'vertices' field"),
        ({"ring": {"name": "F3"}, "l": 3.9, "edges": []}, "l must be an integer, got 3.9"),
        ({"ring": {"name": "F3"}, "l": 2, "edges": [{"vertices": [0, 1.5]}]},
         "a vertex must be an integer"),
        ({"ring": {"name": "F3"}, "l": 2, "edges": [{"vertices": [0, 1], "calibration": [
            {"w": {"0": [0, 0, 1]}, "value": 1.7}]}]}, "a calibration value must be an integer"),
        ({"ring": {"name": "F3"}, "l": 2, "edges": [{"vertices": [0, 1], "calibration": [
            {"w": {"0": [0, 0, 1.5]}, "value": 1}]}]}, "component 1.5 at index 2"),
        ({"ring": {"p": 3.5, "r": 1, "d": 1, "modulus": [0, 1]}, "l": 1},
         "malformed ring descriptor"),
        ({"ring": {"p": 3, "r": 1, "d": 1, "modulus": [0, 1.25]}, "l": 1},
         "malformed ring descriptor"),
        # strings and booleans are not integers, though int() would take them
        ({"ring": {"p": "2", "r": 1, "d": 1, "modulus": [0, 1]}, "l": 1},
         "malformed ring descriptor"),
        ({"ring": {"p": 2, "r": 1, "d": 1, "modulus": ["0", True]}, "l": 1},
         "malformed ring descriptor"),
        ({"ring": {"name": "F3"}, "l": "2", "edges": []}, "l must be an integer, got '2'"),
        ({"ring": {"name": "F3"}, "l": 2, "edges": [{"vertices": [0, "1"]}]},
         "a vertex must be an integer, got '1'"),
        ({"ring": {"name": "F3"}, "l": 2, "edges": [{"vertices": [0, 1], "calibration": [
            {"w": {"0": [0, 0, 1]}, "value": True}]}]},
         "a calibration value must be an integer, got True"),
        ({"ring": {"name": "F3"}, "l": 2, "edges": [{"vertices": [0, 1], "calibration": [
            {"w": {"0": [0, 0, True]}, "value": 1}]}]}, "component True at index 2"),
        # an object key is a vertex only as ASCII digits; int() would read
        # "1_0" as 10 and " 1", "+1" or non-ASCII digits as 1
        *[({"ring": {"name": "F2"}, "l": 11, "edges": [{"vertices": [0, 1, 10], "calibration": [
            {"w": {v: [1, 0]}, "value": 1}]}]}, f"a key vertex must be an integer, got {v!r}")
          for v in ("1_0", " 1", "+1", "\u0661", "\uff11")],
        *[({"ring": {"name": "F3"}, "l": 1, "edges": [{"vertices": [0], "poly": [
            {"a": {v: 2}, "value": 1}]}]}, f"a vertex must be an integer, got {v!r}")
          for v in ("0_0", " 0", "+0", "\u0660")],
    ])
    def test_malformed_document_exits_one(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        # convert reads the poly entries, which state build ignores
        poly = "poly" in json.dumps(doc)
        argv = ["convert", str(path), "--from", "poly"] if poly else ["state", "build", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_integral_floats_and_digit_keys_still_parse(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "qutrit_c.json").read_text())
        _, want, _ = run(capsys, "state", "build", str(FIXTURES / "qutrit_c.json"))
        doc["l"] = 3.0
        doc["edges"][0]["calibration"][0]["value"] = 1.0
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "state", "build", str(path)) == (0, want, "")

    @pytest.mark.parametrize("desc", [
        {"p": 2, "r": 7, "d": 2, "modulus": [1, 1, 1]},
        {"p": 2, "r": 10 ** 30, "d": 2, "modulus": [1, 1, 1]},
        {"p": 10 ** 30 + 57, "r": 1, "d": 1, "modulus": [0, 1]},
    ], ids=["q=16384", "huge-r", "31-digit-p"])
    @pytest.mark.parametrize("command", ["ring info", "matrices"])
    def test_oversized_ring_exits_one_at_once(self, capsys, tmp_path, desc, command):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(desc))
        start = time.perf_counter()
        code, out, err = run(capsys, *command.split(), str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "exact cap" in err

    def test_huge_grade_exits_one_at_once(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "qutrit_b.json").read_text())
        doc["l"] = 10 ** 30
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        for suite in ("--stabilizer", "--covariance", "--lme", "--pushforward"):
            for argv in (["state", "build"], ["state", "verify", suite]):
                start = time.perf_counter()
                code, out, err = run(capsys, *argv, str(path))
                assert time.perf_counter() - start < 1.0
                assert code == 1
                assert out == ""
                assert err.startswith("error: ") and "exact cap" in err

    @pytest.mark.parametrize("x_star", ["3", "7", "-2"])
    def test_xstar_out_of_range_exits_one(self, capsys, x_star):
        code, out, err = run(capsys, "convert", str(FIXTURES / "marked_qutrit_b.json"),
                             "--from", "marked", "--xstar", x_star)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "--xstar" in err

    def test_xstar_in_range_converts(self, capsys):
        argv = ["convert", str(FIXTURES / "marked_qutrit_b.json"), "--from", "marked"]
        code, default, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--xstar", "2") == (0, default, "")
        code, other, _ = run(capsys, *argv, "--xstar", "0")
        assert code == 0 and other != default

    def test_check_failure_exits_two(self, capsys, monkeypatch):
        # the suites cannot fail for valid inputs (the identities are
        # theorems), so force one to exercise the exit-code contract
        import hyperqudit.cli as cli

        monkeypatch.setattr(cli, "check_covariance", lambda hg, f: False)
        code, out, _ = run(capsys, "state", "verify", str(FIXTURES / "bell_00.json"),
                           "--covariance")
        assert code == 2
        assert "(FAIL)" in out

    def test_corrupted_phase_table_fails_stabilizer_suite(self, capsys, monkeypatch):
        load_with_corrupted_table(monkeypatch)
        code, out, _ = run(capsys, "state", "verify", str(FIXTURES / "qutrit_e.json"),
                           "--stabilizer")
        assert code == 2
        assert out.strip() == "1/27 stabilizer checks passed (FAIL)"

    def test_corrupted_phase_table_above_the_label_cap_exits_one(self, capsys, monkeypatch,
                                                                 tmp_path):
        # checking each of the 2^12 labels would walk 2^24 entries, over the exact cap
        load_with_corrupted_table(monkeypatch)
        path = tmp_path / "f2_l12.json"
        path.write_text(json.dumps(f2_chain_document(12)))
        start = time.perf_counter()
        code, out, err = run(capsys, "state", "verify", str(path), "--stabilizer")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "needs 2^24 entries" in err

    @pytest.mark.parametrize("suite, line, passed, total", [
        ("--pushforward", "1/3 stabilizer pushforward checks passed (FAIL)", 1, 3),
        ("--covariance", "30/36 covariance checks passed (FAIL)", 30, 36),
    ])
    def test_corrupted_phase_table_fails_transport_suites(self, capsys, monkeypatch,
                                                          suite, line, passed, total):
        # the identity passes; the swap and the collapse see the corrupted entry
        load_with_corrupted_table(monkeypatch)
        argv = ["state", "verify", str(FIXTURES / "qutrit_b.json"), suite]
        assert run(capsys, *argv) == (2, line + "\n", "")
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 2
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["checks"][suite[2:]] == {"passed": passed, "total": total, "ok": False}

    def test_json_failure_verdict(self, capsys, monkeypatch):
        import hyperqudit.cli as cli

        monkeypatch.setattr(cli, "check_covariance", lambda hg, f: False)
        code, out, _ = run(capsys, "--json", "state", "verify",
                           str(FIXTURES / "bell_00.json"), "--covariance")
        assert code == 2
        assert json.loads(out)["ok"] is False


# -- the indented JSON writer ---------------------------------------------------------

JSON_TEXT = st.one_of(st.text(), st.sampled_from(["", "\"\\/\b\f\n\r\t\x00\x1f", "é",
                                                  "\u2028\u2029", "\U0001f600", "\ud800"]))
JSON_INTS = st.one_of(st.integers(), st.sampled_from([0, -1, 2 ** 63, 2 ** 64 + 1, -2 ** 63 - 1]))
JSON_DOCS = st.recursive(
    st.one_of(st.none(), st.booleans(), JSON_INTS, JSON_TEXT),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(JSON_INTS, max_size=4),
        st.dictionaries(JSON_TEXT, children, max_size=4)),
    max_leaves=24)

# argv templates with the fixture path at {}; a call the fixture does not suit exits 1
JSON_COMMANDS = [
    ["ring", "info", "{}"], ["state", "build", "{}"], ["state", "verify", "{}"],
    ["reduce", "{}"], ["matrices", "{}"], ["convert", "{}", "--from", "weighted"],
    ["convert", "{}", "--from", "marked"], ["convert", "{}", "--from", "poly"],
]


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(doc=JSON_DOCS)
    def test_matches_json_dumps(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_repeated_int_lists_at_different_depths(self):
        row = [0, 1]
        doc = {"a": [row, row, [2], (0, 1)], "b": row, "c": [[True, 1], [1, 1], []], "d": {}}
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("doc", [
        1.5, [0, 2.0], {"x": np.int64(3)}, [np.int64(3)], np.bool_(True), {1: 2},
        {"a": {None: 0}}, {1, 2},
    ])
    def test_refuses_other_types(self, doc):
        with pytest.raises(TypeError):
            cli._json_text(doc)

    @pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_fixture_output_is_json_dumps(self, capsys, monkeypatch, fixture):
        docs = []
        printed = cli._print
        monkeypatch.setattr(cli, "_print", lambda doc: (docs.append(doc), printed(doc)))
        checked = 0
        for template in JSON_COMMANDS:
            argv = [str(FIXTURES / fixture) if a == "{}" else a for a in template]
            seen = len(docs)
            code, out, _ = run(capsys, "--json", *argv)
            if len(docs) > seen:
                assert code == 0
                assert out == json.dumps(docs[-1], indent=2, sort_keys=True) + "\n"
                checked += 1
        assert checked

    def test_classify_output_is_json_dumps(self, capsys, monkeypatch, tmp_path):
        for path in [*FIXTURES.glob("bell_*.json"), *FIXTURES.glob("qutrit_*.json")]:
            (tmp_path / path.name).write_text(path.read_text())
        docs = []
        printed = cli._print
        monkeypatch.setattr(cli, "_print", lambda doc: (docs.append(doc), printed(doc)))
        code, out, _ = run(capsys, "--json", "classify", str(tmp_path))
        assert code == 0 and len(docs) == 1
        assert out == json.dumps(docs[0], indent=2, sort_keys=True) + "\n"

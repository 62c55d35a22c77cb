import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rootcert
from rootcert import HorizonError, LinearOperator, ParseError, Poly
from rootcert.cli import (build_parser, main, parse_domain, parse_operator,
                          run, serialize_operator)

MUL_Z_DOC = {
    "form": "monomial", "N": 3,
    "images": {str(k): [[0.0, 0.0]] * (k + 1) + [[1.0, 0.0]] for k in range(4)},
}
DERIV_MINUS_Z_DOC = {
    "form": "diff", "N": 8,
    "coeffs": {"0": [[0, 0], [-1, 0]], "1": [[1, 0]]},
}


@pytest.fixture
def mulz_file(tmp_path):
    path = tmp_path / "mulz.json"
    doc = dict(MUL_Z_DOC)
    doc["N"] = 8
    doc["images"] = {str(k): [[0.0, 0.0]] * (k + 1) + [[1.0, 0.0]]
                     for k in range(9)}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def bounded_identity_file(tmp_path):
    path = tmp_path / "bounded-identity.json"
    path.write_text(json.dumps({
        "form": "diff", "N": 2, "bounded_degree": 2,
        "coeffs": {"0": [[1.0, 0.0]]}}))
    return str(path)


@pytest.fixture
def dmz_file(tmp_path):
    path = tmp_path / "dmz.json"
    path.write_text(json.dumps(DERIV_MINUS_Z_DOC))
    return str(path)


class TestParseOperator:
    def test_monomial_form(self):
        doc = {"form": "monomial", "N": 2, "images": {"0": [[0, 0], [1, 0]]}}
        T = parse_operator(json.dumps(doc))
        assert T.horizon == 2
        np.testing.assert_allclose(T.images[0].coeffs, [0, 1])
        assert T.images[1].is_zero() and T.images[2].is_zero()

    def test_diff_form_matches_expansion(self):
        T = parse_operator(json.dumps(DERIV_MINUS_Z_DOC))
        ref = LinearOperator.from_diff_expansion([Poly([0, -1]), Poly([1])], 8)
        for a, b in zip(T.images, ref.images):
            assert a.allclose(b, rtol=1e-12) or (a.is_zero() and b.is_zero())

    def test_malformed_pair_names_entry(self):
        doc = {"form": "monomial", "N": 1, "images": {"0": [[1]]}}
        with pytest.raises(ParseError, match=r"entry 0\[0\]"):
            parse_operator(json.dumps(doc))

    def test_horizon_violation(self):
        doc = {"form": "monomial", "N": 1, "images": {"5": [[1, 0]]}}
        with pytest.raises(HorizonError):
            parse_operator(json.dumps(doc))

    def test_bad_form(self):
        with pytest.raises(ParseError):
            parse_operator(json.dumps({"form": "what", "N": 1, "images": {}}))

    def test_not_json(self):
        with pytest.raises(ParseError):
            parse_operator("{form: monomial")

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_coefficient_rejected(self, value):
        text = ('{"form": "monomial", "N": 1, "images": {"1": [[0, 0], [%s, 0]]}}'
                % value)
        with pytest.raises(ParseError, match=r"entry 1\[1\]"):
            parse_operator(text)

    def test_entries_key_is_not_an_alias(self):
        doc = {"form": "monomial", "N": 1, "entries": {"0": [[1, 0]]}}
        with pytest.raises(ParseError):
            parse_operator(json.dumps(doc))

    def test_bounded_degree_must_match(self):
        doc = {"form": "monomial", "N": 3, "bounded_degree": 2, "images": {}}
        with pytest.raises(ParseError):
            parse_operator(json.dumps(doc))

    def test_round_trip_battery(self, battery):
        for name, op in battery.items():
            back = parse_operator(json.dumps(serialize_operator(op)))
            assert back.horizon == op.horizon, name
            assert back.bounded_degree == op.bounded_degree
            for a, b in zip(back.images, op.images):
                assert a.allclose(b, rtol=1e-12) or (a.is_zero() and b.is_zero())


class TestParseDomain:
    def test_preset(self):
        dom = parse_domain(["unit-disk"], 1e-9)
        assert dom.classify(0).value == "interior"

    def test_eight_reals(self):
        dom = parse_domain(["1", "0", "0", "0", "0", "0", "1", "0"], 1e-9)
        assert dom.side(1j) > 0

    def test_moebius_prefix(self):
        dom = parse_domain(["moebius", "0", "-1", "0", "1", "1", "0", "1", "0"],
                           1e-9)
        assert dom.classify(0).value == "interior"     # the unit disk again

    def test_wrong_count(self):
        with pytest.raises(ParseError):
            parse_domain(["1", "2", "3"], 1e-9)

    def test_non_numeric(self):
        with pytest.raises(ParseError):
            parse_domain(["moebius"] + ["x"] * 8, 1e-9)

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite(self, value):
        with pytest.raises(ParseError):
            parse_domain(["1", "0", "0", "0", "0", "0", "1", value], 1e-9)


class TestExitCodes:
    def test_falsified_open_coordinate_multiplication(self, mulz_file):
        code = main(["certify", mulz_file, "--class", "open",
                     "--domain", "upper-half-plane", "--json"])
        assert code == 1

    def test_consistent_closed(self, mulz_file):
        code = main(["certify", mulz_file, "--class", "closed",
                     "--domain", "upper-half-plane"])
        assert code == 0

    def test_counterexample_scenario(self, dmz_file, capsys):
        code = main(["certify", dmz_file, "--class", "open",
                     "--domain", "lower-half-plane", "--json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "falsified"
        assert doc["diagnostics"]["minimal_k"] == 0
        assert doc["diagnostics"]["closed_verdict"] == "evidence-consistent"
        statuses = {e["n"]: e["status"]
                    for e in doc["diagnostics"]["symbols_closed"]}
        assert all(s == "no-zero-found" for s in statuses.values())
        assert abs(doc["witness"]["bad_root"][0]) < 1e-9
        assert abs(doc["witness"]["bad_root"][1]) < 1e-9

    def test_usage_error_bad_preset(self, mulz_file):
        code = main(["certify", mulz_file, "--class", "open",
                     "--domain", "no-such-place"])
        assert code == 2

    def test_usage_error_missing_file(self):
        code = main(["certify", "/nonexistent.json", "--class", "open",
                     "--domain", "unit-disk"])
        assert code == 2

    def test_usage_error_malformed_operator(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code = main(["symbol", str(path), "--domain", "unit-disk", "--n", "1"])
        assert code == 2

    def test_argparse_error(self):
        assert main(["certify"]) == 2

    def test_nan_image_is_a_usage_error(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"form": "monomial", "N": 1, '
                        '"images": {"0": [[1, 0]], "1": [[NaN, 0]]}}')
        code = main(["certify", str(path), "--class", "closed",
                     "--domain", "upper-half-plane"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["certify", "--class", "closed", "--samples", "0"],
        ["certify", "--class", "open", "--trials", "0"],
        ["falsify", "--trials", "0"],
        ["certify", "--class", "closed", "--tol", "nan"],
        ["certify", "--class", "closed", "--tol", "-1"],
        ["certify", "--class", "closed", "--tol", "2"],
    ])
    def test_empty_budget_or_bad_tol_is_a_usage_error(self, mulz_file, flags,
                                                      capsys):
        code = main([flags[0], mulz_file, "--domain", "upper-half-plane",
                     *flags[1:]])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_negative_nmax_is_a_usage_error(self, mulz_file, capsys):
        for cls in ("closed", "open"):
            code = main(["certify", mulz_file, "--domain", "upper-half-plane",
                         "--class", cls, "--nmax", "-1"])
            assert code == 2
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("cls", ["closed", "open"])
    @pytest.mark.parametrize("nmax", ["-1", "2", "99"])
    def test_nmax_refused_for_a_bounded_operator(self, bounded_identity_file,
                                                 cls, nmax, capsys):
        code = main(["certify", bounded_identity_file, "--domain",
                     "upper-half-plane", "--class", cls, "--nmax", nmax])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --nmax does not apply to a degree-bounded")

    @pytest.mark.parametrize("cls", ["closed", "open"])
    def test_bounded_operator_runs_without_nmax(self, bounded_identity_file,
                                                cls, capsys):
        code = main(["certify", bounded_identity_file, "--domain",
                     "upper-half-plane", "--class", cls, "--samples", "32",
                     "--trials", "50", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["route"] == ("closed-symbol-bounded" if cls == "closed"
                                else "falsifier")

    @pytest.mark.parametrize("command, n", [("symbol", "99"), ("symbol", "-1"),
                                            ("gcd-image", "-1"),
                                            ("gcd-image", "9")])
    def test_degree_out_of_range_is_a_usage_error(self, command, n, tmp_path,
                                                  capsys):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"form": "diff", "N": 8,
                                    "coeffs": {"0": [[1, 0]]}}))
        code = main([command, str(path), "--domain", "upper-half-plane",
                     "--n", n])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and f"n = {n}" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text, message", [
        # an integer this long overflows complex()
        ('{"form": "monomial", "N": 1, "images": {"0": [[1%s, 0]]}}' % ("0" * 400),
         "is out of the float range"),
        ('{"form": "monomial", "N": 1, "images": {"0": []}}',
         "entry 0: expected a nonempty list"),
        ('[1, 2]', "operator file must hold a JSON object"),
        ('{"form": "monomial", "N": -1, "images": {}}',
         "N must be a non-negative integer, got -1"),
        ('{"form": "monomial", "N": 1, "images": {"x": [[1, 0]]}}',
         "index 'x' is not an integer"),
        ('{"form": "monomial", "N": 1, "images": {"-1": [[1, 0]]}}',
         "index -1 is negative"),
    ])
    def test_malformed_operator_file_is_a_usage_error(self, text, message,
                                                      tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["certify", str(path), "--domain", "upper-half-plane",
                     "--class", "closed"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("degrees, message", [
        ("3", "expected LO..HI"),
        ("a..b", "expected integer LO..HI"),
        ("3..1", "need 0 <= LO <= HI"),
        ("0..9", "error: degree range reaches 9, above the operator cap 8"),
    ])
    def test_bad_degree_range_is_a_usage_error(self, mulz_file, degrees,
                                               message, capsys):
        code = main(["falsify", mulz_file, "--domain", "upper-half-plane",
                     "--degrees", degrees])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: " in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("point", [["nan", "0"], ["inf", "0"], ["0", "inf"]])
    def test_non_finite_point_rejected(self, point, capsys):
        code = main(["classify-point", "--domain", "upper-half-plane",
                     "--point", *point, "--json"])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_bad_tol_rejected_by_classify_point(self):
        assert main(["classify-point", "--domain", "upper-half-plane",
                     "--point", "0", "1", "--tol", "2"]) == 2

    def test_annihilated_gcd_samples_exit_3(self, tmp_path, capsys):
        # the derivative sends every degree-0 input to zero (AllImagesZero)
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"form": "diff", "N": 4,
                                    "coeffs": {"1": [[1, 0]]}}))
        code = main(["gcd-image", str(path), "--domain", "upper-half-plane",
                     "--n", "0"])
        assert code == 3
        err = capsys.readouterr().err
        assert "AllImagesZero" in err and len(err.strip().splitlines()) == 1

    def test_sampling_failure_maps_to_exit_3(self, mulz_file, monkeypatch):
        from rootcert.errors import DegenerateSample
        import rootcert.cli as cli_mod

        def blow_up(*args, **kwargs):
            raise DegenerateSample("forced")

        monkeypatch.setattr(cli_mod, "certify_closed", blow_up)
        code = main(["certify", mulz_file, "--class", "closed",
                     "--domain", "upper-half-plane"])
        assert code == 3

    def test_numerical_failure_maps_to_exit_3(self, mulz_file, monkeypatch):
        from rootcert.errors import NonConvergence
        import rootcert.cli as cli_mod

        def blow_up(*args, **kwargs):
            raise NonConvergence("forced")

        monkeypatch.setattr(cli_mod, "certify_closed", blow_up)
        code = main(["certify", mulz_file, "--class", "closed",
                     "--domain", "upper-half-plane"])
        assert code == 3


class TestSubcommands:
    def test_symbol_unit_disk_cube(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"form": "diff", "N": 8,
                                    "coeffs": {"0": [[1, 0]]}}))
        code = main(["symbol", str(path), "--domain", "unit-disk",
                     "--n", "3", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        got = np.array([[complex(re, im) for re, im in row]
                        for row in doc["coeffs"]])
        # (2i)^3 (1 - zw)^3 has diagonal entries -8i, 24i, -24i, 8i
        expect = np.zeros((4, 4), complex)
        for k, v in enumerate([-8j, 24j, -24j, 8j]):
            expect[k, k] = v
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_falsify_subcommand(self, mulz_file, capsys):
        code = main(["falsify", mulz_file, "--domain", "upper-half-plane",
                     "--source", "interior", "--trials", "200",
                     "--degrees", "0..4", "--json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["witness"]["type"] == "polynomial"
        assert abs(doc["witness"]["bad_root"][0]) < 1e-9

    def test_falsify_no_witness(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"form": "diff", "N": 6,
                                    "coeffs": {"0": [[1, 0]]}}))
        code = main(["falsify", str(path), "--domain", "upper-half-plane",
                     "--trials", "300", "--degrees", "0..5"])
        assert code == 0

    def test_gcd_image_subcommand(self, tmp_path, capsys):
        doc = {"form": "monomial", "N": 4,
               "images": {"0": [[0, 0], [-1, 0]], "3": [[1, 0]]}}
        path = tmp_path / "swap.json"
        path.write_text(json.dumps(doc))
        code = main(["gcd-image", str(path), "--domain", "upper-half-plane",
                     "--n", "2", "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(
            [complex(re, im) for re, im in out["gcd"]], [0, 1], atol=1e-6)
        assert out["stable_under_doubling"] is True
        assert sorted(out) == ["gcd", "n", "stable_under_doubling"]

    def test_gcd_image_keeps_a_common_root_on_the_circle(self, tmp_path, capsys):
        # mul-z-1: every image (z - 1) z^k has the root 1, on the unit circle
        path = tmp_path / "mul-z-1.json"
        path.write_text(json.dumps(serialize_operator(
            LinearOperator.multiply_by(Poly([-1, 1]), 8))))
        code = main(["gcd-image", str(path), "--domain", "exterior-unit-disk",
                     "--n", "5", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["gcd"] == [[-1, 0], [1, 0]]

    def test_gcd_image_takes_no_samples(self, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"form": "diff", "N": 4,
                                    "coeffs": {"0": [[1, 0]]}}))
        assert main(["gcd-image", str(path), "--domain", "upper-half-plane",
                     "--n", "2", "--samples", "50"]) == 2

    def test_classify_point(self, capsys):
        code = main(["classify-point", "--domain", "unit-disk",
                     "--point", "0.2", "0.1", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tag"] == "interior"

    def test_custom_moebius_domain(self, mulz_file):
        code = main(["certify", mulz_file, "--class", "closed",
                     "--domain", "moebius", "1", "0", "0", "0", "0", "0",
                     "1", "0", "--samples", "128"])
        assert code == 0

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: at n = 8 the core division on this domain stops at "
        "m = 4, so the slices keep B1's 4-fold exterior root, and a slice "
        "root passes the witness gate with value 6.5e-14"))
    @pytest.mark.parametrize("cls", ["closed", "open"])
    def test_identity_is_not_refuted_on_a_random_domain(self, tmp_path, cls):
        # the identity preserves every class, so no verdict may be falsified
        path = tmp_path / "identity.json"
        path.write_text(json.dumps({"form": "diff", "N": 8,
                                    "coeffs": {"0": [[1, 0]]}}))
        code = main(["certify", str(path), "--class", cls, "--samples", "128",
                     "--seed", "0", "--json", "--domain", "moebius",
                     "-0.5442589828573099", "-0.31630015636915454",
                     "0.41163053637413283", "1.0425133694426776",
                     "-0.12853466294403426", "1.3664634705496859",
                     "-0.66519467348661354", "0.35151007009301971"])
        assert code == 0

    def test_noise_level_top_coefficient_is_not_a_silent_pass(self, tmp_path,
                                                              capsys):
        # T[1] has the root i, inside the upper half-plane, at every w; its
        # noise-level top coefficient 1e-16 is kept by the slice trim
        path = tmp_path / "noise-top.json"
        path.write_text(json.dumps({"form": "monomial", "N": 3, "images": {
            str(k): [[0, 0]] * k + [[0, -1], [1, -1], [1, 0], [1e-16, 0]]
            for k in range(4)}}))
        for nmax in ("1", "2", "3"):
            code = main(["certify", str(path), "--class", "closed", "--domain",
                         "upper-half-plane", "--samples", "512", "--nmax", nmax,
                         "--json"])
            verdict = json.loads(capsys.readouterr().out)["verdict"]
            assert (code, verdict) == (1, "falsified")


class TestTextOutput:
    @pytest.mark.parametrize("op, argv, code, expect", [
        pytest.param("diag-k+1", ["certify", "--domain", "unit-disk",
                                  "--class", "closed", "--samples", "128"],
                     1, "witness: symbol zero at z = ", id="certify-symbol-zero"),
        pytest.param("mul-z", ["falsify", "--domain", "upper-half-plane",
                               "--trials", "200", "--degrees", "0..4"],
                     1, "witness found:\n  p = [1+0j]\n  bad root = 0+0j (boundary)\n",
                     id="falsify-witness"),
        pytest.param("mul-z-1", ["gcd-image", "--domain", "upper-half-plane",
                                 "--n", "3"],
                     0, "gcd of degree-3 images: [-1+0j, 1+0j]\n", id="gcd-image"),
        pytest.param(None, ["classify-point", "--domain", "unit-disk",
                            "--point", "0.2", "0.1"],
                     0, "0.2+0.1j: interior (side = 0.95)\n", id="classify-point"),
    ])
    def test_text_report(self, battery, tmp_path, capsys, op, argv, code, expect):
        if op is not None:
            path = tmp_path / f"{op}.json"
            path.write_text(json.dumps(serialize_operator(battery[op])))
            argv = [argv[0], str(path), *argv[1:]]
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert expect in out and err == ""

    def test_certify_text_mentions_witness(self, mulz_file, capsys):
        code = main(["certify", mulz_file, "--class", "open",
                     "--domain", "upper-half-plane"])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict: falsified" in out
        assert "bad root = 0" in out

    def test_symbol_text_rows(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"form": "diff", "N": 4,
                                    "coeffs": {"0": [[1, 0]]}}))
        code = main(["symbol", str(path), "--domain", "upper-half-plane",
                     "--n", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "z^0" in out and "z^2" in out

    def test_rank_one_report_carries_form(self, tmp_path, capsys):
        doc = {"form": "monomial", "N": 2,
               "images": {str(k): [[0, 1], [1, 0]] for k in range(3)}}
        path = tmp_path / "r1.json"
        path.write_text(json.dumps(doc))
        code = main(["certify", str(path), "--class", "closed",
                     "--domain", "upper-half-plane", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "certified-rank-one"
        form = report["diagnostics"]["rank_one"]
        assert form["direction_root_tags"] == ["exterior"]
        assert len(form["alphas"]) == 3


class TestDeterminism:
    def test_json_reports_identical(self, mulz_file, capsys):
        args = ["certify", mulz_file, "--class", "open",
                "--domain", "upper-half-plane", "--seed", "5", "--json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_shared_parser_matches_fresh_processes(self, mulz_file, capsys):
        # main() builds its parser once per process: a usage error first must
        # leave later calls as they would be in a process of their own
        calls = [["certify", mulz_file, "--class", "sideways",
                  "--domain", "upper-half-plane"],
                 ["certify", mulz_file, "--class", "closed", "--samples", "64",
                  "--domain", "upper-half-plane", "--json"],
                 ["falsify", mulz_file, "--trials", "200",
                  "--domain", "upper-half-plane", "--json"]]
        shared = []
        for argv in calls:
            code = main(argv)
            shared.append((code, capsys.readouterr().out))
        src = str(Path(rootcert.__file__).resolve().parents[1])
        fresh = [subprocess.run([sys.executable, "-m", "rootcert.cli", *argv],
                                capture_output=True, text=True, timeout=120,
                                env={**os.environ, "PYTHONPATH": src})
                 for argv in calls]
        assert [code for code, _ in shared] == [2, 0, 1]
        assert shared == [(done.returncode, done.stdout) for done in fresh]

    def test_calls_leave_numpy_ma_unimported(self, tmp_path):
        # numpy.ma loads on first use of np.unique and the like, about 10 ms
        # and a MiB of memory that every fresh process would pay
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(serialize_operator(LinearOperator.identity(8))))
        script = (
            "import contextlib, io, sys\n"
            "from rootcert.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(['falsify', {str(path)!r}, '--trials', '500',\n"
            "                   '--domain', 'upper-half-plane', '--json']),\n"
            f"             main(['certify', {str(path)!r}, '--class', 'open',\n"
            "                   '--samples', '64', '--domain', 'unit-disk', '--json'])]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n")
        src = str(Path(rootcert.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.split("\n")[-2] == "[0, 0] False", done.stderr

    def test_run_config_interface(self, capsys):
        args = build_parser().parse_args(
            ["classify-point", "--domain", "upper-half-plane", "--json",
             "--point", "0", "2"])
        buf = io.StringIO()
        code = run(args, None, buf)
        assert code == 0
        assert json.loads(buf.getvalue())["tag"] == "interior"

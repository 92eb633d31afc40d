import argparse
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import opmeanlab as ol
from opmeanlab import SpectralBand, SymMatrix, cli, kubo_ando
from opmeanlab.cli import _config_dict, main, parse_band, parse_function, parse_map, parse_mean
from opmeanlab.matio import write_sym_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsers:
    def test_band(self):
        band = parse_band("0.5:2")
        assert band.m == 0.5 and band.M == 2.0
        with pytest.raises(ValueError):
            parse_band("1,2")
        with pytest.raises(ValueError):
            parse_band("2:1")

    def test_mean(self):
        assert parse_mean("geometric") is ol.GEOMETRIC
        assert parse_mean("arithmetic:0.3").name == "arithmetic:0.3"
        with pytest.raises(ValueError):
            parse_mean("median")

    def test_map(self):
        assert parse_map("identity").kind == "identity"
        assert parse_map("trace").kind == "normalized-trace"
        assert parse_map("scale:2.5").kind == "scale"
        pinch = parse_map("pinch:0,1|2")
        assert pinch.kind == "pinching"
        assert ol.is_unital(pinch)
        # unitalizing a scale collapses to the identity map
        assert parse_map("unitalize:scale:3").kind == "identity"
        with pytest.raises(ValueError):
            parse_map("rotate:1")

    def test_function(self):
        assert parse_function("identity") is ol.IDENTITY
        assert parse_function("expm1") is ol.EXP_MINUS_ONE
        assert parse_function("power:0.5").name == "power:0.5"
        assert parse_function("power:0.5")(4.0) == 2.0
        fn = parse_function("spower:2,0.5")
        assert fn.name == "spower:2,0.5" and fn(4.0) == 4.0
        with pytest.raises(ValueError):
            parse_function("sin")

    @pytest.mark.parametrize("text", ["spower:2", "spower:1,2,3", "spower:"])
    def test_function_spower_needs_two_values(self, text):
        # "spower:2" used to fail on tuple unpacking instead of the grammar
        with pytest.raises(ValueError, match=f"unknown function '{text}'; use identity"):
            parse_function(text)


class TestConstantsCommand:
    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--band", "1:2")
        assert code == 0
        assert "kantorovich" in out and "1.125" in out

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "constants", "--band", "1:2", "--sigma", "geometric",
            "--eps", "0.5", "--n-matrices", "5", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["kantorovich"] == 1.125
        assert_allclose(report["polya_szego"], 3.0 / (2.0 * np.sqrt(2.0)), rtol=1e-12)
        assert_allclose(report["alpha"], report["polya_szego"], rtol=1e-9)
        assert report["yamazaki"]["value"] == 1.265625
        expect_wk = ol.weighted_kantorovich(1.0, 2.0, 0.5)
        assert_allclose(report["weighted_kantorovich"]["value"], expect_wk, rtol=1e-12)

    def test_gamma_bundle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "constants", "--f", "power:2", "--g", "identity", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert set(report["mp"]) == {"mu_h", "nu_h", "alpha", "mu_g", "nu_g", "gamma"}

    def test_omitted_flags_keep_library_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--f", "power:2", "--format", "json")
        assert code == 0
        cfg = ol.StatementConfig("mp-gamma", f=ol.power_function(2.0))
        report = json.loads(out)
        assert report["band"] == {"m": cfg.band.m, "M": cfg.band.M}
        assert report["mp"]["gamma"] == ol.mp_gamma(cfg.f, cfg.g, cfg.sigma.h, cfg.band).gamma

    def test_bad_band_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--band", "2:1")
        assert code == 2
        assert "error:" in err

    def test_overflow_is_one_line_error(self, capsys):
        code, out, err = run_cli(capsys, "constants", "--band", "1e-300:1e300")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_infinite_yamazaki_power_is_one_line_error(self, capsys):
        code, out, err = run_cli(capsys, "constants", "--n-matrices", "20000", "--format", "json")
        assert (code, out) == (2, "")
        assert err == "error: numeric overflow: yamazaki coefficient K^(19999/2) is not finite\n"


def _on_two_and_three_files(*values):
    """``(names, value)`` cases on the golden files A, B, C and on A, B; a
    three-file case is named by its value alone."""
    return [
        pytest.param(names, value, id=prefix + value)
        for prefix, names in (("", "ABC"), ("two-files-", "AB"))
        for value in values
    ]


class TestMeanCommand:
    def test_binary_geometric(self, tmp_path, capsys):
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        write_sym_matrix(fa, SymMatrix.diagonal([1.0, 4.0]))
        write_sym_matrix(fb, SymMatrix.diagonal([4.0, 1.0]))
        code, out, _ = run_cli(capsys, "mean", str(fa), str(fb), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert_allclose(report["result"], np.diag([2.0, 2.0]), atol=1e-12)

    def test_multi_geometric(self, tmp_path, capsys):
        paths = []
        for i, diag in enumerate(([1.0, 8.0], [2.0, 1.0], [4.0, 1.0])):
            p = tmp_path / f"m{i}.txt"
            write_sym_matrix(p, SymMatrix.diagonal(diag))
            paths.append(str(p))
        code, out, _ = run_cli(capsys, "mean", *paths, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert_allclose(report["result"], np.diag([2.0, 2.0]), atol=1e-9)

    def test_multi_rejects_other_means(self, tmp_path, capsys):
        paths = []
        for i in range(3):
            p = tmp_path / f"m{i}.txt"
            write_sym_matrix(p, SymMatrix.identity(2))
            paths.append(str(p))
        code, _, err = run_cli(capsys, "mean", *paths, "--sigma", "arithmetic")
        assert code == 2
        assert "geometric" in err

    def test_non_convergence_is_one_line_error(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        paths = []
        for i in range(3):
            p = tmp_path / f"m{i}.txt"
            write_sym_matrix(p, ol.random_spd(2, SpectralBand(0.5, 2.0), rng=rng))
            paths.append(str(p))
        code, out, err = run_cli(capsys, "mean", *paths, "--max-iter", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "did not converge" in err

    @pytest.mark.parametrize("count", [2, 3])
    def test_entries_past_1e154(self, tmp_path, count):
        # the 2x2 closed form overflows and falls back without a warning; the
        # ALM stopping norms overflow, which used to stop after one sweep
        mats = [np.diag([1.0, 4.0]), np.diag([4.0, 1.0]), np.array([[2.0, 1.0], [1.0, 3.0]])]
        paths = []
        for i, a in enumerate(mats[:count]):
            p = tmp_path / f"m{i}.txt"
            write_sym_matrix(p, SymMatrix(1e160 * a))
            paths.append(str(p))
        proc = subprocess.run(
            [sys.executable, "-m", "opmeanlab.cli", "mean", *paths, "--format", "json"],
            capture_output=True,
            text=True,
        )
        if count == 2:
            assert (proc.returncode, proc.stderr) == (0, "")
            assert_allclose(json.loads(proc.stdout)["result"], 2e160 * np.eye(2), rtol=1e-14, atol=0)
        else:
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr.startswith("error: numeric overflow") and proc.stderr.count("\n") == 1

    def test_failed_factorization_above_the_floor(self, tmp_path, capsys, monkeypatch):
        # A's smallest eigenvalue 1e-10 clears the floor; the failure is forced,
        # since whether LAPACK fails on A depends on its rounding
        def failing(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        fa, fi = tmp_path / "a.txt", tmp_path / "i.txt"
        write_sym_matrix(fa, SymMatrix.diagonal([1e-10, 1.0, 1e7]))
        write_sym_matrix(fi, SymMatrix.identity(3))
        code, out, err = run_cli(capsys, "mean", str(fa), str(fi), "--sigma", "arithmetic")
        assert (code, out) == (2, "")
        assert err == (
            "error: Cholesky factorization of A failed: "
            "smallest eigenvalue 1.000000e-10, largest 1.000000e+07\n"
        )

    def test_single_file_rejected(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        write_sym_matrix(p, SymMatrix.identity(2))
        code, _, err = run_cli(capsys, "mean", str(p))
        assert code == 2

    @pytest.mark.parametrize("names, tol", _on_two_and_three_files("nan", "-1e-12"))
    def test_bad_tolerance_is_one_line_error(self, names, tol, capsys):
        # a NaN tolerance used to stop the fixed-point sweep after one pass,
        # and two files used to ignore it
        paths = [str(Path(__file__).parent / "golden" / f"{name}.txt") for name in names]
        code, out, err = run_cli(capsys, "mean", *paths, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err == f"error: tolerance must be a nonnegative number, got {float(tol)!r}\n"

    @pytest.mark.parametrize("names, cap", _on_two_and_three_files("0", "-1"))
    def test_bad_iteration_cap_is_one_line_error(self, names, cap, capsys):
        # a cap below one used to be reported as non-convergence after 0
        # sweeps, and two files used to ignore it
        paths = [str(Path(__file__).parent / "golden" / f"{name}.txt") for name in names]
        code, out, err = run_cli(capsys, "mean", *paths, f"--max-iter={cap}")
        assert code == 2
        assert out == ""
        assert err == f"error: max_iter must be at least 1, got {int(cap)}\n"

    def test_multi_rejects_weighted_geometric(self, capsys):
        paths = [str(Path(__file__).parent / "golden" / f"{name}.txt") for name in "ABC"]
        code, out, err = run_cli(capsys, "mean", *paths, "--sigma", "geometric:0.5")
        assert (code, out) == (2, "")
        assert err == "error: only the unweighted geometric mean is defined for three or more matrices\n"

    def test_multi_rejects_more_than_six_matrices(self, capsys):
        paths = [str(Path(__file__).parent / "golden" / f"{name}.txt") for name in "ABCABCA"]
        code, out, err = run_cli(capsys, "mean", *paths)
        assert (code, out) == (2, "")
        assert err == "error: the multi-matrix mean takes at most 6 matrices, got 7\n"


class TestCheckCommand:
    @pytest.mark.parametrize(
        "statement, names, flags, config",
        [
            ("c-multi", "AB", (), {"dim": 3, "n_matrices": 2}),
            ("c-multi", "ABC", ("--dim", "3", "--n-matrices", "3"), {"dim": 3, "n_matrices": 3}),
            ("mp-gamma", "AB", (), {"dim": 3, "n_matrices": 3}),
        ],
        ids=["multi-defaults", "multi-matching", "binary"],
    )
    def test_matrix_files_set_the_reported_shape(self, statement, names, flags, config, capsys):
        # the report used to show --dim and --n-matrices, not the files it evaluated
        paths = [str(Path(__file__).parent / "golden" / f"{name}.txt") for name in names]
        code, out, _ = run_cli(
            capsys, "check", statement, *flags, "--matrices", *paths, "--band", "0.1:20", "--format", "json"
        )
        assert code == 0
        reported = json.loads(out)["config"]
        assert {name: reported[name] for name in config} == config

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--n-matrices", "7", "--dim", "5"), "--dim 5 disagrees with the files' 3x3 matrices"),
            (("--dim", "2"), "--dim 2 disagrees with the files' 3x3 matrices"),
            (("--n-matrices", "7"), "--n-matrices 7 disagrees with the 3 matrix files"),
        ],
        ids=["both", "dim", "count"],
    )
    def test_flags_that_disagree_with_matrix_files(self, flags, message, capsys):
        paths = [str(Path(__file__).parent / "golden" / f"{name}.txt") for name in "ABC"]
        code, out, err = run_cli(
            capsys, "check", "c-multi", *flags, "--matrices", *paths, "--band", "0.1:20", "--format", "json"
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_seeded_holds(self, capsys):
        code, out, _ = run_cli(capsys, "check", "ando", "--seed", "3")
        assert code == 0
        assert "holds" in out

    def test_witness_files_violate(self, tmp_path, capsys):
        kw = ol.KNOWN_WITNESSES["Q"]
        fa, fb = tmp_path / "x.txt", tmp_path / "y.txt"
        write_sym_matrix(fa, kw.matrices[0])
        write_sym_matrix(fb, kw.matrices[1])
        code, out, _ = run_cli(
            capsys,
            "check", "Q", "--matrices", str(fa), str(fb), "--skip-band-check",
        )
        assert code == 1
        assert "VIOLATED" in out
        code, out, _ = run_cli(
            capsys,
            "check", "Q", "--matrices", str(fa), str(fb),
            "--skip-band-check", "--expect-violation", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["holds"] is False
        assert_allclose(report["gap_det"], -0.0013710746408141753, rtol=1e-10)

    @pytest.mark.parametrize("command", ["check", "trials"])
    def test_negative_seed(self, command, capsys):
        code, out, err = run_cli(capsys, command, "ps-1.1", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be nonnegative\n"

    def test_unknown_statement(self, capsys):
        code, _, err = run_cli(capsys, "check", "nope")
        assert code == 2
        assert "unknown statement" in err

    def test_non_unital_map_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "mond2", "--phi", "scale:2")
        assert code == 2
        assert "unital" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["q2", "--p", "nan"], "exponent p must be nonnegative and finite, got nan"),
            (["c27", "--p", "inf"], "exponent p must be nonnegative and finite, got inf"),
            (["c27", "--q", "nan"], "exponent q must be nonnegative and finite, got nan"),
            (["c23-a", "--p", "inf"], "exponent p must be positive and finite, got inf"),
            (["t22-a", "--f", "power:nan"], "power must be nonnegative and finite, got nan"),
            (["t22-a", "--g", "power:inf"], "power must be nonnegative and finite, got inf"),
            (["t22-a", "--f", "spower:nan,1"], "coefficient must be positive and finite, got nan"),
            (["t22-a", "--f", "spower:1,inf"], "power must be nonnegative and finite, got inf"),
            (["ando", "--phi", "scale:nan"], "scale factor must be positive and finite, got nan"),
            (["ando", "--phi", "scale:inf"], "scale factor must be positive and finite, got inf"),
        ],
    )
    def test_non_finite_parameter_is_config_error(self, argv, message, capsys):
        code, out, err = run_cli(capsys, "check", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_non_finite_frame_is_config_error(self, tmp_path, capsys):
        # the frame, not the input matrices, is named as the bad input
        frame = tmp_path / "V.txt"
        frame.write_text("3 2\n1 0\n0 1\n0 nan\n")
        code, out, err = run_cli(capsys, "check", "ando", "--phi", f"compress:{frame}")
        assert (code, out) == (2, "")
        assert err == "error: compression frame must be finite, got entry nan\n"

    def test_malformed_spower_is_grammar_error(self, capsys):
        code, out, err = run_cli(capsys, "check", "t22-a", "--f", "spower:2")
        assert (code, out) == (2, "")
        assert err == (
            "error: unknown function 'spower:2'; use identity|expm1|power:p|spower:c,p\n"
        )

    @pytest.mark.parametrize(
        "flag,text,grammar",
        [
            ("--band", "1:", "band must look like m:M, got '1:'"),
            ("--f", "power:", "unknown function 'power:'; use identity|expm1|power:p|spower:c,p"),
            ("--phi", "scale:", "unknown map 'scale:'; use identity|trace|scale:k|pinch:0,1|2|compress:file|unitalize:<map>"),
            ("--phi", "pinch:0,,1", "unknown map 'pinch:0,,1'; use identity|trace|scale:k|pinch:0,1|2|compress:file|unitalize:<map>"),
            ("--sigma", "geometric:x", "unknown mean 'geometric:x'; use arithmetic|geometric|harmonic with optional :weight"),
        ],
    )
    def test_malformed_number_is_grammar_error(self, flag, text, grammar, capsys):
        code, out, err = run_cli(capsys, "check", "t22-a", flag, text)
        assert (code, out, err) == (2, "", f"error: {grammar}\n")

    @pytest.mark.parametrize("maps", [(), ("--phi", "trace", "--psi", "trace")], ids=["identity", "trace"])
    def test_overflowed_constant_is_config_error(self, maps, capsys):
        # the factors 2^1000 and 2^1000 are finite, the constant k, their product, is not
        code, out, err = run_cli(
            capsys, "check", "c27", "--band", "0.5:2", "--p", "1000", "--q", "1000", "--seed", "1", *maps
        )
        assert (code, out, err) == (
            2, "", "error: numeric overflow: constant M^p m^(-q) of band [0.5, 2.0] is outside the float range\n"
        )

    @pytest.mark.parametrize(
        "argv", [("check",), ("trials",), ("trials", "--trials", "0"), ("falsify", "--budget", "0")]
    )
    def test_too_few_matrices_for_a_multi_statement(self, argv, capsys):
        code, out, err = run_cli(capsys, *argv, "c-multi", "--n-matrices", "1")
        assert (code, out, err) == (2, "", "error: statement 'c-multi' needs at least two matrices\n")

    def test_sides_of_different_dimensions(self, tmp_path, capsys):
        # phi compresses to 2x2 images and psi keeps 4x4 ones; the order check names both
        frame = tmp_path / "V42.txt"
        frame.write_text("4 2\n1 0\n0 1\n0 0\n0 0\n")
        code, out, err = run_cli(capsys, "check", "t22-a", "--dim", "4", "--phi", f"compress:{frame}")
        assert (code, out, err) == (2, "", "error: dimension mismatch: 2 vs 4\n")

    @pytest.mark.parametrize("dim", [None, "2", "3", "4"])
    def test_unitalized_trace_is_the_trace(self, dim, capsys):
        # the trace is unital, so unitalizing it at --dim changes no bit
        sized = () if dim is None else ("--dim", dim)
        reports = []
        for name in ("trace", "unitalize:trace"):
            code, out, err = run_cli(
                capsys, "check", "t22-a", *sized, "--phi", name, "--psi", name, "--seed", "1", "--format", "json"
            )
            assert (code, err) == (0, "")
            reports.append(json.loads(out))
        trace, unitalized = reports
        assert unitalized["config"]["phi"] == f"unitalized({trace['config']['phi']})"
        assert (unitalized["holds"], unitalized["gap_min_eig"].hex()) == (trace["holds"], trace["gap_min_eig"].hex())

    def test_omitted_flags_keep_library_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "check", "ando", "--format", "json")
        assert code == 0
        assert json.loads(out)["config"] == _config_dict(ol.StatementConfig("ando"))

    def test_exhausted_memory_is_one_line_error(self, capsys, monkeypatch):
        # an ALM recursion that cannot be allocated; the allocation failure
        # is simulated, not provoked
        def alm(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(kubo_ando, "_alm", alm)
        code, out, err = run_cli(capsys, "check", "yamazaki", "--n-matrices", "6", "--dim", "2")
        assert (code, out) == (2, "")
        assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"


class TestTrialsCommand:
    def test_theorem_run(self, capsys):
        code, out, _ = run_cli(capsys, "trials", "ando", "--trials", "20", "--seed", "1")
        assert code == 0
        assert "0 violations in 20 counted trials" in out

    def test_violations_flip_exit_code(self, capsys):
        args = (
            "trials", "q2sq", "--band", "0.4:3",
            "--trials", "120", "--seed", "17",
        )
        code, out, _ = run_cli(capsys, *args)
        assert code == 1
        code, _, _ = run_cli(capsys, *args, "--expect-violation")
        assert code == 0

    def test_rejected_run_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "trials", "mp-gamma", "--g", "power:2", "--trials", "10",
        )
        assert code == 1
        assert "rejected" in out
        assert "not concave" in out

    def test_json_is_deterministic(self, capsys):
        args = (
            "trials", "q2sq", "--band", "0.4:3",
            "--trials", "60", "--seed", "7",
            "--format", "json", "--expect-violation",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        report = json.loads(out1)
        assert report["trials"] == 60
        assert "elapsed" not in out1

    def test_band_check_flag_is_not_accepted(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trials", "q2", "--skip-band-check"])
        assert exc.value.code == 2


class TestFalsifyCommand:
    def test_known_witness_seeding(self, tmp_path, capsys):
        report_path = tmp_path / "w.json"
        code, out, _ = run_cli(
            capsys,
            "falsify", "q2sq", "--seed-known", "--budget", "1",
            "--expect-violation", "--format", "json",
            "--report", str(report_path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["found"] is True
        assert report["witness"]["trial_index"] == -1
        assert_allclose(report["witness"]["gap_det"], -0.4110846919000982, rtol=1e-10)
        assert report_path.read_text() == out

    def test_matrix_files(self, tmp_path, capsys):
        kw = ol.KNOWN_WITNESSES["q2sq"]
        paths = [str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
        for path, m in zip(paths, kw.matrices):
            write_sym_matrix(path, m)
        argv = ("falsify", "q2sq", "--band", "0.4:3", "--matrices", *paths, "--budget", "1", "--expect-violation")
        code, out, _ = run_cli(capsys, *argv, "--skip-band-check", "--format", "json")
        assert code == 0
        witness = json.loads(out)["witness"]
        assert witness["trial_index"] == -1 and witness["band_checked"] is False
        assert_allclose(witness["gap_det"], -0.4110846919000982, rtol=1e-10)
        # the second published matrix reaches below m = 0.4
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: matrix 1: eigenvalues [0.0475539] outside band\n")

    def test_no_bundled_witness(self, capsys):
        code, _, err = run_cli(capsys, "falsify", "ando", "--seed-known", "--budget", "1")
        assert code == 2
        assert "no bundled witness" in err

    def test_search_that_finds_nothing(self, capsys):
        code, out, _ = run_cli(capsys, "falsify", "ando", "--budget", "25", "--seed", "0")
        assert code == 0
        assert "no violation found" in out
        code, _, _ = run_cli(
            capsys, "falsify", "ando", "--budget", "25", "--seed", "0", "--expect-violation"
        )
        assert code == 1

    def test_text_names_the_broken_hypothesis(self, capsys):
        code, out, _ = run_cli(capsys, "falsify", "aahh", "--f", "power:2", "--budget", "300", "--seed", "1")
        assert code == 1
        assert "  hypothesis   f is not operator monotone" in out.splitlines()

    def test_json_is_deterministic(self, capsys):
        args = (
            "falsify", "q2sq", "--band", "0.4:3", "--budget", "80",
            "--seed", "17", "--expect-violation", "--format", "json",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestReproduceCommand:
    def test_all_ok(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce")
        assert code == 0
        assert "all reproductions ok" in out
        assert "1.265625" in out

    def test_text_gives_the_published_spectra(self, capsys):
        _, out, _ = run_cli(capsys, "reproduce")
        notes = [line for line in out.splitlines() if "note:" in line]
        assert notes == [
            "  note: published matrices lie outside band [1, 2] (spectra [0.00782, 0.261] and [0.38, 0.79]); "
            "band check skipped",
            "  note: published matrices lie outside band [0.4, 3] (spectra [0.405, 1.52] and [0.0476, 2.76]); "
            "band check skipped",
        ]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert {c["statement"] for c in report["cases"]} == {"Q", "q2sq"}
        assert report["yamazaki"]["coefficient"] == 1.265625


_TEXT_FLAGS = ("band", "sigma", "tau", "phi", "psi", "f", "g")


class TestOneDefaultRule:
    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["constants", "--eps", "0.3"], ("band", "sigma", "f", "g")),
            (["mean", "A", "B"], ("sigma",)),
            (["check", "t22-a", "--seed", "1"], _TEXT_FLAGS),
            (["trials", "ando", "--trials", "5"], _TEXT_FLAGS),
            (["falsify", "q2sq", "--budget", "3"], _TEXT_FLAGS),
            # the bundled pair is replayed in its own band [0.4, 3], also under --band ''
            (["falsify", "q2sq", "--seed-known", "--budget", "3"], _TEXT_FLAGS),
        ],
        ids=["constants", "mean", "check", "trials", "falsify", "falsify-seed-known"],
    )
    def test_empty_flag_counts_as_omitted(self, argv, flags, tmp_path, capsys):
        files = {"A": tmp_path / "a.txt", "B": tmp_path / "b.txt"}
        write_sym_matrix(files["A"], SymMatrix.diagonal([1.0, 4.0]))
        write_sym_matrix(files["B"], SymMatrix([[2.0, 0.5], [0.5, 1.0]]))
        argv = [str(files.get(word, word)) for word in argv] + ["--format", "json"]
        omitted = run_cli(capsys, *argv)
        assert omitted[0] in (0, 1) and omitted[2] == ""
        for flag in flags:
            assert run_cli(capsys, *argv, f"--{flag}", "") == omitted, flag

    def test_every_config_field_has_one_flag(self):
        names = [f.name for f in dataclasses.fields(ol.StatementConfig) if f.name != "statement_id"]
        assert sorted(cli._FLAGS) == sorted(names)
        assert sorted(_config_dict(ol.StatementConfig("ando"))) == sorted(["statement", *names])
        subparsers = next(a for a in cli._make_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command in ("check", "trials", "falsify"):
            options = [opt for a in subparsers.choices[command]._actions for opt in a.option_strings]
            for name in names:
                assert options.count("--" + name.replace("_", "-")) == 1, (command, name)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "opmeanlab.cli", "constants", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kantorovich"] == 1.125


_OVERFLOWS = {
    # the scale map's k x overflows
    "map": "check ando --phi scale:1e308 --seed 1",
    # the unitality probe's image 1e308 I overflows when symmetrized, so it is not I
    "unital-probe": "check t22-a --phi scale:1e308 --seed 1",
    # A^154 on the band 1:100 overflows when the spectral calculus symmetrizes it
    "calculus": "check q2 --band 1:100 --p 154 --seed 1",
    # the sum of four inputs near 5e307 overflows before it is averaged
    "average": "check ragm --band 5e307:5.5e307 --n-matrices 4 --seed 1",
}


#: The overflows that are reported by what overflowed, not as a non-finite matrix.
_NAMED_OVERFLOWS = {
    "check": "numeric overflow: constant M^p m^(-q) of band [0.5, 2.0] is outside the float range",
    "unital-probe": "phi (scale:1e+308) is not unital",
}


def _overflow_argv(command, tmp_path):
    if command in _OVERFLOWS:
        return _OVERFLOWS[command].split()
    if command == "draw":
        # seeded draws near the float maximum overflow when symmetrized
        return ["check", "ando", "--band", "1e308:1.5e308", "--seed", "1"]
    if command == "check":
        # k = 2^1000 2^1000 is inf
        return ["check", "c27", "--band", "0.5:2", "--p", "1000", "--q", "1000", "--seed", "1",
                "--phi", "trace", "--psi", "trace"]
    # 1.5e308 + 1.5e308 overflows when the matrix is symmetrized
    big, one = tmp_path / "big.txt", tmp_path / "one.txt"
    big.write_text("2\n1.5e308 0\n0 1.5e308\n")
    one.write_text("2\n1 0\n0 1\n")
    return ["mean", str(big), str(one)]


@pytest.mark.parametrize("warnings", [[], ["-W", "error::RuntimeWarning"]], ids=["default", "warnings-as-errors"])
@pytest.mark.parametrize("command", ["check", "mean", "draw", *_OVERFLOWS])
def test_overflow_is_one_error_line(command, warnings, tmp_path):
    proc = subprocess.run(
        [sys.executable, *warnings, "-m", "opmeanlab.cli", *_overflow_argv(command, tmp_path)],
        capture_output=True,
        text=True,
    )
    message = _NAMED_OVERFLOWS.get(command, "matrix entries must be finite")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("warnings", [[], ["-W", "error::RuntimeWarning"]], ids=["default", "warnings-as-errors"])
@pytest.mark.parametrize(
    "argv, message",
    [
        # sqrt(M m) overflows, so the coefficient would be 0.0
        ("check ps-1.1 --band 1e200:1e201 --seed 1",
         "Polya-Szego coefficient of band [1e+200, 1e+201] is outside the float range"),
        # 4 M m underflows to zero
        ("check ps-1.1 --band 1e-200:1e-199 --seed 1",
         "Polya-Szego coefficient of band [1e-200, 1e-199] is outside the float range"),
        ("constants --band 1e-200:1e-199",
         "Kantorovich constant of band [1e-200, 1e-199] is outside the float range"),
        # the eigenvalues are finite, their product is not
        ("check aahh --band 1e160:1e161 --seed 1 --format json", "gap determinant is not finite"),
        ("constants --n-matrices 1000000000000", "yamazaki coefficient K^(999999999999/2) is not finite"),
        # K is 1 + 2.5e-9: the power overflows only after about 2.8e11 factors
        ("constants --band 1:1.0001 --n-matrices 1000000000000",
         "yamazaki coefficient K^(999999999999/2) is not finite"),
        # 2^2000 raises in Python's float power
        ("check c23-b --band 1:2 --p 2000 --seed 1",
         "constant (f(M) g(1/m))^p of band [1.0, 2.0] is outside the float range"),
        ("check c27 --band 1:2 --p 1100 --q 0 --seed 1",
         "factor M^p of band [1.0, 2.0] is outside the float range"),
        # f(M) = 1e200 and g(1/m) = 1e200 are finite, their product is not
        ("check t22-a --band 1e-200:1e200 --seed 1",
         "constant f(M) g(1/m) of band [1e-200, 1e+200] is outside the float range"),
        # alpha's interval [m/M, M/m] is not finite
        ("check mond2 --band 1e-160:1e160 --seed 0", "ratio M/m of band [1e-160, 1e+160] is outside the float range"),
    ],
)
def test_value_past_the_float_range_is_one_error_line(argv, message, warnings):
    proc = subprocess.run(
        [sys.executable, *warnings, "-m", "opmeanlab.cli", *argv.split()],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: numeric overflow: {message}\n")


@pytest.mark.parametrize("warnings", [[], ["-W", "error::RuntimeWarning"]], ids=["default", "warnings-as-errors"])
@pytest.mark.parametrize(
    "argv, band",
    [
        # f(M) = 40^200 and 20^300 overflow in numpy's power
        ("check c-multi --f power:200 --band 1:40 --seed 1", "[1.0, 40.0]"),
        ("check t22-a --f power:300 --band 1:20 --seed 2", "[1.0, 20.0]"),
    ],
)
def test_undefined_constant_is_one_error_line(argv, band, warnings):
    proc = subprocess.run(
        [sys.executable, *warnings, "-m", "opmeanlab.cli", *argv.split()],
        capture_output=True,
        text=True,
        timeout=60,
    )
    message = f"f(M) g(1/m) of band {band} is undefined: f(M) = inf, g(1/m) = 1.0"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("warnings", [[], ["-W", "error::RuntimeWarning"]], ids=["default", "warnings-as-errors"])
@pytest.mark.parametrize(
    "argv, message",
    [
        # the float formula cancels to 0 near eps = 0 and eps = 1
        ("constants --band 1e-13:10 --eps 1e-300",
         "weighted Kantorovich constant of [1e-13, 10.0] at eps=1e-300 cannot be computed in floats"),
        ("constants --band 2:3 --eps 0.9999999999999999",
         "weighted Kantorovich constant of [2.0, 3.0] at eps=0.9999999999999999 cannot be computed in floats"),
        # g overflows at the top of the band, so its chord is not finite
        ("constants --band 1e-300:1e7 --g power:200",
         "chord of power:200 on [1e-300, 10000000.0] is not finite: phi(a) = 0.0, phi(b) = inf"),
        ("constants --band 1:1e7 --g expm1",
         "chord of expm1 on [1.0, 10000000.0] is not finite: phi(a) = 1.7182818284590453, phi(b) = inf"),
        ("check mp-gamma --band 3:1e160 --g expm1 --seed 3",
         "chord of expm1 on [3.0, 1e+160] is not finite: phi(a) = 19.085536923187668, phi(b) = inf"),
        # the concavity and increase probes overflow on the way; in the second,
        # g is finite but b g(a) of the chord is not
        ("falsify mp-gamma --band 3:1.7e308 --seed 4 --dim 1 --budget 8 --g expm1",
         "chord of expm1 on [3.0, 1.7e+308] is not finite: phi(a) = 19.085536923187668, phi(b) = inf"),
        ("trials mp-gamma --band 1e160:1.7e308 --seed 1 --dim 2 --trials 8 --sigma harmonic:0.999999 --g power:0.5",
         "chord of power:0.5 on [1e+160, 1.7e+308] is not finite: phi(a) = 1e+80, phi(b) = 1.3038404810405297e+154"),
    ],
)
def test_constant_that_is_not_finite_is_one_error_line(argv, message, warnings):
    proc = subprocess.run(
        [sys.executable, *warnings, "-m", "opmeanlab.cli", *argv.split()],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("warnings", [[], ["-W", "error::RuntimeWarning"]], ids=["default", "warnings-as-errors"])
def test_floor_error_names_operand_and_floor(warnings):
    # both draws lie in the band; C = A^(-1/2) B A^(-1/2) has eigenvalues near m / M
    proc = subprocess.run(
        [sys.executable, *warnings, "-m", "opmeanlab.cli", "check", "ando", "--band", "1:1e14", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(r"error: A\^-1/2 B A\^-1/2 has smallest eigenvalue \S+, at or below floor 1e-13\n", proc.stderr)

"""End-to-end exercises of every subcommand and the exit-code contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncpoly.cli
from ncpoly import dump_als, dump_factors, dump_matrix_tuple, load_als
from ncpoly.cli import main

from conftest import BENCH19_TEXT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRank:
    def test_intro(self, capsys):
        code, out, _ = run(capsys, "rank", "x - x*y*x")
        assert code == 0 and out.strip() == "4"

    def test_scalar(self, capsys):
        code, out, _ = run(capsys, "rank", "7/2")
        assert code == 0 and out.strip() == "1"

    def test_power_four(self, capsys):
        code, out, _ = run(capsys, "rank", "(x+y+z)^4")
        assert code == 0 and out.strip() == "5"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "rank", "x - x*y*x")
        assert code == 0 and json.loads(out) == {"rank": 4}

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run(capsys, "rank", "x + *")
        assert code == 2 and "error" in err

    def test_oversized_power_exits_two(self, capsys):
        for text in ("x^99999999", "(x+y)^40", "x*y*x^239 + x^2*y*x^238"):
            code, _, err = run(capsys, "rank", text)
            assert code == 2 and "power" in err

    def test_oversized_product_exits_two(self, capsys):
        code, _, err = run(capsys, "rank", "(x+y)^13*(x+y)^3")
        assert code == 2 and "product" in err

    def test_deep_nesting_exits_two(self, capsys):
        code, _, err = run(capsys, "rank", "(" * 2000 + "x" + ")" * 2000)
        assert code == 2 and err.startswith("error:") and "nest" in err

    def test_unknown_letter_with_explicit_alphabet(self, capsys):
        code, _, err = run(capsys, "--alphabet", "x,y", "rank", "x + q")
        assert code == 2 and "q" in err


class TestCompile:
    def test_anticommutator_summary(self, capsys, tmp_path):
        out_path = tmp_path / "anti.als"
        code, out, _ = run(
            capsys, "compile", "x*y + y*x", "-o", str(out_path)
        )
        assert code == 0
        assert out.strip() == "dim=4 Ns=2 Nt=2 N=2 bounds=[2,3]"
        loaded = load_als(out_path.read_text())
        assert loaded.n == 4

    def test_single_letter(self, capsys):
        code, out, _ = run(capsys, "compile", "x")
        assert code == 0 and out.strip() == "dim=2 Ns=0 Nt=0 N=0 bounds=[0,0]"

    def test_bench19_counts(self, capsys):
        code, out, _ = run(
            capsys, "--alphabet", "x,y,a,b,c", "compile", BENCH19_TEXT
        )
        assert code == 0
        fields = dict(
            part.split("=") for part in out.split() if "=" in part
        )
        assert fields["dim"] == "16"
        assert int(fields["Nt"]) <= 22


class TestBuildCostBound:
    """``compile`` and ``factor`` refuse a system too costly to build."""

    def test_costly_input_exits_two_quickly(self):
        # 13 characters that parse, but whose system takes minutes to build
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        for command in ("compile", "factor"):
            done = subprocess.run(
                [sys.executable, "-m", "ncpoly.cli", "--alphabet", "x,y",
                 command, "x^118*(x+y)^9"],
                capture_output=True, text=True, env=env, timeout=20,
            )
            assert done.returncode == 2, (command, done.stderr)
            assert str(ncpoly.cli.MAX_BUILD_COST) in done.stderr

    def test_sixth_power_still_compiles(self, capsys):
        code, out, _ = run(capsys, "compile", "(x+y+z)^6")
        assert code == 0 and out.startswith("dim=7 ")


class TestMinimizeCommand:
    def test_file_round_trip(self, capsys, tmp_path, ab_xy):
        from ncpoly import als_add, minimal_monomial

        raw = als_add(minimal_monomial(ab_xy, (0,)), minimal_monomial(ab_xy, (0, 1)))
        src = tmp_path / "raw.als"
        dst = tmp_path / "min.als"
        src.write_text(dump_als(raw))
        code, out, _ = run(capsys, "minimize", str(src), "-o", str(dst))
        assert code == 0
        assert "dim=3" in out
        assert load_als(dst.read_text()).n == 3

    def test_json_output_is_one_json_document(self, capsys, tmp_path, ab_xy):
        from ncpoly import als_add, minimal_monomial

        raw = als_add(minimal_monomial(ab_xy, (0,)), minimal_monomial(ab_xy, (0, 1)))
        src = tmp_path / "raw.als"
        src.write_text(dump_als(raw))
        code, out, _ = run(capsys, "--format", "json", "minimize", str(src))
        info = json.loads(out)
        assert code == 0 and info["dim"] == 3
        assert load_als(info["system"]).polynomial() == raw.polynomial()

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "minimize", str(tmp_path / "nope.als"))
        assert code == 2

    def test_zero_last_rhs_entry(self, capsys, tmp_path, ab_xy):
        from ncpoly import Als

        # s_2 = 0 and s_1 = 1 + x*s_2: the system represents 1
        src = tmp_path / "one.als"
        dst = tmp_path / "min.als"
        als = Als.from_cells(ab_xy, [["1", "-x"], ["0", "1"]], [1, 0])
        src.write_text(dump_als(als))
        code, out, _ = run(capsys, "minimize", str(src), "-o", str(dst))
        assert code == 0
        assert "dim=1" in out
        assert str(load_als(dst.read_text()).polynomial()) == "1"


class TestEval:
    @pytest.fixture
    def paths(self, tmp_path, intro_als):
        import random

        from ncpoly import random_rational_tuple

        als_path = tmp_path / "p.als"
        als_path.write_text(dump_als(intro_als))
        tup = random_rational_tuple(random.Random(3), 2, 3)
        mat_path = tmp_path / "m.txt"
        mat_path.write_text(dump_matrix_tuple(tup))
        return als_path, mat_path

    def test_left_side(self, capsys, paths, intro_als):
        import random
        from fractions import Fraction

        import numpy as np

        from ncpoly import naive_evaluate, random_rational_tuple

        code, out, _ = run(capsys, "eval", str(paths[0]), str(paths[1]))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "side=left mults=2"
        printed = np.array(
            [[Fraction(tok) for tok in line.split()] for line in lines[1:4]],
            dtype=object,
        )
        tup = random_rational_tuple(random.Random(3), 2, 3)
        reference = naive_evaluate(intro_als.polynomial(), tup.mats)
        assert np.array_equal(printed, reference)

    def test_both_sides_agree(self, capsys, paths):
        code, out, _ = run(
            capsys, "eval", str(paths[0]), str(paths[1]), "--side", "both"
        )
        assert code == 0
        assert "side=left mults=2" in out and "side=right mults=2" in out

    def test_scalar_system(self, capsys, tmp_path, ab_xy):
        from ncpoly import minimal_monomial

        als_path = tmp_path / "c.als"
        als_path.write_text(dump_als(minimal_monomial(ab_xy, (), 5)))
        mat_path = tmp_path / "m.txt"
        mat_path.write_text("2 2 rat\n1/1 0/1\n0/1 1/1\n1/2 0/1\n0/1 1/2\n")
        code, out, _ = run(capsys, "eval", str(als_path), str(mat_path))
        assert code == 0 and "mults=0" in out

    def test_malformed_matrix_file(self, capsys, paths, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2 rat\n1/1\n")
        code, _, err = run(capsys, "eval", str(paths[0]), str(bad))
        assert code == 2


class TestFactor:
    def test_triple_product(self, capsys):
        code, out, _ = run(
            capsys,
            "--alphabet",
            "a,b,c,d,e,x",
            "factor",
            "2aexc + 2bxc - aexd - bxd",
        )
        assert code == 0
        assert out.splitlines()[0] == "atoms: 3"
        assert "no split found" not in out

    def test_monomial(self, capsys):
        code, out, _ = run(capsys, "factor", "x*y*z")
        assert code == 0 and out.splitlines()[0] == "atoms: 3"

    def test_difference_of_squares(self, capsys):
        # (x - 1)(x + 1): reached only by the full solve's quadratic
        code, out, _ = run(capsys, "factor", "x*x-1")
        assert code == 0 and out.splitlines()[0] == "atoms: 2"

    def test_anticommutator_reports_no_split(self, capsys):
        code, out, _ = run(capsys, "factor", "x*y + y*x")
        assert code == 0
        assert "no split found (not a proof of irreducibility)" in out

    def test_scalar_is_input_error(self, capsys):
        code, _, err = run(capsys, "--alphabet", "x", "factor", "5")
        assert code == 2


class TestVerifyBlock:
    def test_bench19(self, capsys, tmp_path, bench19_chain):
        path = tmp_path / "factors.txt"
        path.write_text(dump_factors(bench19_chain))
        code, out, _ = run(capsys, "verify-block", str(path), BENCH19_TEXT)
        assert code == 0 and "ok" in out

    def test_mismatch_exits_three(self, capsys, tmp_path, bench19_chain):
        path = tmp_path / "factors.txt"
        path.write_text(dump_factors(bench19_chain))
        code, _, err = run(capsys, "verify-block", str(path), "3cyxb")
        assert code == 3

    def test_json_outcomes(self, capsys, tmp_path, bench19_chain):
        path = tmp_path / "factors.txt"
        path.write_text(dump_factors(bench19_chain))
        argv = ("--format", "json", "verify-block", str(path))
        code, out, _ = run(capsys, *argv, BENCH19_TEXT)
        assert code == 0 and json.loads(out) == {"equal": True}
        code, out, _ = run(capsys, *argv, "3cyxb")
        assert code == 3 and json.loads(out) == {"equal": False}

    def test_truncated_file_exits_two(self, capsys, tmp_path, bench19_chain):
        path = tmp_path / "factors.txt"
        path.write_text("\n".join(dump_factors(bench19_chain).splitlines()[:-1]))
        code, _, err = run(capsys, "verify-block", str(path), BENCH19_TEXT)
        assert code == 2 and err.startswith("error:")


class TestTable:
    def test_text_contains_paper_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--kmax-p", "4", "--kmax-q", "3")
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:]]
        table = {(r[0], int(r[1])): tuple(map(int, r[2:])) for r in rows}
        assert table[("p", 4)] == (5, 81, 243, 3)
        assert table[("q", 3)] == (4, 48, 72, 3)
        assert table[("p", 0)] == (1, 1, 0, 0)

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "table", "--kmax-p", "2", "--kmax-q", "0"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family,k,rank,terms,naive,N"
        assert "p,2,3,9,9,1" in lines

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "table", "--kmax-p", "1", "--kmax-q", "1"
        )
        rows = json.loads(out)
        assert {"family": "p", "k": 1, "rank": 2, "terms": 3, "naive": 0, "N": 0} in rows


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "--seed", "1", "selftest", "--rounds", "5")
        assert code == 0
        assert "FAIL" not in out and "ok" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "selftest", "--rounds", "2")
        checks = json.loads(out)["checks"]
        assert code == 0 and len(checks) == 8
        assert all(set(c) == {"name", "ok"} and c["ok"] is True for c in checks)
        assert checks[-1]["name"] == "oracle equivalence on 2 random polynomials"

    def test_failed_check_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(ncpoly.cli, "rank_of", lambda p: 0)
        code, out, _ = run(capsys, "selftest", "--rounds", "1")
        assert code == 3 and out.startswith("FAIL rank x - x*y*x == 4\n")
        code, out, _ = run(capsys, "--format", "json", "selftest", "--rounds", "1")
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
        assert code == 3 and len(failed) == 3 and failed[0] == "rank x - x*y*x == 4"


class TestCsvIsForTable:
    """Only table writes CSV; every other command refuses --format csv."""

    @pytest.fixture
    def argvs(self, tmp_path, intro_als, bench19_chain):
        import random

        from ncpoly import random_rational_tuple

        als, mats, factors = (tmp_path / name for name in ("p.als", "m.txt", "f.txt"))
        als.write_text(dump_als(intro_als))
        mats.write_text(dump_matrix_tuple(random_rational_tuple(random.Random(3), 2, 2)))
        factors.write_text(dump_factors(bench19_chain))
        return {
            "rank": ("x*y",),
            "compile": ("x*y",),
            "minimize": (str(als),),
            "eval": (str(als), str(mats)),
            "factor": ("x*y",),
            "verify-block": (str(factors), BENCH19_TEXT),
            "selftest": ("--rounds", "1"),
        }

    @pytest.mark.parametrize(
        "command", ["rank", "compile", "minimize", "eval", "factor", "verify-block", "selftest"]
    )
    def test_other_commands_exit_two(self, capsys, argvs, command):
        code, out, _ = run(capsys, command, *argvs[command])
        assert code == 0 and out  # the same call runs without --format csv
        code, out, err = run(capsys, "--format", "csv", command, *argvs[command])
        assert code == 2 and out == ""
        assert err == f"error: --format csv is for table only, not {command}\n"


class TestCountOptions:
    """--kmax-p/--kmax-q are 0..10/0..8, --rounds 1..1000, --size 1..16."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("table", "--kmax-p", "-1", "--kmax-q", "-1"), "--kmax-p"),
            (("table", "--kmax-q", "-1"), "--kmax-q"),
            (("table", "--kmax-p", "two"), "--kmax-p"),
            (("selftest", "--rounds", "-3"), "--rounds"),
            (("selftest", "--rounds", "0"), "--rounds"),
            (("selftest", "--size", "0"), "--size"),
            (("table", "--kmax-p", "11"), "--kmax-p"),
            (("table", "--kmax-q", "9"), "--kmax-q"),
            (("selftest", "--size", "17"), "--size"),
            (("selftest", "--size", "100000"), "--size"),
            (("selftest", "--rounds", "1001"), "--rounds"),
        ],
    )
    def test_bad_counts_exit_two(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert f"argument {option}:" in capsys.readouterr().err

    def test_smallest_counts_run(self, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "table", "--kmax-p", "0", "--kmax-q", "0"
        )
        assert code == 0 and out.splitlines()[1:] == ["p,0,1,1,0,0", "q,0,1,1,0,0"]
        code, out, _ = run(capsys, "selftest", "--rounds", "1", "--size", "1")
        assert code == 0 and "ok oracle equivalence on 1 random polynomials" in out

    def test_largest_size_runs(self, capsys):
        code, out, _ = run(capsys, "selftest", "--rounds", "1", "--size", "16")
        assert code == 0 and "ok oracle equivalence on 1 random polynomials" in out

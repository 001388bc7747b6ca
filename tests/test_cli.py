"""Command-line surface: table rendering, exit codes, suite runner.

Everything runs through dispatch() with StringIO streams, never a
subprocess, so the tests also pin byte-level determinism of the output.
"""

import dataclasses
import gc
import io
import json
import math
import re
import time
import warnings
import weakref
from pathlib import Path

import pytest

from spectral_bounds import bounds, cli, fem, geometry, special, sturm1d
from spectral_bounds.errors import NumericError, ParameterError

import pipelines

J01 = special.bessel_first_zero(0.0)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.dispatch(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_emit_table_csv():
    rows = [{"name": "x", "value": math.pi, "flag": True}]
    text = cli.emit_table(rows, "csv")
    assert text == "name,value,flag\nx,3.14159265359,true\n"
    # a non-finite value is a numeric failure, never a printed row
    for value in (math.nan, math.inf):
        with pytest.raises(NumericError, match="non-finite value"):
            cli.emit_table([{"name": "x", "value": value}], "csv")


def test_emit_table_json_shapes():
    row = {"a": 1, "b": 2.5}
    # a dict is one row, a list a sweep of any length
    assert json.loads(cli.emit_table(row, "json")) == {"a": 1, "b": 2.5}
    assert json.loads(cli.emit_table([row, row], "json")) == [row, row]
    assert json.loads(cli.emit_table([row], "json")) == [row]
    assert cli.emit_table(row, "csv") == cli.emit_table([row], "csv")
    with pytest.raises(ParameterError):
        cli.emit_table([row], "yaml")


def test_json_rounding_is_lossless_at_12_digits():
    value = 2.404825557695773
    out = json.loads(cli.emit_table({"v": value}, "json"))
    assert out["v"] == pytest.approx(value, rel=1e-11)


def test_psi_csv_exact():
    code, out, err = run_cli(["psi", "--p", "2", "--n", "2"])
    assert code == 0 and err == ""
    assert out == "p,n,psi,psi_p\n2,2,2.4048255577,5.78318596295\n"


def test_psi_p2_rows_are_the_bessel_zeros():
    """At p = 2 every psi row prints the 12 digits of j_(n/2-1,1)."""
    ns = range(2, special.N_MAX + 1)
    code, out, err = run_cli(["psi", "--p", "2", "--n",
                              ",".join(map(str, ns)), "--format", "csv"])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[1] for row in rows] == [str(n) for n in ns]
    for n, row in zip(ns, rows):
        assert row[2] == f"{special.bessel_first_zero(n / 2.0 - 1.0):.12g}"


def test_psi_json_multiple():
    code, out, _ = run_cli(["psi", "--p", "2,3", "--n", "2",
                            "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [row["p"] for row in rows] == [2, 3]
    assert rows[0]["psi"] == pytest.approx(J01, rel=1e-11)
    assert rows[1]["psi"] == pytest.approx(2.1422652233407256, rel=1e-9)


def test_bound_square_p2_fields():
    code, out, _ = run_cli(["bound", "--domain", "square"])
    assert code == 0
    row = json.loads(out)
    assert row["k_value"] == pytest.approx(math.sqrt(2.0), rel=1e-11)
    assert row["rule"] == "symmetric-convex-width"
    assert row["main"] == pytest.approx(J01 ** 2, rel=1e-9)
    assert row["payne_weinberger"] == pytest.approx(math.pi ** 2 / 2.0,
                                                    rel=1e-11)
    assert {"bct_corollary", "symmetric_planar"} <= row.keys()
    # a rhombus takes the same width rule
    code, out, _ = run_cli(["bound", "--domain", "rhombus", "--m", "8"])
    assert code == 0
    row = json.loads(out)
    assert row["k_value"] == pytest.approx(2.0 ** 0.25, rel=1e-11)
    assert row["rule"] == "symmetric-convex-width"


def test_bound_p3_omits_linear_only_bounds():
    code, out, _ = run_cli(["bound", "--domain", "rhombus", "--m", "8",
                            "--p", "3"])
    assert code == 0
    row = json.loads(out)
    assert "payne_weinberger" not in row
    assert "bct_corollary" not in row
    assert row["main"] > row["ashbaugh_mercado"]


def test_compare_bounds_rejects_p3():
    code, out, err = run_cli(["compare-bounds", "--domain", "square",
                              "--p", "3"])
    assert code == 2
    assert out == ""
    assert "FEM mu1 unavailable for p != 2" in err


def test_compare_bounds_square_csv():
    code, out, _ = run_cli(["compare-bounds", "--domain", "square",
                            "--level", "4", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "domain,p,n,mu1,bound,value,ratio"
    assert len(lines) == 6
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[3]) == pytest.approx(math.pi ** 2, rel=1e-4)
        assert float(parts[6]) <= 1.01


def test_verify_rhombus_golden_rows():
    """Every column at 12 digits."""
    code, out, err = run_cli(["verify-rhombus", "--m", "8,16", "--level", "3",
                              "--format", "csv"])
    assert (code, err) == (0, "")
    assert out == (
        "m,level,mu1,r_m,dn_lower,dn_upper,dn_ok\n"
        "8,3,6.48913088476,2.24413702977,5.78318596295,6.77542380674,true\n"
        "16,3,5.94489230738,2.05592292742,5.78318596295,6.01200424997,true\n")


# every column at 12 digits, on domains whose mu1 is simple: a double mu1
# (square, hexagon, octagon) leaves the chiti and rholder rows to the
# eigensolver's choice of vector in the eigenspace
GOLDEN_CSV = {
    "bound": (
        "bound --domain rectangle --a 3 --b 1",
        "domain,p,n,k_value,rule,area,width,diameter,main,ashbaugh_mercado,"
        "payne_weinberger,bct_corollary,symmetric_planar\n"
        "rectangle_3x1,2,2,0.816496580928,symmetric-convex-width,3,1,"
        "3.16227766017,0.642576218105,0.444444444444,0.986960440109,"
        "0.501326152806,0.642576218105\n"),
    "compare-bounds": (
        "compare-bounds --domain rhombus --m 8 --level 3",
        "domain,p,n,mu1,bound,value,ratio\n"
        "rhombus_8,2,2,6.48913088476,main,5.78318596295,0.891211175372\n"
        "rhombus_8,2,2,6.48913088476,ashbaugh_mercado,4,0.616415367641\n"
        "rhombus_8,2,2,6.48913088476,payne_weinberger,2.89074020145,"
        "0.445474171008\n"
        "rhombus_8,2,2,6.48913088476,bct_corollary,4.51193537525,"
        "0.695306575777\n"
        "rhombus_8,2,2,6.48913088476,symmetric_planar,5.78318596295,"
        "0.891211175372\n"),
    "chiti": (
        "chiti --domain rectangle --a 2 --b 1 --q 2 --level 3",
        "domain,p,q,lhs,rhs,max_violation,mesh_level,s_at_max,"
        "comparison_measure,positive_measure,lemma_violated,margin\n"
        "rectangle_2x1,2,2,0,0,0,3,0,0.578560444556,1,false,0.112308809415\n"),
    "rholder": (
        "rholder --domain rhombus --m 16 --q 4 --r 2 --level 3",
        "domain,p,q,r,lhs,rhs,max_violation,mesh_level,constant,ok\n"
        "rhombus_16,2,4,2,1.28772452005,1.29626515175,0,3,1.83319575804,"
        "true\n"),
    "bound-polygon": (
        "bound --domain polygon --k 8 --radius 0.37",
        "domain,p,n,k_value,rule,area,width,diameter,main,ashbaugh_mercado,"
        "payne_weinberger,bct_corollary,symmetric_planar\n"
        "polygon_8_r0.37,2,2,1.55377397403,symmetric-convex-width,"
        "0.387211673378,0.683670854058,0.74,18.0286997338,12.469735436,"
        "18.0233827631,14.0656601084,18.0286997338\n"),
    "compare-bounds-polygon": (
        "compare-bounds --domain polygon --k 6 --level 3",
        "domain,p,n,mu1,bound,value,ratio\n"
        "polygon_6_r1,2,2,4.04370800519,main,2.57030487242,0.635630680831\n"
        "polygon_6_r1,2,2,4.04370800519,ashbaugh_mercado,1.77777777778,"
        "0.439640492215\n"
        "polygon_6_r1,2,2,4.04370800519,payne_weinberger,2.46740110027,"
        "0.610182806747\n"
        "polygon_6_r1,2,2,4.04370800519,bct_corollary,2.00530461122,"
        "0.495907372305\n"
        "polygon_6_r1,2,2,4.04370800519,symmetric_planar,2.57030487242,"
        "0.635630680831\n"),
    "psi-p-off-2": (
        "psi --p 3.7,10 --n 2,32",
        "p,n,psi,psi_p\n"
        "3.7,2,2.00600300391,13.1409524065\n"
        "3.7,32,12.1365532831,10260.1298602\n"
        "10,2,1.50775255457,60.7156613046\n"
        "10,32,5.71890874918,37422402.888\n"),
    "bound-p3": (
        "bound --domain rhombus --m 8 --p 3",
        "domain,p,n,k_value,rule,area,width,diameter,main,ashbaugh_mercado\n"
        "rhombus_8,3,2,1.189207115,symmetric-convex-width,0.707106781187,"
        "0.707106781187,1.84775906502,9.83149840461,2.37037037037\n"),
}


@pytest.mark.parametrize("name", list(GOLDEN_CSV))
def test_golden_csv(name):
    line, expected = GOLDEN_CSV[name]
    code, out, err = run_cli(line.split() + ["--format", "csv"])
    assert (code, err) == (0, "")
    assert out == expected


def test_verify_rhombus_reads_the_main_bound():
    """r_m is 2 mu1 / main and dn_lower is main, with main the bound
    subcommand's value; dn_lower reaches j01 from the Bessel zero, main by
    shooting, and the two routes agree to about 1e-14."""
    code, out, err = run_cli(["verify-rhombus", "--m", "5,8,64", "--level",
                              "3"])
    assert (code, err) == (0, "")
    for row in json.loads(out):
        code, bound_out, _ = run_cli(["bound", "--domain", "rhombus", "--m",
                                      str(row["m"])])
        assert code == 0
        main = json.loads(bound_out)["main"]
        assert row["r_m"] == pytest.approx(2.0 * row["mu1"] / main,
                                           rel=1e-11), row
        assert row["dn_lower"] == pytest.approx(main, rel=1e-10), row


def test_rhombus_main_and_dn_lower_print_one_j01_squared():
    """Both columns are j01^2, one through the shot profile and one through
    the Bessel zero, and they print the same 12 digits."""
    code, out, _ = run_cli(["bound", "--domain", "rhombus", "--m", "8",
                            "--format", "csv"])
    assert code == 0
    header, row = out.splitlines()
    main = dict(zip(header.split(","), row.split(",")))["main"]
    code, out, _ = run_cli(["verify-rhombus", "--m", "8", "--level", "3",
                            "--format", "csv"])
    assert code == 0
    header, row = out.splitlines()
    dn_lower = dict(zip(header.split(","), row.split(",")))["dn_lower"]
    assert main == dn_lower == f"{J01 ** 2:.12g}"


def test_rhombus_mu1_is_the_half_rhombus_mixed_value():
    """The first Neumann mode of the rhombus is odd across the short
    diagonal, so mu1 equals the mixed eigenvalue of the half rhombus; the
    mixed solve on the cut half, an independent mesh and solve, checks the
    identity."""
    code, out, err = run_cli(["verify-rhombus", "--m", "5,8,16,33,64",
                              "--level", "3"])
    assert (code, err) == (0, "")
    for row in json.loads(out):
        m = row["m"]
        mixed = fem.richardson(pipelines.mixed_half_rhombus(m, 2).value,
                               pipelines.mixed_half_rhombus(m, 3).value)
        assert abs(row["mu1"] - mixed) <= 1e-10 * row["mu1"], row


def test_verify_rhombus_at_the_m_cap():
    # the level-1 Neumann pair certifies at m = 4096, and the sandwich
    # reads that mu1, so no second solve can fail the residual gate
    code, out, err = run_cli(["verify-rhombus", "--m", "4096", "--level",
                              "1"])
    assert (code, err) == (0, "")
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["dn_ok"] is True


def test_verify_rhombus_row():
    code, out, _ = run_cli(["verify-rhombus", "--m", "8", "--level", "4"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["m"] == 8
    assert row["r_m"] > 2.0
    assert row["dn_ok"] is True
    assert row["dn_lower"] == pytest.approx(J01 ** 2, rel=1e-11)
    assert row["dn_lower"] <= row["mu1"] <= row["dn_upper"] * 1.01


def test_chiti_row():
    code, out, _ = run_cli(["chiti", "--domain", "square", "--q", "1",
                            "--level", "3"])
    assert code == 0
    row = json.loads(out)
    assert list(row.keys()) == ["domain", "p", "q", "lhs", "rhs",
                                "max_violation", "mesh_level", "s_at_max",
                                "comparison_measure", "positive_measure",
                                "lemma_violated", "margin"]
    assert row["max_violation"] <= 1e-3
    assert row["lemma_violated"] is False


def test_chiti_reports_a_margin():
    # max_violation reads 0 at the s = 0 grid point however wide the
    # domination is; the margin is taken over s > 0 and shows the room
    code, out, _ = run_cli(["chiti", "--domain", "square", "--level", "4",
                            "--q", "4"])
    assert code == 0
    row = json.loads(out)
    assert row["max_violation"] == 0.0 and row["s_at_max"] == 0.0
    assert row["margin"] > 0.0


def test_chiti_margin_zero_is_positive():
    # at q = 50 both normalised cumulatives reach 1.0 on the grid, so the
    # least relative gap is an exact zero; it prints as 0, never -0
    argv = ["chiti", "--domain", "square", "--level", "4", "--q", "50"]
    code, out, _ = run_cli(argv)
    assert code == 0
    margin = json.loads(out)["margin"]
    assert margin == 0.0 and math.copysign(1.0, margin) == 1.0
    code, out, _ = run_cli(argv + ["--format", "csv"])
    assert code == 0
    assert out.splitlines()[1].split(",")[-1] == "0"


def test_rholder_row():
    code, out, _ = run_cli(["rholder", "--domain", "rhombus", "--m", "16",
                            "--q", "4", "--r", "2", "--level", "3"])
    assert code == 0
    row = json.loads(out)
    assert row["ok"] is True
    assert row["max_violation"] == 0.0
    assert row["lhs"] <= row["rhs"]
    code, _, err = run_cli(["rholder", "--domain", "square", "--q", "1",
                            "--r", "2"])
    assert code == 2 and "need 0 < r < q" in err


def test_sturm_row():
    code, out, _ = run_cli(["sturm", "--gamma", "2", "--beta", "1",
                            "--A", "1", "--N", "512"])
    assert code == 0
    row = json.loads(out)
    assert row["sigma1"] == pytest.approx(J01 ** 2 / 4.0, rel=1e-3)
    problem = sturm1d.SturmProblem(gamma=2.0, beta=1.0, length=1.0,
                                   n_cells=512)
    assert row["hardy_lower_bound"] == pytest.approx(
        problem.hardy_lower_bound, rel=1e-11)
    assert row["iterations"] >= 1


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "table.json"
    code, out, _ = run_cli(["bound", "--domain", "square",
                            "--out", str(target)])
    assert code == 0
    assert out == ""
    _, direct, _ = run_cli(["bound", "--domain", "square"])
    assert target.read_text(encoding="utf-8") == direct
    # an unwritable target is a usage error, not a computation failure
    missing = tmp_path / "no-such-dir" / "table.json"
    code, out, err = run_cli(["bound", "--domain", "square",
                              "--out", str(missing)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output file: ")
    assert len(err.splitlines()) == 1 and not missing.exists()


def test_byte_determinism():
    for argv in (["psi", "--p", "2,3,4", "--n", "2,3"],
                 ["bound", "--domain", "rhombus", "--m", "16"],
                 ["sturm", "--gamma", "1.5", "--beta", "0.8", "--A", "1",
                  "--N", "256"]):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second


class _NoSolves(bounds.SharedSolves):
    """A memo whose every eigen solve fails the test."""

    def neumann(self, spec, level):
        raise AssertionError(f"solved {spec.label} at level {level}")


def test_exponent_is_refused_before_any_solve():
    for argv in (["chiti", "--domain", "square", "--q", "60",
                  "--level", "7"],
                 ["rholder", "--domain", "square", "--q", "60", "--r", "1",
                  "--level", "7"]):
        out, err = io.StringIO(), io.StringIO()
        code = cli.dispatch(argv, out=out, err=err, solves=_NoSolves())
        assert (code, out.getvalue(), err.getvalue()) == (
            2, "", "error: exponent must lie in (0, 50], got 60.0\n")


def test_usage_errors(capsys):
    # argparse's rejections come back as one line on the err stream
    for argv, text in (([], "required: command"),
                       (["no-such-command"], "invalid choice"),
                       (["bound"], "required: --domain"),
                       (["bound", "--domain", "square", "--p", "x"],
                        "invalid float value: 'x'"),
                       (["verify-rhombus", "--level", "0"], "got 0"),
                       (["chiti", "--domain", "square", "--level", "1",
                         "--q", "1100"], "(0, 50], got 1100.0"),
                       # far past the cap the eigen solve cannot be
                       # certified; the cap refuses m before any mesh
                       (["compare-bounds", "--domain", "rhombus", "--m",
                         "100000000", "--level", "2"],
                        "m <= 4096, got 100000000"),
                       (["verify-rhombus", "--m", "8,4097", "--level", "1"],
                        "m <= 4096, got 4097"),
                       # a list flag with no value is refused by its parser
                       (["psi", "--p", ","], "argument --p: expected at "
                        "least one value, got ','"),
                       (["psi", "--n", ","], "argument --n: expected at "
                        "least one value, got ','"),
                       (["verify-rhombus", "--m", ","], "argument --m: "
                        "expected at least one value, got ','")):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and text in err
        assert len(err.splitlines()) == 1
        assert capsys.readouterr().err == ""
    code, _, err = run_cli(["bound", "--domain", "rectangle"])
    assert code == 2 and "rectangle needs --a and --b" in err
    code, _, err = run_cli(["bound", "--domain", "polygon", "--k", "5"])
    assert code == 2 and "error:" in err
    # a size flag the domain does not take is refused, not ignored
    for argv, text in (
            (["bound", "--domain", "square", "--a", "3", "--b", "1"],
             "square does not take --a, --b"),
            (["compare-bounds", "--domain", "rhombus", "--m", "8",
              "--radius", "2"], "rhombus does not take --radius"),
            (["chiti", "--domain", "polygon", "--k", "6", "--m", "8"],
             "polygon does not take --m"),
            (["rholder", "--domain", "rectangle", "--a", "2", "--b", "1",
              "--k", "6"], "rectangle does not take --k")):
        code, out, err = run_cli(argv)
        assert (code, out, err) == (2, "", f"error: {text}\n")
    # non-finite floats and list items are rejected while parsing
    for argv in (["bound", "--domain", "square", "--p", "nan"],
                 ["sturm", "--gamma", "2", "--beta", "1", "--A", "inf"],
                 ["psi", "--p", "2,-inf"],
                 ["verify-rhombus", "--m", "8,x"]):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert "Traceback" not in err + capsys.readouterr().err
    # lengths and radii outside the validated range [1e-6, 1e6] are usage
    # errors; past the ceiling they used to overflow and exit 1
    for argv in (["sturm", "--gamma", "2", "--beta", "1", "--A", "1e-300"],
                 ["bound", "--domain", "polygon", "--k", "4",
                  "--radius", "1e-320"],
                 ["bound", "--domain", "rectangle", "--a", "1",
                  "--b", "1e-7"],
                 ["sturm", "--gamma", "2", "--beta", "1", "--A", "1e300",
                  "--N", "64"],
                 ["bound", "--domain", "polygon", "--k", "8",
                  "--radius", "1e200"],
                 ["bound", "--domain", "rectangle", "--a", "1e160",
                  "--b", "1e160"],
                 ["bound", "--domain", "rectangle", "--a", "1.0000001e6",
                  "--b", "1"]):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert "1e-06" in err and "1e+06" in err
        assert "Traceback" not in err
    for argv in (["sturm", "--gamma", "2", "--beta", "1", "--A", "1e6",
                  "--N", "64"],
                 ["bound", "--domain", "polygon", "--k", "8",
                  "--radius", "1e6"],
                 ["bound", "--domain", "rectangle", "--a", "1e6",
                  "--b", "1e6"]):
        assert run_cli(argv)[::2] == (0, "")
    for sub in ("sturm", "bound"):
        code, out, _ = run_cli([sub, "--help"])
        assert code == 0 and "in [1e-06, 1e+06]" in out
    for sub in ("chiti", "rholder"):
        code, out, _ = run_cli([sub, "--help"])
        assert code == 0 and "exponent in (0, 50]" in out
    for sub in ("bound", "compare-bounds", "verify-rhombus", "chiti",
                "rholder"):
        code, out, _ = run_cli([sub, "--help"])
        assert code == 0 and "in [5, 4096]" in out
    # near-degenerate rhombi below the m cap fail the residual gate at
    # once, on one line
    for argv in (["compare-bounds", "--domain", "rhombus", "--m", "4096",
                  "--level", "2"],
                 ["compare-bounds", "--domain", "rhombus", "--m", "1000",
                  "--level", "4"],
                 # a 1e9:1 rectangle used to pass with a negative mu1
                 ["chiti", "--domain", "rectangle", "--a", "1000",
                  "--b", "1e-6", "--level", "3"]):
        start = time.perf_counter()
        code, out, err = run_cli(argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "residual" in err
        assert "Traceback" not in err
    # at levels 1 and 2 the same rectangle's shifted stiffness is singular
    for level in ("1", "2"):
        code, out, err = run_cli(["chiti", "--domain", "rectangle",
                                  "--a", "1000", "--b", "1e-6",
                                  "--level", level])
        assert (code, out) == (1, "")
        assert err.startswith("numeric failure: ") and "singular" in err
        assert len(err.splitlines()) == 1


# the size flags each --domain takes, with valid values, written out here
# as the contract rather than read from the parser's tables
SIZE_VALUES = {"m": "8", "a": "2", "b": "1", "k": "6", "radius": "2"}
DOMAIN_TAKES = {"square": (), "rectangle": ("a", "b"), "rhombus": ("m",),
                "polygon": ("k", "radius")}
# the 15 (domain, flag) pairs a domain refuses
STRAY_FLAGS = [(domain, flag) for domain, takes in DOMAIN_TAKES.items()
               for flag in SIZE_VALUES if flag not in takes]


def _size_argv(domain, flags):
    return ["bound", "--domain", domain,
            *(item for flag in flags for item in (f"--{flag}",
                                                  SIZE_VALUES[flag]))]


@pytest.mark.parametrize("domain,flag", STRAY_FLAGS)
def test_every_domain_refuses_a_size_flag_it_does_not_take(domain, flag):
    code, out, err = run_cli(_size_argv(domain,
                                        (*DOMAIN_TAKES[domain], flag)))
    assert (code, out) == (2, "")
    assert err == f"error: {domain} does not take --{flag}\n"


@pytest.mark.parametrize("domain,flags,message", [
    ("rectangle", (), "rectangle needs --a and --b"),
    ("rectangle", ("a",), "rectangle needs --a and --b"),
    ("rectangle", ("b",), "rectangle needs --a and --b"),
    ("rhombus", (), "rhombus needs --m"),
    ("polygon", (), "polygon needs --k"),
    ("polygon", ("radius",), "polygon needs --k"),
])
def test_every_domain_names_the_size_flags_it_needs(domain, flags, message):
    code, out, err = run_cli(_size_argv(domain, flags))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_p_range_is_a_usage_error():
    assert run_cli(["psi", "--p", "10"])[0] == 0
    with warnings.catch_warnings():
        # a warning from the numerics would turn into an exit-1 failure
        warnings.simplefilter("error")
        for argv in (["psi", "--p", "10.5"],
                     ["bound", "--domain", "square", "--p", "1e6"]):
            code, out, err = run_cli(argv)
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1 and "[2, 10]" in err
        for argv in (["psi", "--n", "200"], ["psi", "--n", "2,1"]):
            code, out, err = run_cli(argv)
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1 and "[2, 32]" in err


def test_rholder_with_an_ulp_sized_break_stays_finite():
    # the level-0 16-gon eigenvector has a break at 2.5e-16, where lo**41
    # underflows while (hi/lo)**41 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["rholder", "--domain", "polygon", "--k", "16",
                                  "--level", "0", "--q", "40", "--r", "0.001"])
    assert (code, err) == (0, "")
    row = json.loads(out)
    assert math.isfinite(row["lhs"]) and row["ok"] is True


def test_overflow_is_one_exit_1_line():
    # on a 1e-6 square u ~ 1e6, so u^(q+2) overflows at q = 50: the
    # invocation fails on one line instead of printing NaN after warnings
    tiny = ["--domain", "rectangle", "--a", "1e-6", "--b", "1e-6",
            "--level", "2", "--q", "50"]
    for argv in (["chiti", *tiny], ["rholder", *tiny, "--r", "1"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv)
        assert (code, out, caught) == (1, "", [])
        assert err.startswith("failure: FloatingPointError: overflow")
        assert len(err.splitlines()) == 1


def test_rholder_constant_overflow_is_one_numeric_failure():
    # L^(1/q - 1/r) leaves the float range for small r
    for argv in (["rholder", "--domain", "square", "--level", "3",
                  "--q", "1", "--r", "0.001"],
                 ["rholder", "--domain", "rectangle", "--a", "1e-6",
                  "--b", "1e-6", "--q", "1", "--r", "0.01", "--level", "0"]):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith("numeric failure: reverse Holder constant")
        assert len(err.splitlines()) == 1


def test_size_budget_refused_before_building():
    for argv in (["compare-bounds", "--domain", "polygon", "--k", "64",
                  "--level", "10"],
                 ["sturm", "--gamma", "1.5", "--beta", "0.75", "--A", "1",
                  "--N", "100000000"],
                 # at gamma = 2 the residual grows like N^2 and certifies
                 # up to 4096 cells only
                 ["sturm", "--gamma", "2", "--beta", "1", "--A", "1",
                  "--N", "4097"]):
        start = time.perf_counter()
        code, out, err = run_cli(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
    for argv, text in ((["psi", "--help"], "[2, 10]"),
                       (["psi", "--help"], "[2, 32]"),
                       (["bound", "--help"], "[2, 10]"),
                       (["chiti", "--help"], "262144"),
                       (["sturm", "--help"], "65536"),
                       (["sturm", "--help"], "at most 4096 at gamma 2")):
        code, out, _ = run_cli(argv)
        assert code == 0 and text in out


def test_polygon_vertex_budget(monkeypatch):
    """A k-gon's base mesh has k elements: k past the budget is refused
    when the domain is built, by every subcommand, the mesh-free bound
    included."""
    monkeypatch.setattr(geometry, "MAX_ELEMENTS", 64)
    code, out, err = run_cli(["chiti", "--domain", "polygon", "--k", "1000",
                              "--level", "0"])
    assert (code, out) == (2, "")
    assert err == ("error: a 1000-gon mesh has 1000 elements, past the "
                   "budget of 64; use fewer vertices\n")
    assert run_cli(["bound", "--domain", "polygon", "--k", "1000"]) == (
        2, "", err)


def test_numeric_failure_exit_code(monkeypatch):
    def broken(spec, mu1):
        raise NumericError("synthetic failure")

    monkeypatch.setattr(cli.bounds, "rhombus_sharpness", broken)
    code, out, err = run_cli(["verify-rhombus", "--m", "8", "--level", "3"])
    assert code == 1
    assert out == ""
    assert "numeric failure: synthetic failure" in err


def _reference_below_the_bounds(monkeypatch):
    monkeypatch.setattr(bounds.SharedSolves, "mu1",
                        lambda self, spec, level: 1.0)
    return ["compare-bounds", "--domain", "square", "--level", "1"]


def _newton_cap_reached(monkeypatch):
    # the uncached shooting neither reads nor fills the psi_profile cache
    monkeypatch.setattr(special, "psi_profile", special.psi_profile.__wrapped__)
    monkeypatch.setattr(special, "_NEWTON_CAP", 1)
    return ["psi", "--p", "3", "--n", "2"]


def _march_step_cap_reached(monkeypatch):
    monkeypatch.setattr(special, "psi_profile", special.psi_profile.__wrapped__)
    monkeypatch.setattr(special, "_STEP_CAP", 5)
    return ["psi", "--p", "3", "--n", "2"]


def _descent_step_cap_reached(monkeypatch):
    monkeypatch.setattr(sturm1d, "_MAX_STEPS", 1)
    return ["sturm", "--gamma", "1.5", "--beta", "0.75", "--A", "1",
            "--N", "64"]


def _sigma_below_the_hardy_floor(monkeypatch):
    descent = sturm1d._solve_gradient
    monkeypatch.setattr(sturm1d, "_solve_gradient", lambda problem: (
        dataclasses.replace(descent(problem), sigma=0.0)))
    return ["sturm", "--gamma", "1.5", "--beta", "0.75", "--A", "1",
            "--N", "64"]


def _arpack_fails(monkeypatch):
    def failing(*args, **kwargs):
        raise fem.ArpackError(1)

    monkeypatch.setattr(fem, "eigsh", failing)
    return ["compare-bounds", "--domain", "square", "--level", "1"]


@pytest.mark.parametrize("setup, message", [
    (_reference_below_the_bounds, "numeric failure: lower bound main = "
     "5.78319 exceeds reference mu1 = 1 on rectangle_1x1"),
    (_newton_cap_reached, "numeric failure: Newton found no zero of the "
     "radial profile for p=3.0, n=2"),
    (_march_step_cap_reached, "numeric failure: the DOP853 march of the "
     "radial profile reached its cap of 5 steps at r = "),
    (_descent_step_cap_reached, "numeric failure: quotient minimization "
     "did not settle within 1 steps: last value "),
    (_sigma_below_the_hardy_floor, "numeric failure: computed eigenvalue "
     "fell below the scale-invariant lower bound: 0.0 < "),
    (_arpack_fails, "numeric failure: ARPACK failed: ARPACK error 1: "),
])
def test_numeric_refusals_exit_1_on_one_line(monkeypatch, setup, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(setup(monkeypatch))
    assert (code, out) == (1, "")
    assert err.startswith(message) and len(err.splitlines()) == 1


def test_suite_ok(tmp_path):
    path = tmp_path / "runs.txt"
    path.write_text(
        "# comment line\n"
        "\n"
        "psi --p 2 --n 2\n"
        "bound --domain square\n",
        encoding="utf-8")
    code, out, _ = run_cli(["suite", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert "# line 3 ok: psi --p 2 --n 2" in lines
    assert "# line 4 ok: bound --domain square" in lines
    assert lines[-1] == "# suite: 2 runs, 0 failures"
    # per-line buffering puts the psi table before its status line
    assert out.index("p,n,psi,psi_p") < out.index("# line 3")


def test_suite_reports_failures(tmp_path):
    path = tmp_path / "runs.txt"
    path.write_text(
        "psi --p 2 --n 2\n"
        "bound --domain polygon --k 5\n"
        "suite nested.txt\n",
        encoding="utf-8")
    code, out, _ = run_cli(["suite", str(path)])
    assert code == 1
    assert "# line 1 ok" in out
    assert "# line 2 fail(2)" in out
    assert "# line 3 fail(2): suite nested.txt: nested suite lines" in out
    assert out.splitlines()[-1] == "# suite: 3 runs, 2 failures"


def test_suite_help_lands_in_its_stream(tmp_path, capsys):
    # argparse prints help through sys.stdout; dispatch points that at out
    path = tmp_path / "runs.txt"
    path.write_text("psi --help\n", encoding="utf-8")
    code, out, err = run_cli(["suite", str(path)])
    assert (code, err) == (0, "")
    assert capsys.readouterr() == ("", "")
    assert out.index("usage: spectral-bounds psi") < out.index(
        "# line 1 ok: psi --help")
    assert out.splitlines()[-1] == "# suite: 1 runs, 0 failures"


def test_suite_usage_errors_stay_in_their_status_line(tmp_path, capsys):
    # a line that shlex cannot split fails alone: the lines after it run
    path = tmp_path / "runs.txt"
    path.write_text("bound\nbound --domain 'square\n"
                    "bound --domain square --p x\n", encoding="utf-8")
    code, out, err = run_cli(["suite", str(path)])
    assert (code, err) == (1, "")
    assert capsys.readouterr().err == ""
    assert out.splitlines() == [
        "# line 1 fail(2): bound: error: the following arguments are "
        "required: --domain",
        "# line 2 fail(2): bound --domain 'square: error: cannot split "
        "line: No closing quotation",
        "# line 3 fail(2): bound --domain square --p x: error: argument --p: "
        "invalid float value: 'x'",
        "# suite: 3 runs, 3 failures"]


def test_suite_empty_and_missing(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n\n", encoding="utf-8")
    code, out, _ = run_cli(["suite", str(empty)])
    assert code == 0
    assert out == "# suite: 0 runs, 0 failures\n"
    assert run_cli(["suite", str(tmp_path / "missing.txt")])[0] == 2


def test_suite_file_not_utf8(tmp_path):
    # undecodable bytes are a file that cannot be read: one line, exit 2
    path = tmp_path / "runs.txt"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(["suite", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("cannot read suite file: 'utf-8' codec can't "
                          "decode byte 0xff")
    assert len(err.splitlines()) == 1


def test_suite_byte_order_mark(tmp_path):
    # editors that save UTF-8 with a BOM must not break the first line
    path = tmp_path / "runs.txt"
    path.write_bytes(b"\xef\xbb\xbfpsi --p 2 --n 2\n")
    code, out, err = run_cli(["suite", str(path)])
    assert (code, err) == (0, "")
    assert out.splitlines() == ["p,n,psi,psi_p",
                                "2,2,2.4048255577,5.78318596295",
                                "# line 1 ok: psi --p 2 --n 2",
                                "# suite: 1 runs, 0 failures"]


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands(tmp_path):
    """The README's command block, as the CI step runs it: every
    `spectral-bounds` line but the suite one exits 0, and a suite file of
    those lines runs them all without a failure."""
    lines = [match.strip() for match in re.findall(
        r"^spectral-bounds ([^#\n]*)", README.read_text(encoding="utf-8"),
        flags=re.MULTILINE)]
    runs = [line for line in lines if not line.startswith("suite ")]
    assert len(runs) == 8 and len(lines) == 9
    for line in runs:
        code, _, err = run_cli(line.split())
        assert (code, err) == (0, ""), line
    path = tmp_path / "runs.txt"
    path.write_text("".join(f"{line}\n" for line in runs), encoding="utf-8")
    code, out, _ = run_cli(["suite", str(path)])
    assert code == 0
    assert out.splitlines()[-1] == "# suite: 8 runs, 0 failures"


def test_suite_deterministic(tmp_path):
    path = tmp_path / "runs.txt"
    path.write_text(
        "psi --p 2,3 --n 2\n"
        "bound --domain rhombus --m 8\n"
        "sturm --gamma 2 --beta 1 --A 1 --N 256\n",
        encoding="utf-8")
    assert run_cli(["suite", str(path)]) == run_cli(["suite", str(path)])


# lines that ask for the same (domain, level) keys: four distinct eigen
# solves (square L3 and L4, rhombus 8 L2 and L3) where the lines run one
# by one need nine
SHARED_LINES = ["compare-bounds --domain square --level 4",
                "chiti --domain square --level 4",
                "rholder --domain square --level 3 --q 3 --r 1",
                "verify-rhombus --m 8 --level 3",
                "compare-bounds --domain rhombus --m 8 --level 3",
                "chiti --domain square --level 3 --format csv"]


def _counting_splu(monkeypatch):
    calls = []
    factor = fem.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(fem, "splu", counted)
    return calls


def test_suite_shares_solves_across_lines(tmp_path, monkeypatch):
    path = tmp_path / "shared.txt"
    path.write_text("\n".join(SHARED_LINES) + "\n", encoding="utf-8")
    expected = ""
    for lineno, line in enumerate(SHARED_LINES, start=1):
        code, out, _ = run_cli(line.split())
        assert code == 0
        expected += out + f"# line {lineno} ok: {line}\n"
    expected += f"# suite: {len(SHARED_LINES)} runs, 0 failures\n"
    calls = _counting_splu(monkeypatch)
    code, out, err = run_cli(["suite", str(path)])
    assert (code, out, err) == (0, expected, "")
    assert len(calls) == 4


def test_suite_memo_keys_are_exact(tmp_path, monkeypatch):
    """Two rectangles that both print as rectangle_1x1 are two domains:
    each line factors its own chain and prints its own mu1."""
    lines = [f"compare-bounds --domain rectangle --a {a} --b 1 --level 3 "
             "--format csv" for a in ("1", "1.0000000001")]
    path = tmp_path / "near.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    calls = _counting_splu(monkeypatch)
    code, out, err = run_cli(["suite", str(path)])
    assert (code, err) == (0, "")
    mu1s = [row.split(",")[3] for row in out.splitlines()
            if row.startswith("rectangle_1x1,")]
    assert mu1s == ["9.87375783067"] * 5 + ["9.87375782968"] * 5
    assert len(calls) == 4


def test_failed_solve_fails_every_line_that_needs_it(tmp_path, monkeypatch):
    # the level-4 Neumann solve of this thin rhombus fails its residual
    # gate; all three lines need it, and it is attempted once
    lines = [f"{sub} --domain rhombus --m 1000 --level 4"
             for sub in ("compare-bounds", "rholder", "chiti")]
    path = tmp_path / "failing.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    calls = _counting_splu(monkeypatch)
    code, out, err = run_cli(["suite", str(path)])
    assert code == 1 and err == ""
    status = out.splitlines()
    assert status[-1] == "# suite: 3 runs, 3 failures"
    messages = {line.split(": ", 1)[1].split(": ", 1)[1]
                for line in status[:-1]}
    assert len(status) == 4 and len(messages) == 1
    message = messages.pop()
    assert message.startswith("numeric failure:") and "residual" in message
    assert "Traceback" not in out
    assert len(calls) == 2   # level 3, and the failing level 4


def test_dispatch_reuses_the_callers_solves(monkeypatch):
    argv = ["compare-bounds", "--domain", "square", "--level", "3"]
    calls = _counting_splu(monkeypatch)
    solves = bounds.SharedSolves()
    first = cli.dispatch(argv, out=io.StringIO(), solves=solves)
    assert (first, len(calls)) == (0, 2)
    out = io.StringIO()
    assert cli.dispatch(argv, out=out, solves=solves) == 0
    assert len(calls) == 2
    # without a memo, dispatch starts from a fresh one
    assert run_cli(argv) == (0, out.getvalue(), "")
    assert len(calls) == 4


def test_solves_are_dropped_when_dispatch_returns(monkeypatch):
    refs = []
    solve = fem.solve_neumann_mu1

    def tracked(mesh):
        pair = solve(mesh)
        refs.append(weakref.ref(pair))
        return pair

    monkeypatch.setattr(fem, "solve_neumann_mu1", tracked)
    gc.disable()   # reference counting alone must free them
    try:
        assert run_cli(["chiti", "--domain", "square", "--level", "3"])[0] == 0
        assert run_cli(["compare-bounds", "--domain", "square",
                        "--level", "3"])[0] == 0
        assert len(refs) == 3
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_parser_built_once_per_process(monkeypatch):
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for argv in (["bound", "--domain", "square"], ["psi", "--n", "2,3"],
                 ["bound", "--domain", "rhombus", "--m", "8"], ["nope"]):
        run_cli(argv)
    assert len(calls) == 1

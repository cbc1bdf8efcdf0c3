import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dodesym import cli
from dodesym.dods import DodsError

PKG_ROOT = Path(__file__).resolve().parents[1]


def run_python(*argv: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PKG_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, cwd=PKG_ROOT, timeout=300,
    )


def run_cli(*args: str):
    return run_python("-m", "dodesym", *args)


#: the command line with numpy blocked, so that importing it raises
BLOCK_NUMPY = ('import sys; sys.modules["numpy"] = None; '
               'from dodesym.cli import main; sys.exit(main(sys.argv[1:]))')


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "system.txt"
    path.write_text(
        "f = (y-ym)*sin(dy)+dym\n"
        "g = x-(1+dy^2)\n"
        "delay = state\n"
    )
    return str(path)


@pytest.fixture
def drift_file(tmp_path):
    path = tmp_path / "drift.txt"
    path.write_text(
        "f = dy - dym\n"
        "g = x - 1\n"
        "delay = constant\n"
    )
    return str(path)


class TestRoots:
    def test_pure_square_case(self):
        proc = run_cli("roots", "--alpha", "0", "--beta", "1", "--gamma", "0",
                       "--C", "1", "--range", "-3,3")
        assert proc.returncode == 0
        assert "lambda = -1" in proc.stdout
        assert "lambda = 1" in proc.stdout

    def test_empty_window(self):
        proc = run_cli("roots", "--alpha", "0", "--beta", "1", "--gamma", "0",
                       "--C", "1", "--range", "2,3")
        assert proc.returncode == 0
        assert "no real roots" in proc.stdout

    @pytest.mark.parametrize("alpha,beta,gamma", [("0", "1", "0"),
                                                  ("1", "1", "0.5")])
    def test_wide_window_finds_the_narrow_window_roots(self, alpha, beta,
                                                       gamma):
        # e^(-lambda C) overflows a float once lambda C < -709.8
        common = ("--alpha", alpha, "--beta", beta, "--gamma", gamma,
                  "--C", "1")
        wide = run_cli("roots", *common, "--range=-1000,1000")
        narrow = run_cli("roots", *common, "--range=-3,3")
        assert wide.returncode == 0, wide.stderr
        assert wide.stdout == narrow.stdout
        assert wide.stdout.count("lambda = ") == 2

    def test_window_near_the_float_range(self):
        common = ("--alpha", "0", "--beta", "1", "--gamma", "0", "--C", "1")
        wide = run_cli("roots", *common, "--range=-1e300,1e300")
        narrow = run_cli("roots", *common, "--range=-3,3")
        assert wide.returncode == 0, wide.stderr
        assert wide.stdout == narrow.stdout
        overflow = run_cli("roots", *common, "--range=-1e308,1e308")
        assert overflow.returncode == 1
        assert overflow.stdout.startswith("error: LinearError: window")
        assert overflow.stderr == ""

    def test_missed_refinement_is_an_error(self):
        proc = run_cli("roots", "--alpha", "0", "--beta", "2e10", "--gamma",
                       "0", "--C", "1", "--range=0,2e5")
        assert proc.returncode == 1
        assert "sign change over [141000.0, 141500.0]" in proc.stdout

    @pytest.mark.parametrize("gamma,lines", [
        # gamma = -2e: lambda = 1 is a double root, h(1) = 0.0 exactly
        ("-5.43656365691809",
         ["lambda = 1   exponential-solution residual 4.177e-16"]),
        # gamma = -2e (1 - 1e-6): two roots inside one pair of cells
        ("-5.436558220354433",
         ["lambda = 0.998999583087   exponential-solution residual 5.908e-16",
          "lambda = 1.00099958358   exponential-solution residual 4.435e-16"]),
    ])
    def test_double_root_and_close_pair(self, gamma, lines):
        proc = run_cli("roots", "--alpha", "0", "--beta", "3",
                       f"--gamma={gamma}", "--C", "1", "--range=-3,3")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == lines

    def test_close_pair_inside_the_first_cell(self):
        # the window starts 0.001 below the pair, whose cell ends hold no
        # sign change
        proc = run_cli("roots", "--alpha", "0", "--beta", "3",
                       "--gamma=-5.436558220354433", "--C", "1",
                       "--range=0.998,3")
        assert proc.returncode == 0, proc.stderr
        assert [line.split("   ")[0] for line in proc.stdout.splitlines()] \
            == ["lambda = 0.998999583087", "lambda = 1.00099958358"]

    @pytest.mark.parametrize("n_seed", ["0", "-3"])
    def test_fewer_than_one_cell_is_rejected(self, n_seed):
        proc = run_cli("roots", "--alpha", "0", "--beta", "1", "--gamma", "0",
                       "--C", "1", "--range=-3,3", f"--nseed={n_seed}")
        assert proc.returncode == 1
        assert proc.stdout == (f"error: ValueError: n_seed must be at least"
                               f" 1, got {n_seed}\n")

    @pytest.mark.parametrize("name, value", [("alpha", "nan"), ("C", "inf")])
    def test_non_finite_coefficient_is_refused(self, name, value):
        coefficients = {"alpha": "0", "beta": "1", "gamma": "0", "C": "1",
                        name: value}
        proc = run_cli("roots", *(f"--{k}={v}" for k, v in
                                  coefficients.items()), "--range=-3,3")
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == (f"error: LinearError: {name} must be finite,"
                               f" got {value}\n")

    def test_negative_exponent_value_in_either_spelling(self):
        common = ("--beta", "1", "--gamma", "0.5", "--C", "1")
        split = run_cli("roots", "--alpha", "-3e-05", *common,
                        "--range", "-3,3")
        joined = run_cli("roots", "--alpha=-3e-05", *common, "--range=-3,3")
        assert split.returncode == 0, split.stderr
        assert "lambda = " in split.stdout
        assert split.stdout == joined.stdout


def test_negative_values_join_every_single_valued_option(drift_file):
    # a number or window that starts with a minus sign is a value, as it is
    # after `=`
    cases = [
        (["traffic", "--example", "1", "--alpha", "-1e-1", "--tau", "-2",
          "--v", "1.5", "--A", "-0.5"],
         ["traffic", "--example", "1", "--alpha=-1e-1", "--tau=-2",
          "--v", "1.5", "--A=-0.5"], 1),
        (["integrate", "--system", drift_file, "--phi", "x", "--history",
          "-1,0", "--dy0", "-0.5", "--to", "0.3", "--h", "0.1"],
         ["integrate", "--system", drift_file, "--phi", "x",
          "--history=-1,0", "--dy0=-0.5", "--to", "0.3", "--h", "0.1"], 0),
        (["reduce", "--system", drift_file, "--field", "1;1", "--interval",
          "1.2,1.8", "--guess", "-0.5,1"],
         ["reduce", "--system", drift_file, "--field", "1;1", "--interval",
          "1.2,1.8", "--guess=-0.5,1"], 0),
    ]
    for split_argv, joined_argv, code in cases:
        split, joined = run_cli(*split_argv), run_cli(*joined_argv)
        assert split.returncode == joined.returncode == code, split.stderr
        assert split.stdout == joined.stdout


def test_field_specs_starting_with_minus_are_kept_as_values():
    proc = run_cli("rank", "--fields", "-x;y", "0;1", "-y;x", "--param",
                   "a=1")
    paren = run_cli("rank", "--fields", "(-x);y", "0;1", "(-y);x", "--param",
                    "a=1")
    assert proc.returncode == paren.returncode == 0, proc.stderr
    assert proc.stdout == paren.stdout
    assert "rank Z = 3" in proc.stdout


@pytest.mark.parametrize("option, value", [("--field", "-1;0"),
                                           ("--phi", "-1*x")])
def test_minus_led_field_and_expression_are_values(system_file, drift_file,
                                                   option, value):
    command = (("verify", "--system", system_file) if option == "--field"
               else ("integrate", "--system", drift_file, "--to", "0.5",
                     "--h", "0.1"))
    split = run_cli(*command, option, value)
    joined = run_cli(*command, f"{option}={value}")
    assert split.returncode == joined.returncode == 0, split.stderr
    assert split.stdout == joined.stdout


@pytest.mark.parametrize("fields", [("-x;y", "0;1"), ("0;1", "-x;y")])
def test_bracket_field_starting_with_minus(fields):
    proc = run_cli("bracket", "--fields", *fields)
    paren = run_cli("bracket", "--fields",
                    *(f.replace("-x", "(-x)") for f in fields))
    assert proc.returncode == paren.returncode == 0, proc.stderr
    assert proc.stdout == paren.stdout
    assert "closed under commutation" in proc.stdout


class TestVerify:
    def test_passing_field(self, system_file):
        proc = run_cli("verify", "--system", system_file, "--field", "0;1")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_failing_field_exits_one(self, system_file):
        proc = run_cli("verify", "--system", system_file, "--field", "0;y")
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_a_parameter_named_like_a_coordinate_is_rejected(self, tmp_path,
                                                            capsys):
        path = tmp_path / "shadow.txt"
        path.write_text("f = -ym*y\ng = x - 1\nparam y = 2\n")
        assert cli.main(["verify", "--system", str(path),
                         "--field", "0;y"]) == 1
        assert capsys.readouterr().out == (
            "error: ExprError: parameter 'y' is also an argument\n")


class TestBracketAndRank:
    def test_bracket_table(self):
        proc = run_cli("bracket", "--fields", "0;1", "x;y")
        assert proc.returncode == 0
        assert "[X1, X2] = (1," in proc.stdout

    def test_bracket_failure(self):
        proc = run_cli("bracket", "--fields", "0;x", "1;0")
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    @pytest.mark.parametrize("fields,code,stdout", [
        (("1;0", "x;y", "y;0"), 0, (
            'closed under commutation; span residual 5.551e-16\n'
            '[X1, X2] = (1, -1.791100381e-16, -4.575765255e-16) . basis\n'
            '[X1, X3] = (0, 0, 0) . basis\n'
            '[X2, X3] = (0, 0, 0) . basis\n')),
        (("0;1", "x;y", "x^2;x*y"), 1, (
            'FAIL: bracket [0;1, x^2;x*y] leaves the span'
            ' (residual 3.614e-01)\n')),
    ])
    def test_bracket_stdout_is_pinned(self, fields, code, stdout):
        proc = run_cli("bracket", "--fields", *fields)
        assert proc.returncode == code
        assert proc.stdout == stdout

    def test_rank_report(self):
        proc = run_cli("rank", "--fields", "0;1", "1;0")
        assert proc.returncode == 0
        assert "rank Z = 2" in proc.stdout
        assert "invariant count k = 5" in proc.stdout


class TestCatalog:
    def test_list(self):
        proc = run_cli("catalog", "list")
        assert proc.returncode == 0
        for required in ("A1_1", "A5_1", "A6_3", "TRAFFIC_EX2"):
            assert required in proc.stdout

    def test_show(self):
        proc = run_cli("catalog", "show", "A2_4")
        assert proc.returncode == 0
        assert "f template" in proc.stdout

    def test_check_six_field_entry(self):
        proc = run_cli("catalog", "check", "A6_3")
        assert proc.returncode == 0
        assert proc.stdout.count("PASS") == 6

    def test_unknown_entry(self):
        proc = run_cli("catalog", "check", "A9_9")
        assert proc.returncode == 1
        assert "no catalog entry" in proc.stdout


class TestStartUp:
    # numpy is imported where arrays are made: the catalog listing and the
    # commands that compute on floats alone never load it

    def test_the_catalog_listing_loads_no_numpy(self):
        proc = run_python("-c", """\
import sys
import dodesym.cli
from dodesym import catalog
catalog.list_entries()
print(sorted(m for m in sys.modules if m.partition(".")[0] == "numpy"))
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_the_set_up_loads_four_modules(self):
        # the set-up every CLI call pays, as the benchmark times it
        proc = run_python("-c", """\
import sys
import dodesym
from dodesym import catalog
catalog.list_entries()
print(*sorted(m for m in sys.modules
              if m.partition(".")[0] in ("dodesym", "numpy")))
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "dodesym", "dodesym.catalog", "dodesym.dods", "dodesym.expr",
            "dodesym.symmetry"]

    @pytest.mark.parametrize("args, loaded", [
        (("catalog", "list"), "catalog"),
        (("catalog", "show", "A4_1"), "catalog"),
        (("catalog", "export", "{file}"), "catalog"),
        (("integrate", "--system", "examples/one_step_per_delay.txt", "--phi",
          "1", "--history", "-0.7,0.2", "--to", "2", "--h", "0.9"),
         "integrate"),
        (("roots", "--alpha", "0.2", "--beta", "1", "--gamma", "0.1", "--C",
          "0.5", "--range=-3,3"), "integrate linear"),
    ], ids=lambda v: " ".join(v[:2]) if isinstance(v, tuple) else v)
    def test_a_command_loads_only_the_modules_it_runs(self, args, loaded,
                                                       tmp_path):
        # besides the front end and the three modules under every command
        args = [a.format(file=tmp_path / "catalog.txt") for a in args]
        proc = run_python("-c", """\
import sys
from dodesym.cli import main
code = main(sys.argv[1:])
print(*sorted(m for m in sys.modules
              if m.partition(".")[0] in ("dodesym", "numpy")), file=sys.stderr)
sys.exit(code)
""", *args)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        base = ["cli", "dods", "expr", "symmetry"]
        assert proc.stderr.split() == ["dodesym"] + sorted(
            f"dodesym.{m}" for m in base + loaded.split())

    @pytest.mark.parametrize("args", [
        ("catalog", "list"),
        ("catalog", "show", "A4_1"),
        ("catalog", "export", "{file}"),
        ("integrate", "--system", "examples/one_step_per_delay.txt", "--phi",
         "1", "--history", "-0.7,0.2", "--to", "2", "--h", "0.9"),
        ("roots", "--alpha", "0.2", "--beta", "1", "--gamma", "0.1", "--C",
         "0.5", "--range=-3,3"),
        ("traffic", "--scenario", "examples/platoon.txt"),
    ], ids=lambda args: " ".join(args[:2]))
    def test_float_only_commands_run_without_numpy(self, args, tmp_path):
        file = tmp_path / "catalog.txt"
        args = [a.format(file=file) for a in args]
        want = run_cli(*args)
        written = file.read_bytes() if file.exists() else None
        file.unlink(missing_ok=True)
        got = run_python("-c", BLOCK_NUMPY, *args)
        assert want.returncode == 0, want.stdout + want.stderr
        assert (got.returncode, got.stdout, got.stderr) == (
            want.returncode, want.stdout, want.stderr)
        assert (file.read_bytes() if file.exists() else None) == written

    def test_a_command_that_makes_arrays_needs_numpy(self):
        # the block holds: a sampled check imports numpy, and fails without
        proc = run_python("-c", BLOCK_NUMPY, "catalog", "check", "A1_1")
        assert proc.returncode == 3
        assert "import of numpy halted" in proc.stderr


class TestIntegrate:
    def test_csv_to_file(self, tmp_path, drift_file):
        out = tmp_path / "run.csv"
        proc = run_cli("integrate", "--system", drift_file, "--phi", "x",
                       "--history", "-1,0", "--dy0", "from-phi",
                       "--to", "1.0", "--h", "0.01", "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,dy"
        assert len(lines) == 102  # 100 steps + node at 0 + header

    def test_csv_to_stdout(self, drift_file):
        proc = run_cli("integrate", "--system", drift_file, "--phi", "x",
                       "--history", "-1,0", "--to", "0.5", "--h", "0.1")
        assert proc.returncode == 0
        assert proc.stdout.startswith("x,y,dy")


    def test_one_step_per_delay(self):
        # with h >= tau the first step's last delayed point rounds just past
        # the only node, and reads it
        proc = run_cli("integrate", "--system",
                       "examples/one_step_per_delay.txt", "--phi", "1",
                       "--history", "-0.7,0.2", "--to", "2", "--h", "0.9")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "x,y,dy\n"
            "0.20000000000000001,1,0\n"
            "1.1000000000000001,0.59499999999999997,-0.90000000000000002\n"
            "2,-0.59266250000000009,-1.6785000000000001\n")

    @pytest.mark.parametrize("g, history, to, h, expected", [
        # ten million steps of 1e-7
        ("x - 1e-7", "-1,0", "1", "0.01",
         "the plan from 0 to 1 (tau = 1e-07, h = 0.01) takes 10000000"
         " steps, more than 1000000"),
        # 1e17 + 1 == 1e17: planning the edges would never end
        ("x - 1", "0,1e17", "2e17", "0.001",
         "the plan from 1e+17 to 2e+17 (tau = 1, h = 0.001) takes"
         " 100000000000000000000 steps, more than 1000000"),
        # no end or no step: no step is planned, and no one-row CSV printed
        ("x - 1", "-1,0", "nan", "0.1",
         "the plan from 0 to nan (tau = 1, h = 0.1) is not finite"),
        ("x - 1", "-1,0", "2", "nan",
         "the plan from 0 to 2 (tau = 1, h = nan) is not finite"),
        ("0.5*x", "0.5,1", "inf", "0.1",
         "the plan from 1 to inf (h = 0.1) is not finite"),
        # past 2^53 a step of 1 is half an ulp: from an even mantissa it
        # does not advance x, so the plan would stall between its ends
        ("x - 1", "9007199254740990,9007199254740994", "9007199254741002",
         "1", "a step of 1 (tau = 1, h = 1) does not advance x at"
         " 9.0072e+15"),
    ])
    def test_plan_refused_before_any_step(self, tmp_path, g, history, to, h,
                                          expected):
        path = tmp_path / "system.txt"
        path.write_text(f"f = -ym\ng = {g}\n")
        proc = run_cli("integrate", "--system", str(path), "--phi", "1",
                       "--history", history, "--to", to, "--h", h)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == f"error: StepPlanError: {expected}\n"


@pytest.mark.parametrize("text, field, history, to", [
    pytest.param("f = -ym\ng = 0.5*x\n", "0;y", "0.5,1", "2",
                 id="no-delay-line"),
    pytest.param("f = -ym\ng = x - 1 - 0.1*sin(y)\ndelay = constant\n",
                 "1;0", "-1.2,0", "1", id="constant-line-g-reading-y"),
    pytest.param("f = -ym\ng = x - 1\ndelay = state\n", "0;y", "-1.2,0",
                 "1", id="state-line-constant-g"),
])
def test_g_decides_the_delay_kind_for_verify_and_integrate(
        tmp_path, text, field, history, to):
    path = tmp_path / "system.txt"
    path.write_text(text)
    verify = run_cli("verify", "--system", str(path), "--field", field)
    integrate = run_cli("integrate", "--system", str(path), "--phi", "1",
                        "--history", history, "--to", to, "--h", "0.01")
    assert (verify.returncode, integrate.returncode) == (0, 0), \
        verify.stdout + integrate.stdout
    assert verify.stdout.startswith(f"PASS {field}: ")
    assert integrate.stdout.startswith("x,y,dy\n")


class TestReduce:
    def test_drift_reduction(self, drift_file):
        proc = run_cli("reduce", "--system", drift_file, "--field", "1;1",
                       "--interval", "1.2,1.8")
        assert proc.returncode == 0
        assert "J1 =" in proc.stdout and "B =" in proc.stdout

    def test_empty_interval_is_refused(self, drift_file):
        # a single abscissa could not show the residuals varying with x
        proc = run_cli("reduce", "--system", drift_file, "--field", "1;1",
                       "--interval", "2.2,2.2")
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.splitlines()[-1] == (
            "error: ReduceError: interval must be finite with lo < hi, got"
            " [2.2, 2.2]")


class TestTraffic:
    def test_example_one_pipeline(self):
        proc = run_cli("traffic", "--example", "1", "--v", "1", "--tau",
                       "0.5", "--A", "-1")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
        assert "deviation" in proc.stdout

    def test_negative_alpha_in_either_spelling(self):
        split = run_cli("traffic", "--example", "1", "--alpha", "-1e-1",
                        "--n", "20")
        joined = run_cli("traffic", "--example", "1", "--alpha=-1e-1",
                         "--n", "20")
        assert "expected one argument" not in split.stderr
        assert split.returncode == joined.returncode
        assert split.stdout == joined.stdout
        assert "example 1: ddy = (((-0.1 * dy)" in split.stdout

    def test_example_two_collision_regime(self):
        proc = run_cli("traffic", "--example", "2", "--alpha", "1.0",
                       "--k", "1.0")
        assert proc.returncode == 1
        assert "warning" in proc.stdout

    def test_example_two_collision_regime_allowed(self):
        proc = run_cli("traffic", "--example", "2", "--alpha", "1.0",
                       "--k", "1.0", "--allow-collision-regime")
        assert proc.returncode == 0

    def test_example_two_close_pair_past_the_double_root(self):
        # alpha 1e-8 past the double-root value: two admissible amplitudes
        proc = run_cli("traffic", "--example", "2",
                       "--alpha=-1.417411195305844", "--n1", "3", "--q",
                       "0.25", "--k", "1.5")
        assert proc.returncode == 0, proc.stdout
        roots = [line for line in proc.stdout.splitlines()
                 if line.startswith("  A = ")]
        assert roots == [
            "  A = 0.999942263863  [admissible]  solution residual 1.388e-16",
            "  A = 1.00005773391  [admissible]  solution residual 1.388e-16",
        ]
        assert "warning" not in proc.stdout

    def test_override_the_example_does_not_take_is_rejected(self):
        proc = run_cli("traffic", "--example", "3", "--v", "7")
        assert proc.returncode == 1
        assert proc.stdout == ("error: TrafficError: example 3 takes no v;"
                               " it takes alpha, n, epsilon, tau, k\n")

    def test_scenario_file_with_csv_output(self, tmp_path):
        scenario = tmp_path / "platoon.txt"
        scenario.write_text(
            "leader = 1*t\nalpha = 1.0\nn1 = 1\nn2 = 1\ntau = 0.5\n"
            "cars = 2\nhistory.1 = t - 1\nhistory.2 = t - 2\n"
            "t_end = 1.5\nh = 0.005\n"
        )
        prefix = str(tmp_path / "run")
        proc = run_cli("traffic", "--scenario", str(scenario),
                       "--out-prefix", prefix)
        assert proc.returncode == 0
        assert "no collisions" in proc.stdout
        for i in (1, 2):
            lines = (tmp_path / f"run_car{i}.csv").read_text().splitlines()
            assert lines[0] == "x,y,dy"

    def test_example_platoon_bytes(self, tmp_path):
        # stdout and a sha256 prefix of each per-car CSV of the example
        prefix = str(tmp_path / "run")
        proc = run_cli("traffic", "--scenario", "examples/platoon.txt",
                       "--out-prefix", prefix)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "".join(
            f"car {i}: 501 breakpoints, t in [0, 5]\n"
            f"  wrote {prefix}_car{i}.csv\n" for i in (1, 2, 3, 4)
        ) + "no collisions\n"
        digests = [hashlib.sha256((tmp_path / f"run_car{i}.csv").read_bytes())
                   .hexdigest()[:16] for i in (1, 2, 3, 4)]
        assert digests == ["97583e236b3eff8f", "bb598a11100e222d",
                           "b38998f533af941f", "b833720d46abedd4"]

    @pytest.mark.parametrize("lines,expected", [
        # the first car reaches the leader at a node before its headway
        # collapses, as every other car does
        ("leader = 0.2*t + 1\nn1 = 1\nn2 = 1.5\nhistory.1 = 2*t + 0.5\n"
         "history.2 = t - 1\n", r"collision: car 1 at t = 0\.38\n$"),
        # car 2 passes car 1 at node 0.39, before its delayed headway
        # collapses
        ("leader = t + 10\nn1 = 1\nn2 = 1\nhistory.1 = 0.2*t + 1\n"
         "history.2 = 2*t + 0.5\n",
         r"car 2: 40 breakpoints, t in \[0, 0\.39\]\n"
         r"collision: car 2 at t = 0\.39\n$"),
        # dy^0.5 at a negative velocity has no real value
        ("leader = t + 10\nn1 = 0.5\nn2 = 1\nhistory.1 = t + 5\n"
         "history.2 = -t\n",
         r"^error: StepRejectionError: .* math domain error\n$"),
        # headway^400 underflows to 0.0: a division by zero
        ("leader = t + 10\nn2 = 400\nhistory.1 = t + 9.9\n"
         "history.2 = t + 5\n",
         r"^error: StepRejectionError: right-hand side not evaluable at"
         r" x = 0: float division by zero\n$"),
        # car 2 starts inside the headway floor: collision at its start
        ("leader = t + 10\nn1 = 1\nn2 = 1\nhistory.1 = t + 1\n"
         "history.2 = t + 1 - 1e-7\n",
         r"car 2: 1 breakpoints, t in \[0, 0\]\n"
         r"collision: car 2 at t = 0\n$"),
    ])
    def test_scenario_failure_is_a_failed_check(self, tmp_path, lines,
                                                expected):
        scenario = tmp_path / "platoon.txt"
        scenario.write_text("alpha = 1\ntau = 0.5\ncars = 2\nt_end = 3\n"
                            "h = 0.01\n" + lines)
        proc = run_cli("traffic", "--scenario", str(scenario))
        assert proc.returncode == 1, proc.stderr
        assert re.search(expected, proc.stdout), proc.stdout

    @pytest.mark.parametrize("key, value, expected", [
        ("t_end", "nan", "the plan from 0 to nan (tau = 0.5, h = 0.01) is"
         " not finite"),
        ("tau", "inf", "the plan from 0 to 3 (tau = inf, h = 0.01) is not"
         " finite"),
    ])
    def test_scenario_without_a_finite_plan_is_refused(self, tmp_path, key,
                                                       value, expected):
        # no car is integrated: no one-node cars and no "no collisions"
        lines = {"leader": "t + 10", "alpha": "1", "tau": "0.5", "cars": "2",
                 "t_end": "3", "h": "0.01", "history.1": "t + 5",
                 "history.2": "t", key: value}
        scenario = tmp_path / "platoon.txt"
        scenario.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        proc = run_cli("traffic", "--scenario", str(scenario))
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == f"error: StepPlanError: {expected}\n"

    def test_scenario_with_nan_tau_names_tau(self, tmp_path):
        example = (PKG_ROOT / "examples" / "platoon.txt").read_text()
        scenario = tmp_path / "platoon.txt"
        scenario.write_text(re.sub(r"(?m)^tau = .*$", "tau = nan", example))
        proc = run_cli("traffic", "--scenario", str(scenario))
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == \
            "error: TrafficError: reaction delay tau must be positive\n"

    def test_traffic_needs_example_or_scenario(self):
        proc = run_cli("traffic")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "usage:" in proc.stderr

    @pytest.mark.parametrize("name, value", [("v", "nan"), ("tau", "inf")])
    def test_non_finite_override_is_refused(self, name, value):
        proc = run_cli("traffic", "--example", "1", f"--{name}", value)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == (f"error: TrafficError: {name} must be finite,"
                               f" got {value}\n")
        assert proc.stderr == ""


class TestUsage:
    @pytest.mark.parametrize("sub", ["verify", "bracket", "rank", "catalog",
                                     "integrate", "roots", "reduce",
                                     "traffic"])
    def test_help_exits_zero(self, sub):
        proc = run_cli(sub, "--help")
        assert proc.returncode == 0
        assert "usage" in proc.stdout

    def test_unknown_flag_rejected(self):
        proc = run_cli("roots", "--alpha", "0", "--beta", "1", "--gamma",
                       "0", "--C", "1", "--range", "0,1", "--frobnicate")
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    def test_missing_subcommand(self):
        proc = run_cli()
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [
        pytest.param(("verify", "--system", "examples/one_step_per_delay.txt",
                      "--field", "1"), id="field-without-semicolon"),
        pytest.param(("rank", "--fields", "0;1", "--param", "a"),
                     id="param-without-equals"),
        pytest.param(("catalog", "show"), id="catalog-show-without-id"),
        pytest.param(("traffic", "--example", "1", "--scenario",
                      "examples/platoon.txt"), id="example-and-scenario"),
    ])
    def test_usage_error_exits_two(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "usage:" in proc.stderr


class TestExitCodes:
    """A library error is a failed check (1); any other exception is a bug (3)."""

    def test_malformed_expression_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("f = -ym\ng = x - \n")
        proc = run_cli("verify", "--system", str(path), "--field", "1;0")
        assert proc.returncode == 1
        assert proc.stdout == ("error: DodsError: line 2: unexpected end of"
                               " input at offset 4\n")

    def _main_raising(self, monkeypatch, exc):
        def broken(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_catalog", broken)
        return cli.main(["catalog", "list"])

    def test_library_error_exits_one(self, monkeypatch, capsys):
        assert self._main_raising(monkeypatch, DodsError("no such system")) == 1
        out, err = capsys.readouterr()
        assert out == "error: DodsError: no such system\n"
        assert err == ""

    def test_unexpected_exception_exits_three_with_traceback(
            self, monkeypatch, capsys):
        assert self._main_raising(monkeypatch, TypeError("a bug")) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" in err and "TypeError: a bug" in err

    def test_nesting_past_the_bound_exits_one(self, tmp_path):
        path = tmp_path / "deep.txt"
        path.write_text("f = " + "(" * 600 + "ym" + ")" * 600 + "\ng = x - 1\n")
        proc = run_cli("verify", "--system", str(path), "--field", "1;0")
        assert proc.returncode == 1
        assert proc.stdout == ("error: DodsError: line 1: nesting deeper than"
                               " 100 levels at offset 101\n")

    @pytest.mark.parametrize("f, verdict", [
        pytest.param("-ym + " + " + ".join(f"{k + 1}*dym*x^{k}"
                                           for k in range(399)),
                     "FAIL", id="400-term-sum"),
        pytest.param("sin(" * 99 + "ym*dym" + ")" * 99, "PASS", id="99-calls"),
    ])
    def test_deep_expressions_are_checked(self, tmp_path, f, verdict):
        path = tmp_path / "deep.txt"
        path.write_text(f"f = {f}\ng = x - 1\n")
        proc = run_cli("verify", "--system", str(path), "--field", "1;0")
        assert proc.returncode == (verdict == "FAIL")
        assert proc.stdout.startswith(f"{verdict} 1;0: ")

    @pytest.mark.parametrize("f, field", [
        # prolong's second total derivative of a 100-level power tower
        pytest.param("ym", "x^" * 100 + "y;0", id="100-level-field"),
        # the product rule nests the derivative of a flat 199-factor product
        pytest.param("*".join(["dym*ym^dym"] * 100), "1;0",
                     id="100-copy-product"),
    ])
    def test_too_deep_for_the_walkers_exits_one(self, tmp_path, f, field):
        path = tmp_path / "deep.txt"
        path.write_text(f"f = {f}\ng = x - 1\n")
        proc = run_cli("verify", "--system", str(path), "--field", field)
        assert proc.returncode == 1
        assert proc.stdout == "error: ExprError: expression too deep\n"
        assert proc.stderr == ""

    @pytest.mark.parametrize("terms", [1000, 5000])
    @pytest.mark.parametrize("command", [
        ("verify", "--field", "1;0"),
        ("integrate", "--phi", "1", "--history", "-1,0", "--to", "1"),
    ], ids=["verify", "integrate"])
    def test_long_flat_sums_exit_one(self, tmp_path, terms, command):
        path = tmp_path / "sum.txt"
        path.write_text("f = -ym + " + " + ".join(
            f"{k + 1}*dym*x^{k}" for k in range(terms - 1)) + "\ng = x - 1\n")
        proc = run_cli(command[0], "--system", str(path), *command[1:])
        assert proc.returncode == 1
        assert proc.stdout == "error: ExprError: expression too deep\n"
        assert proc.stderr == ""

    def test_missing_file_exits_one(self, tmp_path):
        proc = run_cli("verify", "--system", str(tmp_path / "absent.txt"),
                       "--field", "0;1")
        assert proc.returncode == 1
        assert proc.stdout.startswith("error: FileNotFoundError:")


def test_the_parser_is_built_once(capsys):
    assert cli._parser() is cli._parser()
    outs = []
    for _ in range(2):
        assert cli.main(["roots", "--alpha", "0", "--beta", "1", "--gamma",
                         "0", "--C", "1", "--range", "-3,3"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "lambda = -1" in outs[0]


class TestDeterminism:
    def test_traffic_example_three_reports_are_byte_identical(self):
        a = run_cli("--seed", "42", "traffic", "--example", "3")
        b = run_cli("--seed", "42", "traffic", "--example", "3")
        assert a.returncode == 0
        assert a.stdout == b.stdout

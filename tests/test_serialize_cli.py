"""JSON round trips, schema errors, and the CLI surface."""

import json
import random
import subprocess
import sys
from fractions import Fraction
import pytest

from padic_hodge.padics import UnramifiedField
from padic_hodge.series import TruncatedSeries
from padic_hodge import seriesops as so
from padic_hodge.modules import modular_form_module
from padic_hodge.generators import split_module
from padic_hodge import serialize as ser
from padic_hodge.errors import SchemaError
from padic_hodge.cli import main, mf_rank_table
from padic_hodge.suites import SUITES, run_suite

from helpers import x_plus_one_power


def test_scalar_roundtrip():
    rng = random.Random(71)
    Q5 = UnramifiedField(5, 1, 20)
    for _ in range(30):
        x = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice([1, 2, 3, 25]))
        s = Q5.scalar(x, 20)
        back = ser.scalar_from_json(ser.scalar_to_json(s), Q5)
        assert (s - back).is_zero and back.prec == s.prec
        assert (back.val, back.res) == (s.val, s.res)
    z = Q5.zero(14)
    back = ser.scalar_from_json(ser.scalar_to_json(z), Q5)
    assert back.is_zero and back.prec == 14


def test_scalar_large_prime_digits():
    Q13 = UnramifiedField(13, 1, 12)
    s = Q13.scalar(Fraction(123456, 7), 12)
    node = ser.scalar_to_json(s)
    assert "." in node["unit"]
    back = ser.scalar_from_json(node, Q13)
    assert (s - back).is_zero


def test_series_roundtrip(K5):
    rng = random.Random(72)
    f = TruncatedSeries.make(K5, [rng.randint(-99, 99) for _ in range(13)],
                             n=12)
    node = ser.series_to_json(f)
    back = ser.series_from_json(node, K5)
    assert back.equals(f) and back.n == f.n and back.tail_zero
    lg = so.log_series(K5, 10)
    node = ser.series_to_json(lg)
    assert node["log_slope"] == 1
    back = ser.series_from_json(node, K5)
    assert back.equals(lg.truncate(10)) and back.effective_bound()[1] == 1


def test_module_roundtrip(K5):
    m = modular_form_module(5, 2, 1, field=K5)
    node = ser.module_to_json(m)
    back = ser.module_from_json(node)
    assert back.d == m.d
    assert back.newton_slopes() == m.newton_slopes()
    assert back.jumps() == m.jumps()
    assert back.universal_norm_rank() == m.universal_norm_rank()


def _json_copy(node):
    return json.loads(json.dumps(node))


def _stable_degrees(m):
    return sorted((S.dimension,) + m.sub_degrees(S)
                  for S in m.phi_stable_subspaces())


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_json_round_trips_keep_every_digit(p, f):
    # series at N = p^2 and p^3, exact, profiled and unbounded, shifted by
    # p^-2..p^2; a split module with distinct slopes keeps its slopes, t_H
    # and stable-subspace degrees
    field = UnramifiedField(p, f, 20)
    rng = random.Random(100 * p + f)
    for n in (p * p, p ** 3):
        for bound, tail_zero in ((None, True), ((1, 1, 2), False),
                                 (None, False)):
            coeffs = [field.element([rng.randrange(p ** 20)
                                     for _ in range(f)])
                      for _ in range(n + 1)]
            s = TruncatedSeries.make(field, coeffs, bound=bound,
                                     tail_zero=tail_zero)._scalar_mul(
                Fraction(p) ** rng.randint(-2, 2))
            back = ser.series_from_json(_json_copy(ser.series_to_json(s)),
                                        field)
            assert (back.n, back.prec, back.effective_bound(),
                    back.tail_zero) == (s.n, s.prec, s.effective_bound(),
                                        s.tail_zero)
            assert [(c.val, c.prec, c.res) for c in back.coefficients()] == \
                [(c.val, c.prec, c.res) for c in s.coefficients()]
    m = split_module(field, rng, d=3)[0]
    back = ser.module_from_json(_json_copy(ser.module_to_json(m)))
    assert back.newton_slopes() == m.newton_slopes()
    assert back.t_H == m.t_H
    assert _stable_degrees(back) == _stable_degrees(m)


def test_module_roundtrip_keeps_work_margin():
    field = UnramifiedField(5, 1, 20, work_margin=140)
    m = modular_form_module(5, 2, 1, field=field)
    back = ser.module_from_json(ser.module_to_json(m))
    assert back.field.work_prec == field.work_prec == 160


def test_schema_errors(tmp_path, K5):
    # singular phi matrix
    bad = {
        "p": 5, "f": 1, "defpoly": [0, 1], "dim": 2,
        "phi": [["1", "1"], ["1", "1"]],
        "filtration": [{"jump": 0, "basis": [["1", "0"], ["0", "1"]]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SchemaError) as exc:
        ser.parse_module_file(path)
    assert "not invertible" in str(exc.value)
    # jumps out of order name the pair
    bad2 = dict(bad)
    bad2["phi"] = [["1", "0"], ["0", "5"]]
    bad2["filtration"] = [
        {"jump": 1, "basis": [["1", "0"], ["0", "1"]]},
        {"jump": 0, "basis": [["1", "0"]]},
    ]
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps(bad2))
    with pytest.raises(SchemaError) as exc:
        ser.parse_module_file(path2)
    assert "out of order" in str(exc.value)
    # malformed scalar
    bad3 = dict(bad)
    bad3["phi"] = [["x", "0"], ["0", "1"]]
    path3 = tmp_path / "bad3.json"
    path3.write_text(json.dumps(bad3))
    with pytest.raises(SchemaError) as exc:
        ser.parse_module_file(path3)
    assert "phi[0][0]" in str(exc.value)


def test_rank_table_function():
    assert [r for _, _, r in mf_rank_table(5, 2, 0, -3, 2)] == [0, 0, 0, 0, 2, 2]
    assert [r for _, _, r in mf_rank_table(5, 2, 1, -3, 2)] == [0, 0, 0, 1, 2, 2]
    assert [r for _, _, r in mf_rank_table(5, 4, 0, -4, 1)] == [0, 0, 0, 0, 0, 2]


def run_cli(*argv):
    from io import StringIO
    import contextlib
    out = StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_cli_rank_table():
    code, out = run_cli("mf-rank-table", "5", "2", "1",
                        "--jmin", "-2", "--jmax", "1")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [int(r[2]) for r in rows] == [0, 0, 1, 2]


def test_cli_presets_and_exit_codes():
    code, _ = run_cli("admissible", "-m", "qp1")
    assert code == 0
    code, _ = run_cli("slopes", "-m", "supersingular")
    assert code == 0
    code, out = run_cli("rank", "-m", "ordinary")
    assert code == 0 and out.strip() == "rank\t1"


def test_cli_admissible_negative_verdict(tmp_path):
    # ordinary module with the filtration forced onto the negative-slope
    # eigenline: exit code 1 and the certificate names the line
    m = modular_form_module(5, 2, 1)
    neg = [S for S in m.phi_stable_subspaces()
           if S.dimension == 1 and m.sub_degrees(S)[1] == Fraction(-1)][0]
    vec = [c.coordinate(0).lift_fraction() for c in neg.basis[0]]
    bad = modular_form_module(5, 2, 1, filtration_line=vec, field=m.field)
    path = tmp_path / "eigenline.json"
    path.write_text(json.dumps(ser.module_to_json(bad)))
    code, out = run_cli("--json", "admissible", "-m", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["witness"]["t_H"] == 0 and payload["witness"]["t_N"] == "-1"


def test_cli_zero_module_answers(tmp_path):
    # the zero module has t_H = t_N = 0 and no nonzero stable subspace: it
    # is weakly admissible with fil1 = 0 and rank 0, not a negative verdict
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"p": 5, "dim": 0, "phi": [],
                                "filtration": [{"jump": 0, "basis": []}]}))
    code, out = run_cli("--json", "admissible", "-m", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True and payload["subspaces"] == []
    code, out = run_cli("fil1", "-m", str(path))
    assert code == 0 and out.startswith("dim\t0")
    code, out = run_cli("rank", "-m", str(path))
    assert code == 0 and out.strip() == "rank\t0"


def test_cli_series_apply(tmp_path, K5):
    f = TruncatedSeries.make(K5, [1, 1], n=10)
    path = tmp_path / "series.json"
    path.write_text(json.dumps(ser.series_to_json(f)))
    code, out = run_cli("series", "apply", "--op", "phi", "--in", str(path))
    assert code == 0
    back = ser.series_from_json(json.loads(out), K5)
    assert back.equals(x_plus_one_power(K5, 5, back.n))
    code, out = run_cli("series", "apply", "--op", "gamma", "--c", "7",
                        "--in", str(path))
    assert code == 0


def test_cli_series_apply_psi_d_ell(tmp_path, K5):
    def apply(op, series, *extra):
        path = tmp_path / f"{op}.json"
        path.write_text(json.dumps(ser.series_to_json(series)))
        code, out = run_cli("series", "apply", "--op", op, "--in", str(path),
                            *extra)
        assert code == 0
        return ser.series_from_json(json.loads(out), K5)

    f = TruncatedSeries.make(K5, [1, 1], n=10)
    # psi(phi(f)) = f, and D(1 + x) = 1 + x
    assert apply("psi", so.phi_op(f)).truncate(f.n).equals(f)
    assert apply("D", f).equals(f)
    # ell_j = log(1+x) D - j on 1 + x, whose psi is zero; j defaults to 0
    for extra, j in (((), 0), (("--j", "1"), 1)):
        assert apply("ell", f, *extra).equals(so.ell_op(f, j))


def test_cli_series_order(tmp_path, K5):
    lp = so.LogPolynomial({2: TruncatedSeries.make(K5, [7], n=4)})
    path = tmp_path / "lp.json"
    path.write_text(json.dumps(ser.logpoly_to_json(lp)))
    code, out = run_cli("series", "order", "--in", str(path))
    assert code == 0 and out.startswith("growth_order\t2")


def test_cli_series_order_estimate(tmp_path, K5):
    # a plain series has no exact order: the CLI prints a slope estimate
    path = tmp_path / "series.json"
    path.write_text(json.dumps(ser.series_to_json(
        TruncatedSeries.make(K5, [1, 1], n=10))))
    code, out = run_cli("series", "order", "--in", str(path))
    assert code == 0 and out == "growth_order_estimate\t[0, 0]\testimate\n"
    code, out = run_cli("series", "order", "--in", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {"interval": ["0", "0"], "exact": False}


@pytest.mark.parametrize("module, code, verdict", [
    ("supersingular", 0, "True"), ("ordinary", 1, "False")])
def test_cli_ncond(module, code, verdict):
    got, out = run_cli("ncond", "-m", module, "--j", "0")
    assert got == code and out.startswith(f"condition_N_0\t{verdict}\n")


@pytest.mark.parametrize("argv, code, verdict", [
    (["--which", "wronskian", "--synthetic-mode", "adapted"], 1,
     "not forced"),
    (["--which", "dim2-det"], 2, "inconclusive"),
], ids=["not-forced", "inconclusive"])
def test_cli_contradict_exit_codes(tmp_path, K5, argv, code, verdict):
    # a split module with jumps at its slopes 0 and -1: the Wronskian of an
    # adapted member has log order 0, no more than its order bound, and the
    # dim-2 determinant's log bound cannot be decided at N = 125
    m, slopes, _ = split_module(K5, random.Random(5), 2, "wa")
    assert sorted(slopes) == [-1, 0]
    path = tmp_path / "split.json"
    path.write_text(json.dumps(ser.module_to_json(m)))
    got, out = run_cli("contradict", "-m", str(path), "--seed", "1", *argv)
    assert got == code and f"verdict\t{verdict}\n" in out


def test_cli_contradict_preset():
    code, out = run_cli("contradict", "-m", "supersingular",
                        "--which", "dim2-det", "--seed", "5")
    assert code == 0
    assert "order_upper\t1" in out and "log_lower\t2" in out
    assert "forced zero" in out


def test_cli_verify_and_determinism():
    code1, out1 = run_cli("verify", "tilde", "--count", "3", "--seed", "9")
    code2, out2 = run_cli("verify", "tilde", "--count", "3", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_a_short_run(name):
    rep = run_suite(name, seed=1, count=2)
    assert rep.passed and rep.cases


def test_cli_verify_contradiction_reports_undecided_case(tmp_path):
    # p = 3, N = 81, seed 1: case 1 cannot decide its log bound; the suite
    # prints every case and fails on that one instead of exiting 2
    path = tmp_path / "p3.json"
    path.write_text(json.dumps({"p": 3, "truncation": 81}))
    code, out = run_cli("verify", "contradiction", "--config", str(path),
                        "--seed", "1", "--count", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[3] == ("case 1\twronskian-strict\tFAIL\ttH=-9 tN=-5 "
                        "verdict=inconclusive upper=4 lower=0")
    assert lines[-1] == "result\tFAIL\t4 cases, 1 failures"


def test_cli_verify_divisibility_reports_undecided_case(tmp_path):
    # p = 3 at the default truncation 27: case 11's determinant cannot be
    # decided at layer 1; the suite prints every case and fails on that one
    # instead of exiting 2
    path = tmp_path / "p3_n27.json"
    path.write_text(json.dumps({"p": 3}))
    code, out = run_cli("verify", "divisibility", "--config", str(path),
                        "--count", "3")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 2 + 13 + 1
    assert lines[13] == ("case 11\tdet-log-divisibility\tFAIL\tinconclusive: "
                         "certainty -14 below decision threshold 1; raise "
                         "the truncation degree")
    assert lines[-1] == "result\tFAIL\t13 cases, 1 failures"


def test_cli_twist_tensor_wedge_tilde(tmp_path):
    code, out = run_cli("twist", "-m", "qp1", "--k", "1")
    assert code == 0
    node = json.loads(out)
    m = ser.module_from_json(node)
    assert m.jumps() == [-2]
    code, out = run_cli("tensor", "qp1", "qp1")
    assert code == 0
    node = json.loads(out)
    assert ser.module_from_json(node).t_H == -2
    code, out = run_cli("wedge", "-m", "supersingular", "--v", "2")
    assert code == 0
    assert ser.module_from_json(json.loads(out)).d == 1
    code, out = run_cli("tilde", "-m", "supersingular", "--k", "0")
    assert code == 0
    assert ser.module_from_json(json.loads(out)).jumps() == [-1]


def test_cli_amember(tmp_path, K5):
    m = modular_form_module(5, 2, 0)
    import padic_hodge.generators as gen
    rng = random.Random(73)
    g = gen.synthetic_member(m, rng, 125, mode="deep")
    gpath = tmp_path / "vec.json"
    gpath.write_text(json.dumps(
        {"components": [ser.series_to_json(c) for c in g.components]}))
    mpath = tmp_path / "mod.json"
    mpath.write_text(json.dumps(ser.module_to_json(m)))
    code, out = run_cli("amember", "-m", str(mpath), "--series", str(gpath),
                        "--v", "0", "--J", "0", "--r", "0", "--nmax", "1")
    assert code in (0, 1)  # the order estimate may withhold a full verdict
    assert "j=0\tn=1\tvanish\tmember" in out
    # the estimate is a report: amember computes it for this line alone
    note = ("estimate unavailable: tail bound -87/50 does not exceed the "
            "tracked minimum -3/4")
    assert f"phi_order\tunavailable\t{note}\n" in out
    code_json, out_json = run_cli("amember", "-m", str(mpath), "--series",
                                  str(gpath), "--v", "0", "--J", "0", "--r",
                                  "0", "--nmax", "1", "--json")
    assert code_json == code
    assert json.loads(out_json)["order"] == {"exact": False,
                                             "interval": None, "note": note}


def test_cli_error_exit_code(tmp_path):
    code, _ = run_cli("slopes", "-m", str(tmp_path / "missing.json"))
    assert code == 2


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "padic_hodge.cli",
                           "rank", "-m", "supersingular"],
                          capture_output=True, text=True)
    # module execution path: python -m padic_hodge.cli; importing the
    # package must not import padic_hodge.cli, or runpy warns on stderr
    assert proc.returncode == 0 and proc.stdout.strip() == "rank\t0"
    assert proc.stderr == ""


def test_config_validation():
    from padic_hodge.config import Config
    with pytest.raises(ValueError):
        Config(p=4)
    with pytest.raises(ValueError):
        Config(p=2)
    with pytest.raises(ValueError):
        Config(precision=3, guard=4)
    with pytest.raises(ValueError):
        Config(truncation=10)  # below p^2
    for n_max in (0, -1):
        with pytest.raises(ValueError, match="n_max"):
            Config(n_max=n_max)
    assert Config().truncation == 125
    assert Config(p=3).truncation == 27


@pytest.mark.parametrize("config, where", [
    ({"p": 5, "bogus": 1}, ".bogus: unknown config key"),
    ({"layer_cap": 3}, ".layer_cap: unknown config key"),
    ([5], ": expected an object of config keys, got list"),
    ("p = 5", ": expected an object of config keys, got str"),
    ({"p": "5"}, ".p: expected int, got str"),
    ({"precision": 20.5}, ".precision: expected int, got float"),
    ({"f": True}, ".f: expected int, got bool"),
    ({"seed": None}, ".seed: expected int, got NoneType"),
], ids=["unknown-key", "layer-cap", "list", "string", "str-value",
        "float-value", "bool-value", "null-value"])
def test_malformed_config_exits_2(tmp_path, capsys, config, where):
    # exit 1 is a certified negative verdict, so a bad config must not be 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["slopes", "-m", "supersingular", "--config", str(path)])
    assert code == 2
    assert f"error: {path}{where}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["slopes", "-m", "{path}"],
    ["slopes", "-m", "supersingular", "--config", "{path}"],
    ["series", "apply", "--op", "phi", "--in", "{path}"],
    ["series", "order", "--in", "{path}"],
    ["amember", "-m", "supersingular", "--series", "{path}"],
    ["contradict", "-m", "supersingular", "--which", "dim2-det",
     "--series", "{path}"],
], ids=["module", "config", "series-apply", "series-order", "amember",
        "contradict"])
def test_invalid_json_names_its_path(tmp_path, capsys, argv):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main([arg.format(path=path) for arg in argv]) == 2
    assert f"error: {path}: invalid JSON: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["series", "apply", "--op", "gamma", "--in", "{path}", "--c", "1/0"],
    ["mf-rank-table", "5", "2", "1/0", "--jmin", "0", "--jmax", "1"],
    ["amember", "-m", "supersingular", "--series", "{path}", "--r", "1/0"],
], ids=["c", "ap", "r"])
def test_zero_denominator_is_a_usage_error(tmp_path, capsys, argv):
    # exit 1 is a certified negative verdict: a rational with a zero
    # denominator is a usage error, exit 2, and no traceback
    path = tmp_path / "series.json"
    path.write_text(json.dumps(ser.series_to_json(
        TruncatedSeries.make(UnramifiedField(5, 1, 20), [1, 1], n=10))))
    with pytest.raises(SystemExit) as exit_:
        main([arg.format(path=path) for arg in argv])
    assert exit_.value.code == 2
    assert "zero denominator in '1/0'" in capsys.readouterr().err


def test_rational_flags_read_what_fraction_reads():
    from padic_hodge.cli import build_parser
    parser = build_parser()
    for text, value in (("7", 7), ("3/4", Fraction(3, 4)),
                        ("0.5", Fraction(1, 2)), (" 2/6 ", Fraction(1, 3))):
        args = parser.parse_args(["mf-rank-table", "5", "2", text,
                                  "--jmin", "0", "--jmax", "1"])
        assert args.ap == value
    amember = ["amember", "-m", "x", "--series", "y"]
    assert parser.parse_args(amember).r == 0


@pytest.mark.parametrize("argv, name", [
    (["amember", "-m", "x", "--series", "y", "--r=-3/4"], "r"),
    (["series", "apply", "--op", "gamma", "--in", "y", "--c=-3/4"], "c"),
    (["mf-rank-table", "5", "2", "--jmin", "0", "--jmax", "1", "--",
      "-3/4"], "ap"),
], ids=["r", "c", "ap"])
def test_negative_rationals_in_the_documented_forms(argv, name):
    # argparse reads a separate -3/4 as an option; a flag takes it after
    # "=", and the positional a_p after "--" at the end
    from padic_hodge.cli import build_parser
    assert getattr(build_parser().parse_args(argv), name) == Fraction(-3, 4)


def _supersingular_member(tmp_path):
    from padic_hodge.cli import _load_module
    from padic_hodge.config import Config
    from padic_hodge.generators import synthetic_member
    m = _load_module("supersingular", Config(), margin=60)
    g = synthetic_member(m, random.Random(1), 125)
    path = tmp_path / "member.json"
    path.write_text(json.dumps(
        {"components": [ser.series_to_json(c) for c in g.components]}))
    return path


@pytest.mark.parametrize("argv", [
    ["contradict", "-m", "supersingular", "--which", "dim2-det"],
    ["amember", "-m", "supersingular", "--series", "{path}"],
], ids=["contradict", "amember"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_no_layer_exits_2(tmp_path, capsys, argv, where):
    # with n_max below 1 no layer is checked: no verdict, exit 2
    argv = [arg.format(path=_supersingular_member(tmp_path)) for arg in argv]
    if where == "flag":
        argv += ["--nmax", "0"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_max": 0}))
        argv += ["--config", str(config)]
    assert main(argv + ["--seed", "1"]) == 2
    assert "error: n_max must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_guard_exits_2(tmp_path, capsys, where):
    # a negative guard switches the guard band off, so verdicts would be
    # read from the last digits of the window: no verdict, exit 2
    guard = -50 if where == "flag" else -2
    argv = ["slopes", "-m", "ordinary"]
    if where == "flag":
        argv += ["--guard", str(guard)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"guard": guard}))
        argv += ["--config", str(config)]
    assert main(argv) == 2
    assert f"error: guard must be >= 0 and below precision 20, got {guard}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_count_below_one_exits_2(capsys, count):
    assert main(["verify", "operators", "--count", count]) == 2
    assert f"error: count must be >= 1, got {count}" in \
        capsys.readouterr().err


def test_verify_builds_every_field_at_the_configured_guard(monkeypatch):
    guards = []
    init = UnramifiedField.__init__

    def spy(self, *args, **kw):
        init(self, *args, **kw)
        guards.append(self.guard)

    monkeypatch.setattr(UnramifiedField, "__init__", spy)
    code, _ = run_cli("verify", "slopes", "--count", "1", "--guard", "7")
    assert code == 0
    assert guards and set(guards) == {7}


def test_config_file_keys_are_read(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"p": 5, "f": 1, "precision": 30}))
    assert main(["slopes", "-m", "supersingular", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_byte_identical_reruns():
    for argv in (("mf-rank-table", "5", "2", "1", "--jmin", "-1",
                  "--jmax", "1"),
                 ("--json", "slopes", "-m", "supersingular")):
        _, out1 = run_cli(*argv)
        _, out2 = run_cli(*argv)
        assert out1 == out2


def test_element_json_keeps_one_precision():
    K = UnramifiedField(5, 2, 20)
    node = [{"val": 0, "unit": "3", "prec": 30},
            {"val": 1, "unit": "21", "prec": 18}]
    a = ser.element_from_json(node, K)
    assert (a.val, a.prec) == (0, 18)
    assert (a - K.element([3, 5 * 7])).is_zero  # unit digits are lsd first
    out = ser.element_to_json(a)
    assert [c["prec"] for c in out] == [18, 18]
    back = ser.element_from_json(out, K)
    assert (back.val, back.prec, back.res) == (a.val, a.prec, a.res)
    mixed = ser.element_from_json([{"val": None, "prec": 9}, "5"], K)
    assert (mixed.val, mixed.prec) == (1, 9)
    for bad, where in (([{"val": 0, "unit": "x", "prec": 20}, 1], "e[0].unit"),
                       ([1, {"val": 0, "unit": "1", "prec": "7"}], "e[1].prec"),
                       ([1, {"val": 0, "unit": "5", "prec": 20}], "e[1].unit"),
                       ([1], "e")):
        with pytest.raises(SchemaError) as exc:
            ser.element_from_json(bad, K, path="e")
        assert where in str(exc.value)


@pytest.mark.parametrize("p,bad", [(5, "15"), (11, "1.11")])
def test_digit_strings_parse_lsd_first(p, bad):
    digits = [1, 0, p - 1, 3] * 300
    text = ser._digits_to_str(digits, p)
    assert ser._digits_from_str(text, p, "s.unit") == \
        sum(d * p ** i for i, d in enumerate(digits))
    assert ser._digits_from_str("", p, "s.unit") == 0
    for wrong, message in (("1x", "bad digit string"),
                           (bad, f"digit out of range for base {p}")):
        with pytest.raises(SchemaError) as exc:
            ser._digits_from_str(wrong, p, "s.unit")
        assert "s.unit" in str(exc.value) and message in str(exc.value)


_MODULE = {"p": 5, "f": 1, "defpoly": [0, 1], "dim": 2,
           "phi": [["0", "-1"], ["1/5", "0"]],
           "filtration": [{"jump": -1, "basis": [["1", "0"], ["0", "1"]]},
                          {"jump": 0, "basis": [["1", "1"]]}]}
_SERIES = {"trunc": 6, "bound": 0, "log_slope": 1, "index_shift": 0,
           "tail_zero": False, "coeffs": [1, 2, 0, 3, 1, 0, 4]}
_LOGPOLY = {"terms": {"0": _SERIES}}
_LATE_SCALAR = {"val": 5, "unit": "1", "prec": 3}


def _with(node, keys, value):
    """A deep copy of ``node`` with the entry at ``keys`` set to ``value``."""
    node = json.loads(json.dumps(node))
    inner = node
    for k in keys[:-1]:
        inner = inner[k]
    inner[keys[-1]] = value
    return node


@pytest.mark.parametrize("base, keys, value, where", [
    (_MODULE, ("filtration", 0, "basis"), 3, ".filtration[0].basis"),
    (_MODULE, ("p",), 4, ".p"),
    (_MODULE, ("p",), 2, ".p"),
    (_MODULE, ("p",), "5", ".p"),
    (_MODULE, ("f",), 0, ".f"),
    (_MODULE, ("precision",), "20", ".precision"),
    (_MODULE, ("precision",), 20.5, ".precision"),
    (_MODULE, ("work_margin",), "24", ".work_margin"),
    (_MODULE, ("dim",), "2", ".dim"),
    (_MODULE, ("defpoly",), 3, ".defpoly"),
    (_MODULE, ("defpoly",), [0, 2], ".defpoly"),
    (_MODULE, ("filtration", 1, "basis"), [["1", "0"], ["0", "1"]], ""),
    (_MODULE, ("filtration", 1, "jump"), True, ".filtration[1].jump"),
    (_MODULE, ("phi", 0, 1), [_LATE_SCALAR], ".phi[0][1][0].prec"),
    (_MODULE, ("phi", 0, 1), [{"val": 0, "unit": 1, "prec": 9}],
     ".phi[0][1][0].unit"),
    (_SERIES, ("prec",), "20", ".prec"),
    (_SERIES, ("log_slope",), "x", ".log_slope"),
    (_SERIES, ("index_shift",), -1, ".index_shift"),
    (_SERIES, ("trunc",), "6", ".trunc"),
    (_SERIES, ("tail_zero",), "false", ".tail_zero"),
    (_SERIES, ("coeffs", 2), [_LATE_SCALAR], ".coeffs[2][0].prec"),
    (_LOGPOLY, ("terms",), [_SERIES], ".terms"),
    (_LOGPOLY, ("terms", "0", "log_slope"), "x", ".terms.0.log_slope"),
], ids=["basis-int", "p-composite", "p-two", "p-str", "f-zero",
        "precision-str", "precision-float", "margin-str", "dim-str",
        "defpoly-int", "defpoly-not-monic", "filtration-not-decreasing",
        "jump-bool", "scalar-prec-below-val", "unit-int",
        "series-prec-str", "log-slope-str", "index-shift-negative",
        "trunc-str", "tail-zero-str", "coeff-prec-below-val",
        "terms-list", "term-log-slope-str"])
def test_malformed_json_names_the_field_and_exits_2(tmp_path, capsys, base,
                                                    keys, value, where):
    # exit 1 is a certified negative verdict: a bad file must exit 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_with(base, keys, value)))
    field = UnramifiedField(5, 1, 20)
    if base is _MODULE:
        argv = ["slopes", "-m", str(path)]
        parse = lambda: ser.parse_module_file(path)
    elif base is _SERIES:
        argv = ["series", "apply", "--op", "phi", "--in", str(path)]
        parse = lambda: ser.parse_series_file(path, field)
    else:
        argv = ["series", "order", "--in", str(path)]
        parse = lambda: ser.logpoly_from_json(ser.load_json(path), field,
                                              str(path))
    with pytest.raises(SchemaError) as exc:
        parse()
    assert str(exc.value).startswith(f"{path}{where}: ")
    assert main(argv) == 2
    assert f"error: {path}{where}: " in capsys.readouterr().err


def test_well_formed_bases_of_the_malformed_table_parse(tmp_path):
    # the table's bases are valid, short unit strings included
    m = ser.module_from_json(_with(_MODULE, ("phi", 0, 1),
                                   [{"val": 0, "unit": "4", "prec": 20}]))
    assert m.d == 2
    s = ser.series_from_json(_SERIES, UnramifiedField(5, 1, 20))
    assert (s.n, s.tail_zero, s.effective_bound()) == (6, False, (0, 1, 0))
    path = tmp_path / "series.json"
    path.write_text(json.dumps(_SERIES))
    code, _ = run_cli("series", "apply", "--op", "phi", "--in", str(path))
    assert code == 0


def test_vector_series_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "vector.json"
    path.write_text("[1, 2]")
    assert main(["amember", "-m", "supersingular", "--series", str(path)]) == 2
    assert f"error: {path}: expected 'components'" in capsys.readouterr().err

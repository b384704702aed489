"""Command-line front end.

Module inputs are JSON files in the documented format, or one of the
shipped preset names (supersingular, ordinary, weight4, qp1).  Output is
TSV for humans by default and JSON with --json; exit codes are 0 for a
positive verdict, 1 for a certified negative verdict and 2 for errors or
inconclusive results.
"""

import argparse
import json
import random
import sys
from fractions import Fraction
from importlib import resources

from .config import Config, config_from_json
from .errors import PadicError, PrecisionError, TailBoundError
from .series import INFINITE
from . import seriesops as so
from .modules import mf_rank_table
from .analytic import (VectorSeries, check_membership, contradiction_pipeline,
                       phi_growth_order)
from . import serialize as ser
from . import generators as gen
from .suites import (run_suite, SUITES, division_margin, series_field,
                     shown_bound)

PRESETS = ("supersingular", "ordinary", "weight4", "qp1")

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _load_config(args) -> Config:
    cfg = Config()
    if getattr(args, "config", None):
        cfg = config_from_json(ser.load_json(args.config), args.config)
    return cfg.with_overrides(
        precision=getattr(args, "precision", None),
        truncation=getattr(args, "trunc", None),
        n_max=getattr(args, "nmax", None),
        guard=getattr(args, "guard", None),
        seed=getattr(args, "seed", None),
    )


def _resolve_module_path(name):
    if name in PRESETS:
        return resources.files("padic_hodge").joinpath(f"presets/{name}.json")
    return name


def _load_module(name, cfg, margin=None):
    """Module file or preset ``name`` at the configured precision and guard."""
    return ser.parse_module_file(_resolve_module_path(name),
                                 precision=cfg.precision, work_margin=margin,
                                 guard=cfg.guard)


def _print_module(module):
    print(json.dumps(ser.module_to_json(module), indent=2))
    return EXIT_OK


def _emit(args, human_lines, payload):
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in human_lines:
            print(line)


def rational(text):
    """``Fraction(text)``; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")


def _frac(x):
    return str(x) if isinstance(x, Fraction) else x


def _cert_payload(cert):
    return {
        "verdict": cert.verdict,
        "note": cert.note,
        "subspaces": [
            {"dimension": row.subspace.dimension,
             "t_H": row.t_H, "t_N": _frac(row.t_N),
             "slope": _frac(row.slope)}
            for row in cert.rows
        ],
        "witness": None if cert.witness is None else {
            "dimension": cert.witness.subspace.dimension,
            "t_H": cert.witness.t_H, "t_N": _frac(cert.witness.t_N),
            "basis": [[ser.element_to_json(c) for c in v]
                      for v in cert.witness.subspace.basis],
        },
    }


# -- subcommand implementations ------------------------------------------

def cmd_slopes(args):
    cfg = _load_config(args)
    m = _load_module(args.module, cfg)
    slopes = m.newton_slopes()
    h, th = m.hodge_degree()
    lines = ["slope\tmultiplicity"]
    seen = {}
    for s in slopes:
        seen[s] = seen.get(s, 0) + 1
    for s in sorted(seen):
        lines.append(f"{s}\t{seen[s]}")
    lines.append(f"t_N\t{sum(slopes)}")
    lines.append(f"t_H\t{th}")
    _emit(args, lines, {"slopes": [_frac(s) for s in slopes],
                        "t_N": _frac(sum(slopes)), "t_H": th,
                        "h": {str(j): mult for j, mult in h.items()}})
    return EXIT_OK


def cmd_admissible(args):
    cfg = _load_config(args)
    m = _load_module(args.module, cfg)
    cert = m.is_weakly_admissible()
    lines = [f"weakly_admissible\t{cert.verdict}"]
    if cert.note:
        lines.append(f"note\t{cert.note}")
    for row in cert.rows:
        lines.append(f"subspace dim {row.subspace.dimension}\t"
                     f"t_H={row.t_H}\tt_N={row.t_N}")
    _emit(args, lines, _cert_payload(cert))
    return EXIT_OK if cert.verdict else EXIT_FALSE


def cmd_ncond(args):
    cfg = _load_config(args)
    m = _load_module(args.module, cfg)
    cert = m.n_condition(args.j)
    lines = [f"condition_N_{args.j}\t{cert.verdict}"]
    for row in cert.rows:
        lines.append(f"candidate dim {row.subspace.dimension}\t"
                     f"t_H={row.t_H}\tt_N={row.t_N}")
    _emit(args, lines, _cert_payload(cert))
    return EXIT_OK if cert.verdict else EXIT_FALSE


def cmd_fil1(args):
    cfg = _load_config(args)
    m = _load_module(args.module, cfg)
    sub = m.fil1()
    lines = [f"dim\t{sub.dimension}"]
    for v in sub.basis:
        lines.append("basis\t" + "\t".join(
            str(c.lift_fraction()) if m.field.f == 1 else repr(c)
            for c in v))
    _emit(args, lines, {"dimension": sub.dimension,
                        "basis": [[ser.element_to_json(c) for c in v]
                                  for v in sub.basis]})
    return EXIT_OK


def cmd_rank(args):
    cfg = _load_config(args)
    m = _load_module(args.module, cfg)
    r = m.universal_norm_rank()
    _emit(args, [f"rank\t{r}"], {"rank": r})
    return EXIT_OK


def cmd_twist(args):
    cfg = _load_config(args)
    return _print_module(_load_module(args.module, cfg).twist(args.k))


def cmd_tensor(args):
    cfg = _load_config(args)
    m1, m2 = (_load_module(name, cfg) for name in args.modules)
    return _print_module(m1.tensor_product(m2))


def cmd_wedge(args):
    cfg = _load_config(args)
    return _print_module(_load_module(args.module, cfg).wedge_power(args.v))


def cmd_tilde(args):
    cfg = _load_config(args)
    return _print_module(
        _load_module(args.module, cfg).erase_filtration_step(args.k))


def cmd_mf_rank_table(args):
    cfg = _load_config(args)
    table = mf_rank_table(args.p, args.k, args.ap,
                          args.jmin, args.jmax, precision=cfg.precision,
                          guard=cfg.guard)
    lines = ["j\tdim_fil1\trank"]
    for j, dim, rank in table:
        lines.append(f"{j}\t{dim}\t{rank}")
    _emit(args, lines,
          {"rows": [{"j": j, "dim_fil1": dim, "rank": rank}
                    for j, dim, rank in table]})
    return EXIT_OK


def cmd_series_apply(args):
    cfg = _load_config(args)
    field = series_field(cfg.with_overrides(f=args.f))
    s = ser.parse_series_file(args.infile, field)
    op = args.op
    if op == "phi":
        out = so.phi_op(s)
    elif op == "psi":
        out = so.psi_op(s)
    elif op == "D":
        out = so.d_op(s)
    elif op == "gamma":
        if args.c is None:
            raise PadicError("gamma needs --c (a unit of Z_p, as int or a/b)")
        out = so.gamma_action(s, args.c)
    elif op == "ell":
        j = args.j if args.j is not None else 0
        out = so.ell_op(s, j)
    else:
        raise PadicError(f"unknown operator {op}")
    print(json.dumps(ser.series_to_json(out), indent=2))
    return EXIT_OK


def cmd_series_order(args):
    cfg = _load_config(args)
    field = series_field(cfg.with_overrides(f=args.f))
    node = ser.load_json(args.infile)
    if isinstance(node, dict) and "terms" in node:
        lp = ser.logpoly_from_json(node, field, str(args.infile))
        order = so.growth_order(lp)
        _emit(args, [f"growth_order\t{order}\texact"],
              {"order": order, "exact": True})
        return EXIT_OK
    s = ser.series_from_json(node, field, str(args.infile))
    lo, hi = so.growth_order_estimate(s)
    _emit(args, [f"growth_order_estimate\t[{lo}, {hi}]\testimate"],
          {"interval": [_frac(lo), _frac(hi)], "exact": False})
    return EXIT_OK


def _load_vector_series(path, module):
    node = ser.load_json(path)
    comps = node.get("components") if isinstance(node, dict) else None
    if not isinstance(comps, list) or len(comps) != module.d:
        raise PadicError(
            f"{path}: expected 'components' with {module.d} series")
    series = [ser.series_from_json(c, module.field,
                                   f"{path}.components[{i}]")
              for i, c in enumerate(comps)]
    n = min(s.n for s in series)
    return VectorSeries(module, [s.truncate(n) for s in series])


def cmd_amember(args):
    cfg = _load_config(args)
    m = _load_module(args.module, cfg)
    g = _load_vector_series(args.series, m)
    J = tuple(int(x) for x in args.J.split(",")) if args.J else ()
    rep = check_membership(g, args.v, J, args.r, cfg.n_max,
                           tilde=not args.require_psi_zero)
    # the estimate is reported here only: a series read from a file carries
    # no eigen data, so its order is never exact and no verdict reads it
    order = phi_growth_order(g) if not g.is_zero else None
    lines = [f"verdict\t{rep.verdict}",
             f"indeterminate\t{rep.indeterminate}"]
    if rep.psi_zero is not None:
        lines.append(f"psi_zero\t{rep.psi_zero}")
    if order is not None:
        if order.interval:
            lines.append(f"phi_order\t[{order.interval[0]}, "
                         f"{order.interval[1]}]\testimate")
        else:
            lines.append(f"phi_order\tunavailable\t{order.note}")
    for row in rep.rows:
        lines.append(f"j={row.j}\tn={row.n}\t{row.kind}\t{row.status}\t"
                     f"margin={row.margin}")
    payload = {
        "verdict": rep.verdict,
        "indeterminate": rep.indeterminate,
        "psi_zero": rep.psi_zero,
        "order": {"exact": False,
                  "interval": [_frac(x) for x in order.interval]
                  if order and order.interval else None,
                  "note": order.note if order else "zero input"},
        "conditions": [{"j": r.j, "n": r.n, "kind": r.kind,
                        "status": r.status, "margin": _frac(r.margin)}
                       for r in rep.rows],
    }
    _emit(args, lines, payload)
    if rep.indeterminate:
        return EXIT_ERROR
    return EXIT_OK if rep.verdict else EXIT_FALSE


def cmd_contradict(args):
    cfg = _load_config(args)
    m = _load_module(args.module, cfg, margin=division_margin(cfg, 9))
    if args.series:
        g = _load_vector_series(args.series, m)
    else:
        rng = random.Random(cfg.seed)
        g = gen.synthetic_member(m, rng, cfg.truncation,
                                 mode=args.synthetic_mode)
    rep = contradiction_pipeline(m, args.which, g, n_max=cfg.n_max)
    lines = [f"which\t{rep.which}",
             f"order_upper\t{shown_bound(rep.order_upper)}",
             f"log_lower\t{'infinite' if rep.log_lower == INFINITE else shown_bound(rep.log_lower)}",
             f"verdict\t{rep.verdict}"]
    for note in rep.provenance:
        lines.append(f"provenance\t{note}")
    payload = {
        "which": rep.which,
        "order_upper": _frac(rep.order_upper),
        "log_lower": ("infinite" if rep.log_lower == INFINITE
                      else rep.log_lower),
        "verdict": rep.verdict,
        "provenance": rep.provenance,
    }
    _emit(args, lines, payload)
    if rep.verdict == "forced zero":
        return EXIT_OK
    if rep.verdict == "not forced":
        return EXIT_FALSE
    return EXIT_ERROR


def cmd_verify(args):
    cfg = _load_config(args)
    rep = run_suite(args.suite, seed=cfg.seed, count=args.count, cfg=cfg)
    lines = [f"suite\t{rep.suite}", f"seed\t{rep.seed}"]
    for c in rep.cases:
        lines.append(f"case {c.index}\t{c.name}\t"
                     f"{'pass' if c.passed else 'FAIL'}\t{c.detail}")
    lines.append(f"result\t{'pass' if rep.passed else 'FAIL'}\t"
                 f"{len(rep.cases)} cases, {len(rep.failures)} failures")
    payload = {
        "suite": rep.suite,
        "seed": rep.seed,
        "passed": rep.passed,
        "cases": [{"index": c.index, "name": c.name, "passed": c.passed,
                   "detail": c.detail} for c in rep.cases],
    }
    _emit(args, lines, payload)
    return EXIT_OK if rep.passed else EXIT_FALSE


# -- parser ----------------------------------------------------------------

def _common_flags(suppress):
    """Global flags; the subcommand copies use SUPPRESS defaults so a value
    parsed before the subcommand is never clobbered."""
    common = argparse.ArgumentParser(add_help=False)
    S = argparse.SUPPRESS

    def d(value):
        return S if suppress else value

    common.add_argument("--config", default=d(None),
                        help="JSON config file (flags win)")
    common.add_argument("--precision", type=int, default=d(None),
                        help="absolute precision m")
    common.add_argument("--trunc", type=int, default=d(None),
                        help="series truncation degree N")
    common.add_argument("--nmax", type=int, default=d(None),
                        help="deepest cyclotomic layer (1 to 3)")
    common.add_argument("--guard", type=int, default=d(None),
                        help="guard digits for verdicts")
    common.add_argument("--json", action="store_true", default=d(False),
                        help="machine output")
    common.add_argument("--seed", type=int, default=d(None),
                        help="seed for randomized commands")
    return common


def build_parser():
    common = _common_flags(suppress=True)
    ap = argparse.ArgumentParser(
        prog="padic-hodge",
        parents=[_common_flags(suppress=False)],
        description="Exact p-adic series operator calculus and filtered "
                    "phi-module slope computations.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_module_cmd(name, fn, help_):
        sp = sub.add_parser(name, help=help_, parents=[common])
        sp.add_argument("--module", "-m", required=True,
                        help="module JSON file or preset name "
                             f"({', '.join(PRESETS)})")
        sp.set_defaults(func=fn)
        return sp

    add_module_cmd("slopes", cmd_slopes, "Newton slopes and degrees")
    add_module_cmd("admissible", cmd_admissible,
                   "weak admissibility certificate")
    sp = add_module_cmd("ncond", cmd_ncond, "strict degree condition at j")
    sp.add_argument("--j", type=int, required=True)
    add_module_cmd("fil1", cmd_fil1,
                   "maximal admissible subspace avoiding Fil^0")
    add_module_cmd("rank", cmd_rank, "universal-norm rank [K:Q_p]*dim fil1")
    sp = add_module_cmd("twist", cmd_twist, "twist the module by k")
    sp.add_argument("--k", type=int, required=True)
    sp = sub.add_parser("tensor", help="tensor product of two modules", parents=[common])
    sp.add_argument("modules", nargs=2, help="two module files/presets")
    sp.set_defaults(func=cmd_tensor)
    sp = add_module_cmd("wedge", cmd_wedge, "exterior power")
    sp.add_argument("--v", type=int, required=True)
    sp = add_module_cmd("tilde", cmd_tilde, "erase the filtration step at k")
    sp.add_argument("--k", type=int, required=True)

    sp = sub.add_parser("mf-rank-table", parents=[common],
                        help="rank table of a twisted eigenform module")
    sp.add_argument("p", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("ap", type=rational, help="a_p as int or a/b")
    sp.add_argument("--jmin", type=int, required=True)
    sp.add_argument("--jmax", type=int, required=True)
    sp.set_defaults(func=cmd_mf_rank_table)

    series = sub.add_parser("series", help="series operations")
    ssub = series.add_subparsers(dest="series_command", required=True)
    sp = ssub.add_parser("apply", parents=[common],
                         help="apply an operator to a series file")
    sp.add_argument("--op", required=True,
                    choices=["phi", "psi", "D", "gamma", "ell"])
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--c", type=rational,
                    help="gamma-action argument (unit of Z_p)")
    sp.add_argument("--j", type=int, help="ell_j twist index")
    sp.add_argument("--f", type=int, help="unramified degree")
    sp.set_defaults(func=cmd_series_apply)
    sp = ssub.add_parser("order", parents=[common],
                         help="growth order (exact on structured input, "
                              "interval estimate otherwise)")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--f", type=int, help="unramified degree")
    sp.set_defaults(func=cmd_series_order)

    sp = sub.add_parser("amember", parents=[common],
                        help="membership report for a vector series in the "
                             "growth/filtration class")
    sp.add_argument("--module", "-m", required=True)
    sp.add_argument("--series", required=True,
                    help="JSON file with {'components': [series, ...]}")
    sp.add_argument("--v", type=int, default=0)
    sp.add_argument("--J", default="", help="comma-separated vanishing set")
    sp.add_argument("--r", type=rational, default="0",
                    help="order budget (rational)")
    sp.add_argument("--require-psi-zero", action="store_true",
                    help="check psi(g) = 0 (the non-tilde class)")
    sp.set_defaults(func=cmd_amember)

    sp = sub.add_parser("contradict", parents=[common],
                        help="order-vs-divisibility contradiction report")
    sp.add_argument("--module", "-m", required=True)
    sp.add_argument("--which", required=True,
                    choices=["dim2-det", "wronskian", "orbit-wedge"])
    sp.add_argument("--series", help="vector-series JSON (default: "
                                     "seeded synthetic member)")
    sp.add_argument("--synthetic-mode", default="deep",
                    choices=["deep", "adapted"])
    sp.set_defaults(func=cmd_contradict)

    sp = sub.add_parser("verify", parents=[common],
                        help="run a seeded verification suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--count", type=int,
                    help="cases, at least 1 (default per suite)")
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (PadicError, PrecisionError, TailBoundError, ValueError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

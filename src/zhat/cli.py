"""Command-line front end.

Single binary, subcommand style: density / measure / verify / sn. A config
file of key=value lines supplies defaults, explicit flags win, and every
output embeds the effective configuration plus the seed so identical
invocations produce byte-identical JSON. Exit codes: 0 success or PASS,
1 FAIL or internal error, 2 usage or parse error, 3 INCONCLUSIVE (including
an exhausted budget or a float overflow).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import islice

# each handler imports the modules it runs, leaf first (setdsl, then
# measure, then the layer it calls): the sn commands, measure --multiples
# and verify omega and union-dense load no numpy, and no chain of
# half-imported modules builds up
from ._primes import (FAIL, INCONCLUSIVE, PASS, BudgetExceeded, DslError, DslSyntaxError,
                      jsonable, sequence_terms)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

OUTPUTS = ("json", "csv", "table")

THEOREM_IDS = (
    "davenport-erdos", "dirichlet", "omega", "eulerian", "asdmltp",
    "poonen-stoll", "mt", "counterexample", "union-dense", "axioms",
)


def _num(text: str) -> int:
    """Integer argument that also accepts scientific notation like 1e7,
    read exactly: 1e23 is 10^23."""
    try:
        return int(text)
    except ValueError:
        if not math.isfinite(float(text)):
            raise argparse.ArgumentTypeError(f"not a finite number: {text!r}") from None
    v = Fraction(text)
    if v.denominator != 1:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return v.numerator


def _tol(text: str) -> float:
    """Tolerance argument: a finite number >= 0."""
    v = float(text)
    if not (math.isfinite(v) and v >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0: {text!r}")
    return v


def _int_list(text: str) -> list[int]:
    return [_num(t) for t in text.split(",") if t.strip()]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _bool(text: str) -> bool:
    """A true/false config-file value: true/false, yes/no or 1/0."""
    t = text.strip().lower()
    if t not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"not a true/false value: {text!r}")
    return t in ("true", "yes", "1")


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value")
            k, _, v = line.partition("=")
            out[k.strip()] = v.strip().strip('"')
    return out


class _Resolver:
    """Flag > config file > built-in default, recording the effective value.
    The output form and the seed, which every command echoes, are read once
    here, before any command computes."""

    def __init__(self, args: argparse.Namespace, file_cfg: dict[str, str]):
        self.args = args
        self.file_cfg = file_cfg
        self.output = self.get("output", str, "json")
        if self.output not in OUTPUTS:
            raise ValueError(f"output must be one of {', '.join(OUTPUTS)}, got {self.output!r}")
        self.seed = self.get("seed", _num, 0)

    def get(self, key: str, cast, default=None):
        v = getattr(self.args, key, None)
        if v is None and key in self.file_cfg:
            v = cast(self.file_cfg[key])
        return default if v is None else v


def _positive(name: str, v):
    """v, unset or at least 1; else a usage error naming the parameter."""
    if v is not None and v < 1:
        raise ValueError(f"{name} must be positive, got {v}")
    return v


def _parse_chain(text: str):
    from .measure import ModulusChain

    t = text.strip().lower()
    if t == "primorial":
        return ModulusChain.primorial()
    if t == "factorial":
        return ModulusChain.factorial()
    if t.startswith("primorial") and t[len("primorial"):].lstrip("^").isdigit():
        return ModulusChain.primorial_power(int(t[len("primorial"):].lstrip("^")))
    if t.startswith("explicit:"):
        return ModulusChain.explicit(_int_list(t[len("explicit:"):]))
    if all(c.isdigit() or c == "," for c in t):
        return ModulusChain.explicit(_int_list(t))
    raise ValueError(f"unknown chain spec {text!r}")


def _emit(res: _Resolver, payload: dict, command: str, extra: dict, **fields) -> None:
    """Print payload in the chosen output form, with the effective
    configuration (the command, the fields that are set, the output form,
    the seed and the command's own parameters in extra) and the seed. The
    whole payload goes through the one JSON encoder first, so handlers pass
    records and Fractions in raw."""
    config = {"command": command, **{k: v for k, v in fields.items() if v is not None},
              "output": res.output, "seed": res.seed, "extra": extra}
    payload = jsonable({**payload, "config": config, "seed": res.seed})
    if res.output == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif res.output == "csv":
        sys.stdout.write(payload["csv"])
    else:
        for key in sorted(payload.keys() - {"csv"}):
            print(f"{key}: {_render(payload[key])}")


def _render(v) -> str:
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    if isinstance(v, list):
        return ", ".join(_render(x) for x in v)
    return str(v)


# ------------------------------------------------------------- subcommands


def _cmd_density(res: _Resolver) -> int:
    from . import setdsl, measure, density

    set_text = res.get("set", str)
    if not set_text:
        raise DslSyntaxError("density needs --set", 0, ("set expression",))
    method = res.get("method", str, "asymptotic")
    r_max = _positive("r_max", res.get("r", _num, 10**6))
    cutoff = res.get("cutoff", _num, 10**5)
    cs = setdsl.compile_set(set_text)
    r_grid = sorted({max(1, r_max // 2**i) for i in range(5)})
    methods = {
        "asymptotic": lambda: density.density_alpha(cs, 0, r_grid),
        "logarithmic": lambda: density.density_alpha(cs, -1, r_grid),
        "alpha": lambda: density.density_alpha(cs, res.get("alpha", float, -1.0), r_grid),
        "uniform": lambda: density.density_uniform(
            cs, sorted({max(1, r_max // 10), max(2, r_max // 5)}), r_max
        ),
        "analytic": lambda: density.density_analytic(
            cs, res.get("s_grid", _float_list, [1.5, 1.25, 1.1, 1.05]), cutoff
        ),
        "buck": lambda: density.density_buck(
            cs, _parse_chain(res.get("chain", str, "primorial")),
            res.get("level_cutoff", _num, 10**4),
            truncation=res.get("truncation", _num),
        ),
    }
    wanted = list(methods) if method == "all" else [method]
    unknown = [m for m in wanted if m not in methods]
    if unknown:
        raise ValueError(f"unknown method {unknown[0]!r}; choose from {', '.join(methods)} or all")
    if method == "all":
        wanted = ["asymptotic", "logarithmic", "uniform", "analytic", "buck"]
    reports = {m: methods[m]() for m in wanted}
    rows = ["method,lower,upper,certified"] + [
        f"{m},{rep.lower_est:.10g},{rep.upper_est:.10g},{rep.certified}"
        for m, rep in reports.items()]
    _emit(res, {"reports": reports, "csv": "\n".join(rows) + "\n"}, "density",
          {"method": method}, set_text=set_text, r_max=r_max, chain=res.get("chain", str))
    return EXIT_OK


def _cmd_measure(res: _Resolver) -> int:
    multiples = res.get("multiples", _int_list)
    euler = res.get("euler", str)
    if multiples:
        from . import measure

        v = measure.multiples_measure_ie(multiples)
        _emit(res, {"measure": v, "certified": True,
                    "csv": f"measure\n{v.numerator}/{v.denominator}\n"},
              "measure", {"multiples": multiples})
        return EXIT_OK
    from . import setdsl, measure

    if euler:
        cutoff = _positive("prime_bound", res.get("cutoff", _num, 10**4))
        br = measure.euler_product(euler, cutoff)
        _emit(res, {"bracket": br, "notes": br.notes,
                    "csv": f"lo,hi,certified\n{br.lo:.12g},{br.hi:.12g},{br.certified}\n"},
              "measure", {"euler": euler}, prime_bound=cutoff)
        return EXIT_OK
    set_text = res.get("set", str)
    if not set_text:
        raise DslSyntaxError("measure needs --set, --multiples or --euler", 0, ("input",))
    chain_text = res.get("chain", str, "primorial")
    level_cap = res.get("levels", _num, 10)
    cutoff = res.get("cutoff", _num, 10**6)
    truncation = _positive("truncation", res.get("truncation", _num))
    if level_cap < 1:
        raise ValueError(f"levels must be >= 1, got {level_cap}")
    cs = setdsl.compile_set(set_text)
    chain = _parse_chain(chain_text)
    # the first level_cap levels only: cut the chain at the last one kept
    top = chain.levels(cutoff)[:level_cap][-1]
    trace = measure.closure_measure_trace(cs, chain, top, truncation=truncation)
    payload = {
        "levels": [{"modulus": r.modulus, "measure": r.measure, "mode": r.mode}
                   for r in trace.records],
        "certified": trace.certified,
        "notes": trace.notes,
        "csv": trace.to_csv(),
    }
    _emit(res, payload, "measure", {"levels": level_cap, "cutoff": cutoff},
          set_text=set_text, chain=chain_text, truncation=truncation)
    return EXIT_OK


def _cmd_verify(res: _Resolver) -> int:
    theorem = res.get("theorem", str)
    if theorem not in THEOREM_IDS:
        raise ValueError(
            f"unknown theorem id {theorem!r}; valid ids: {', '.join(THEOREM_IDS)}"
        )
    if theorem not in ("omega", "union-dense", "counterexample"):
        # leaf first: the set layer before verify; the other way round, a
        # harness that loads both peaks higher. counterexample runs on numpy
        # alone, and without the set layer peaks 2 MB lower
        from . import setdsl
    from . import verify

    if theorem == "davenport-erdos":
        family = res.get("family", str, "p^2")
        pmax = res.get("pmax", _num, 31)
        if family.startswith("p^") and family[2:].isdigit():
            k = int(family[2:])
            mods, tail = verify.prime_power_family(k, pmax), k
        elif family == "p":
            mods, tail = verify.prime_power_family(1, pmax), 1
        else:
            mods, tail = _int_list(family), None
        rep = verify.davenport_erdos(
            mods, r_max=res.get("rmax", _num, 10**6), tol=res.get("tol", _tol, 5e-3),
            tail_exponent=tail,
            certified_grid_points=res.get("certified_points", _num, 0),
        )
    elif theorem == "dirichlet":
        rep = verify.dirichlet_coverage(res.get("mmax", _num, 100), res.get("pbound", _num, 10**5))
    elif theorem == "omega":
        rep = verify.omega_bound_measure(res.get("k", _num, 2), res.get("pbound", _num, 13))
    elif theorem == "eulerian":
        set_text = res.get("set", str)
        if not set_text:
            raise DslSyntaxError("verify eulerian needs --set", 0, ("set expression",))
        rep = verify.eulerian_check(setdsl.compile_set(set_text),
                                    res.get("mlist", _int_list, [12]),
                                    expect=res.get("expect", str, "product"))
    elif theorem == "asdmltp":
        rep = verify.asdmltp_verify(res.get("moduli", _int_list, [4, 9, 25]),
                                    r_max=res.get("rmax", _num, 10**6),
                                    m_check=res.get("mcheck", _num),
                                    tol=res.get("tol", _tol, 1e-2))
    elif theorem == "poonen-stoll":
        rep = verify.poonen_stoll_tail(res.get("spec", str, "kfree"),
                                       k=res.get("k", _num, 2),
                                       prime_cutoffs=res.get("cutoffs", _int_list, [10, 100, 1000]),
                                       tol=res.get("tol", _tol, 1e-2))
    elif theorem == "mt":
        set_text = res.get("set", str)
        if not set_text:
            raise DslSyntaxError("verify mt needs --set", 0, ("set expression",))
        rep = verify.mt_criterion(setdsl.compile_set(set_text),
                                  _parse_chain(res.get("chain", str, "primorial")),
                                  res.get("cutoff", _num, 10**4),
                                  r_max=res.get("rmax", _num, 10**6),
                                  tol=res.get("tol", _tol, 1e-2),
                                  truncation=res.get("truncation", _num))
    elif theorem == "counterexample":
        rep = verify.counterexample_cover(res.get("base", _num, 4), res.get("terms", _num, 10))
    elif theorem == "union-dense":
        raw = res.get("supports", str)
        if not raw:
            raise DslSyntaxError("verify union-dense needs --supports", 0, ("prime sets",))
        sups = [_int_list(part) for part in raw.split(";") if part.strip()]
        rep = verify.union_dense_check(sups, family_flag=res.get("family_flag", _bool, False))
    else:
        from . import measure, density

        rep = density.axiom_suite(res.get("cases", _num, 100), res.seed,
                                  pair=res.get("pair", str, "exact"),
                                  estimator_cases=res.get("estimator_cases", _num, 0))
    _emit(res, {"report": rep, "csv": f"theorem,verdict\n{rep.theorem},{rep.verdict}\n"},
          "verify", {"theorem": theorem})
    return {PASS: EXIT_OK, FAIL: EXIT_FAIL, INCONCLUSIVE: EXIT_INCONCLUSIVE}[rep.verdict]


# sn limit names of the named sequences
_SN_SEQUENCES = {
    "factorial": "factorials",
    "factorial_shift": "factorial_shift",
    "primorial": "primorials",
}


def _cmd_sn(res: _Resolver) -> int:
    from . import supernatural as sn

    op = res.get("sn_op", str)
    if op in ("mul", "rho"):
        operands = res.args.operands
        v = (sn.mul(*map(sn.parse_supernatural, operands)) if op == "mul"
             else sn.rho(int(operands[0])))
        text = sn.to_text(v)
        payload = {"result": text, "csv": f"result\n{text}\n"}
    else:
        # limit: valuation trajectories of a named sequence
        name = res.get("seq", str, "factorial")
        if name not in _SN_SEQUENCES:
            raise ValueError(f"unknown sequence {name!r}; choose from {', '.join(sorted(_SN_SEQUENCES))}")
        terms = res.get("terms", _num, 30)
        pmax = res.get("pmax", _num, 7)
        window = res.get("window", _num, 5)
        prof = sn.limit_profile(islice(sequence_terms(_SN_SEQUENCES[name]), max(terms, 0)),
                                pmax, window)
        rows = ["prime,last_valuation,status"]
        table = {}
        for p in sorted(prof.valuations):
            last = prof.valuations[p][-1]
            rows.append(f"{p},{last},{prof.status[p]}")
            table[str(p)] = {"last_valuation": last, "status": prof.status[p],
                             "trajectory_tail": prof.valuations[p][-window:]}
        payload = {"sequence": name, "terms": terms, "profile": table,
                   "csv": "\n".join(rows) + "\n"}
    _emit(res, payload, "sn", {"op": op})
    return EXIT_OK


# ------------------------------------------------------------- entry point


_COMMANDS = {"density": _cmd_density, "measure": _cmd_measure, "verify": _cmd_verify,
             "sn": _cmd_sn}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zhat",
        description="Densities, profinite closure measures, and theorem "
                    "harnesses for integer sets.",
    )
    p.add_argument("--config", help="key=value config file; flags override it")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=OUTPUTS, default=None)
    common.add_argument("--seed", type=_num, default=None)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("density", parents=[common], help="density estimates for a DSL set")
    d.add_argument("--set")
    d.add_argument("--method", default=None,
                   help="asymptotic|logarithmic|alpha|uniform|analytic|buck|all")
    d.add_argument("--alpha", type=float, default=None)
    d.add_argument("--r", type=_num, default=None, help="largest radius in the grid")
    d.add_argument("--cutoff", type=_num, default=None, help="Dirichlet series cutoff")
    d.add_argument("--s-grid", dest="s_grid", type=_float_list, default=None)
    d.add_argument("--chain", default=None)
    d.add_argument("--level-cutoff", dest="level_cutoff", type=_num, default=None)
    d.add_argument("--N", dest="truncation", type=_num, default=None)

    m = sub.add_parser("measure", parents=[common], help="closure measure traces, IE values, Euler brackets")
    m.add_argument("--set")
    m.add_argument("--chain", default=None)
    m.add_argument("--levels", type=_num, default=None, help="max level count in the trace")
    m.add_argument("--cutoff", type=_num, default=None, help="modulus bound / prime cutoff")
    m.add_argument("--multiples", type=_int_list, default=None)
    m.add_argument("--euler", default=None, help='local factor, e.g. "1-1/p^2"')
    m.add_argument("--N", dest="truncation", type=_num, default=None)

    v = sub.add_parser("verify", parents=[common], help="theorem harnesses with PASS/FAIL/INCONCLUSIVE verdicts")
    v.add_argument("theorem", help="|".join(THEOREM_IDS))
    v.add_argument("--family", default=None, help='"p^2", "p", or explicit "4,6"')
    v.add_argument("--pmax", type=_num, default=None)
    v.add_argument("--rmax", type=_num, default=None)
    v.add_argument("--tol", type=_tol, default=None)
    v.add_argument("--certified-points", dest="certified_points", type=_num, default=None)
    v.add_argument("--mmax", type=_num, default=None)
    v.add_argument("--pbound", type=_num, default=None)
    v.add_argument("--k", type=_num, default=None)
    v.add_argument("--set", default=None)
    v.add_argument("--mlist", type=_int_list, default=None)
    v.add_argument("--expect", default=None)
    v.add_argument("--moduli", type=_int_list, default=None)
    v.add_argument("--mcheck", type=_num, default=None)
    v.add_argument("--spec", default=None)
    v.add_argument("--cutoffs", type=_int_list, default=None)
    v.add_argument("--chain", default=None)
    v.add_argument("--cutoff", type=_num, default=None)
    v.add_argument("--N", dest="truncation", type=_num, default=None)
    v.add_argument("--base", type=_num, default=None)
    v.add_argument("--terms", type=_num, default=None)
    v.add_argument("--supports", default=None, help='semicolon-separated prime lists: "2,3;3,5"')
    v.add_argument("--family-flag", dest="family_flag", action="store_true", default=None)
    v.add_argument("--cases", type=_num, default=None)
    v.add_argument("--pair", default=None, help="exact|deformed")
    v.add_argument("--estimator-cases", dest="estimator_cases", type=_num, default=None)

    s = sub.add_parser("sn", parents=[common], help="supernatural number arithmetic and limits")
    ss = s.add_subparsers(dest="sn_op", required=True)
    mul = ss.add_parser("mul", parents=[common])
    mul.add_argument("operands", nargs=2)
    rho = ss.add_parser("rho", parents=[common])
    rho.add_argument("operands", nargs=1)
    lim = ss.add_parser("limit", parents=[common])
    lim.add_argument("--seq", default=None)
    lim.add_argument("--pmax", type=_num, default=None)
    lim.add_argument("--terms", type=_num, default=None)
    lim.add_argument("--window", type=_num, default=None)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    file_cfg: dict[str, str] = {}
    if args.config:
        try:
            file_cfg = _read_config_file(args.config)
        except (OSError, ValueError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return _COMMANDS[args.command](_Resolver(args, file_cfg))
    except DslSyntaxError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceeded, OverflowError) as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (DslError, ValueError, argparse.ArgumentTypeError) as e:
        # a config-file value fails _num outside argparse
        usage = isinstance(e, (ValueError, argparse.ArgumentTypeError))
        print(f"{'usage' if usage else 'error'}: {e}", file=sys.stderr)
        return EXIT_USAGE if usage else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

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


# every option once: its key (the argparse dest and the config-file key)
# maps to its flag, its cast of the flag and the config-file value alike (a
# _bool option is a switch on the command line) and more add_argument keywords
_OPTIONS = {
    "output": ("--output", str, {"choices": OUTPUTS}),
    "seed": ("--seed", _num),
    "set": ("--set", str),
    "method": ("--method", str, {"help": "asymptotic|logarithmic|alpha|uniform|analytic|buck|all"}),
    "alpha": ("--alpha", float),
    "r": ("--r", _num, {"help": "largest radius in the grid"}),
    "cutoff": ("--cutoff", _num, {"help": "Dirichlet series cutoff, modulus bound or prime cutoff"}),
    "s_grid": ("--s-grid", _float_list),
    "chain": ("--chain", str),
    "level_cutoff": ("--level-cutoff", _num),
    "truncation": ("--N", _num),
    "levels": ("--levels", _num, {"help": "max level count in the trace"}),
    "multiples": ("--multiples", _int_list),
    "euler": ("--euler", str, {"help": 'local factor, e.g. "1-1/p^2"'}),
    "family": ("--family", str, {"help": '"p^2", "p", or explicit "4,6"'}),
    "pmax": ("--pmax", _num),
    "rmax": ("--rmax", _num),
    "tol": ("--tol", _tol),
    "certified_points": ("--certified-points", _num),
    "mmax": ("--mmax", _num),
    "pbound": ("--pbound", _num),
    "k": ("--k", _num),
    "mlist": ("--mlist", _int_list),
    "expect": ("--expect", str),
    "moduli": ("--moduli", _int_list),
    "mcheck": ("--mcheck", _num),
    "spec": ("--spec", str),
    "cutoffs": ("--cutoffs", _int_list),
    "base": ("--base", _num),
    "terms": ("--terms", _num),
    "supports": ("--supports", str, {"help": 'semicolon-separated prime lists: "2,3;3,5"'}),
    "family_flag": ("--family-flag", _bool),
    "cases": ("--cases", _num),
    "pair": ("--pair", str, {"help": "exact|deformed"}),
    "estimator_cases": ("--estimator-cases", _num),
    "seq": ("--seq", str),
    "window": ("--window", _num),
}
# the options of every command, which every command echoes
_COMMON = ("output", "seed")


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
    """Flag > config file > built-in default: get returns the effective
    value, casting a config-file value as _OPTIONS declares. The output
    form and the seed, which every command echoes, are read once here,
    before any command computes."""

    def __init__(self, args: argparse.Namespace, file_cfg: dict[str, str]):
        self.args = args
        self.file_cfg = file_cfg
        self.output = self.get("output", "json")
        if self.output not in OUTPUTS:
            raise ValueError(f"output must be one of {', '.join(OUTPUTS)}, got {self.output!r}")
        self.seed = self.get("seed", 0)

    def get(self, key: str, default=None):
        v = getattr(self.args, key, None)
        if v is None and key in self.file_cfg:
            v = _OPTIONS[key][1](self.file_cfg[key])
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

    set_text = res.get("set")
    if not set_text:
        raise DslSyntaxError("density needs --set", 0, ("set expression",))
    method = res.get("method", "asymptotic")
    r_max = _positive("r_max", res.get("r", 10**6))
    cutoff = res.get("cutoff", 10**5)
    cs = setdsl.compile_set(set_text)
    r_grid = sorted({max(1, r_max // 2**i) for i in range(5)})
    methods = {
        "asymptotic": lambda: density.density_alpha(cs, 0, r_grid),
        "logarithmic": lambda: density.density_alpha(cs, -1, r_grid),
        "alpha": lambda: density.density_alpha(cs, res.get("alpha", -1.0), r_grid),
        "uniform": lambda: density.density_uniform(
            cs, sorted({max(1, r_max // 10), max(2, r_max // 5)}), r_max
        ),
        "analytic": lambda: density.density_analytic(cs, res.get("s_grid", [1.5, 1.25, 1.1, 1.05]), cutoff),
        "buck": lambda: density.density_buck(cs, _parse_chain(res.get("chain", "primorial")),
                                             res.get("level_cutoff", 10**4), truncation=res.get("truncation")),
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
          {"method": method}, set_text=set_text, r_max=r_max, chain=res.get("chain"))
    return EXIT_OK


def _cmd_measure(res: _Resolver) -> int:
    multiples = res.get("multiples")
    euler = res.get("euler")
    if multiples:
        from . import measure

        v = measure.multiples_measure_ie(multiples)
        _emit(res, {"measure": v, "certified": True,
                    "csv": f"measure\n{v.numerator}/{v.denominator}\n"},
              "measure", {"multiples": multiples})
        return EXIT_OK
    from . import setdsl, measure

    if euler:
        cutoff = _positive("prime_bound", res.get("cutoff", 10**4))
        br = measure.euler_product(euler, cutoff)
        _emit(res, {"bracket": br, "notes": br.notes,
                    "csv": f"lo,hi,certified\n{br.lo:.12g},{br.hi:.12g},{br.certified}\n"},
              "measure", {"euler": euler}, prime_bound=cutoff)
        return EXIT_OK
    set_text = res.get("set")
    if not set_text:
        raise DslSyntaxError("measure needs --set, --multiples or --euler", 0, ("input",))
    chain_text = res.get("chain", "primorial")
    level_cap = res.get("levels", 10)
    cutoff = res.get("cutoff", 10**6)
    truncation = _positive("truncation", res.get("truncation"))
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


def _compiled(set_text: str | None, theorem: str):
    if not set_text:
        raise DslSyntaxError(f"verify {theorem} needs --set", 0, ("set expression",))
    from .setdsl import compile_set

    return compile_set(set_text)


def _davenport_erdos(v, family, pmax, rmax, tol, certified_points):
    power = "1" if family == "p" else family[2:] if family.startswith("p^") else ""
    tail = int(power) if power.isdigit() else None  # else explicit moduli
    mods = _int_list(family) if tail is None else v.prime_power_family(tail, pmax)
    return v.davenport_erdos(mods, r_max=rmax, tol=tol, tail_exponent=tail,
                             certified_grid_points=certified_points)


def _union_dense(v, supports, family_flag):
    if not supports:
        raise DslSyntaxError("verify union-dense needs --supports", 0, ("prime sets",))
    return v.union_dense_check([_int_list(part) for part in supports.split(";") if part.strip()],
                               family_flag=family_flag)


def _axioms(v, cases, seed, pair, estimator_cases):
    from . import measure, density

    return density.axiom_suite(cases, seed, pair=pair, estimator_cases=estimator_cases)


# every theorem once: its id maps to the options it reads, each with its
# default, and to its harness, called with the verify module and the
# effective value of each of those options by keyword
_THEOREMS = {
    "davenport-erdos": ({"family": "p^2", "pmax": 31, "rmax": 10**6, "tol": 5e-3, "certified_points": 0},
                        _davenport_erdos),
    "dirichlet": ({"mmax": 100, "pbound": 10**5},
                  lambda v, mmax, pbound: v.dirichlet_coverage(mmax, pbound)),
    "omega": ({"k": 2, "pbound": 13}, lambda v, k, pbound: v.omega_bound_measure(k, pbound)),
    "eulerian": ({"set": None, "mlist": (12,), "expect": "product"},
                 lambda v, set, mlist, expect: v.eulerian_check(_compiled(set, "eulerian"), mlist, expect)),
    "asdmltp": ({"moduli": (4, 9, 25), "rmax": 10**6, "mcheck": None, "tol": 1e-2},
                lambda v, moduli, rmax, mcheck, tol: v.asdmltp_verify(moduli, rmax, mcheck, tol)),
    "poonen-stoll": ({"spec": "kfree", "k": 2, "cutoffs": (10, 100, 1000), "tol": 1e-2},
                     lambda v, spec, k, cutoffs, tol: v.poonen_stoll_tail(spec, k, cutoffs, tol)),
    "mt": ({"set": None, "chain": "primorial", "cutoff": 10**4, "rmax": 10**6, "tol": 1e-2,
            "truncation": None},
           lambda v, set, chain, cutoff, rmax, tol, truncation: v.mt_criterion(
               _compiled(set, "mt"), _parse_chain(chain), cutoff, rmax, tol, truncation)),
    "counterexample": ({"base": 4, "terms": 10},
                       lambda v, base, terms: v.counterexample_cover(base, terms)),
    "union-dense": ({"supports": None, "family_flag": False}, _union_dense),
    "axioms": ({"cases": 100, "seed": 0, "pair": "exact", "estimator_cases": 0}, _axioms),
}


def _cmd_verify(res: _Resolver) -> int:
    theorem = res.args.theorem
    if theorem not in _THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r}; valid ids: {', '.join(_THEOREMS)}")
    reads, harness = _THEOREMS[theorem]
    # every option given on the command line must be one the theorem reads;
    # config-file keys may serve several commands and stay exempt
    unread = sorted(k for k, v in vars(res.args).items()
                    if v is not None and k in _OPTIONS and k not in reads and k not in _COMMON)
    if unread:
        raise ValueError(f"verify {theorem} does not read {', '.join(_OPTIONS[k][0] for k in unread)}")
    if theorem not in ("omega", "union-dense", "counterexample"):
        # leaf first: the set layer before verify; the other way round, a
        # harness that loads both peaks higher. counterexample runs on numpy
        # alone, and without the set layer peaks 2 MB lower
        from . import setdsl
    from . import verify

    rep = harness(verify, **{k: res.get(k, default) for k, default in reads.items()})
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

    op = res.args.sn_op
    if op in ("mul", "rho"):
        operands = res.args.operands
        v = (sn.mul(*map(sn.parse_supernatural, operands)) if op == "mul"
             else sn.rho(int(operands[0])))
        text = sn.to_text(v)
        payload = {"result": text, "csv": f"result\n{text}\n"}
    else:
        # limit: valuation trajectories of a named sequence
        name = res.get("seq", "factorial")
        if name not in _SN_SEQUENCES:
            raise ValueError(f"unknown sequence {name!r}; choose from {', '.join(sorted(_SN_SEQUENCES))}")
        terms = res.get("terms", 30)
        pmax = res.get("pmax", 7)
        window = res.get("window", 5)
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


def _add_options(parser: argparse.ArgumentParser, keys) -> None:
    """Add the options of these keys as _OPTIONS declares them, None when not given."""
    for key in keys:
        flag, cast, *extra = _OPTIONS[key]
        kind = {"action": "store_true"} if cast is _bool else {"type": cast}
        parser.add_argument(flag, dest=key, default=None, **kind, **(extra[0] if extra else {}))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zhat",
        description="Densities, profinite closure measures, and theorem "
                    "harnesses for integer sets.",
    )
    p.add_argument("--config", help="key=value config file; flags override it")
    common = argparse.ArgumentParser(add_help=False)
    _add_options(common, _COMMON)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("density", parents=[common], help="density estimates for a DSL set")
    _add_options(d, ("set", "method", "alpha", "r", "cutoff", "s_grid", "chain", "level_cutoff",
                     "truncation"))
    m = sub.add_parser("measure", parents=[common], help="closure measure traces, IE values, Euler brackets")
    _add_options(m, ("set", "chain", "levels", "cutoff", "multiples", "euler", "truncation"))
    # one parser for every theorem: its flags are the union of the rows
    v = sub.add_parser("verify", parents=[common], help="theorem harnesses with PASS/FAIL/INCONCLUSIVE verdicts")
    v.add_argument("theorem", help="|".join(_THEOREMS))
    _add_options(v, dict.fromkeys(k for reads, _ in _THEOREMS.values() for k in reads
                                  if k not in _COMMON))

    s = sub.add_parser("sn", parents=[common], help="supernatural number arithmetic and limits")
    ss = s.add_subparsers(dest="sn_op", required=True)
    mul = ss.add_parser("mul", parents=[common])
    mul.add_argument("operands", nargs=2)
    rho = ss.add_parser("rho", parents=[common])
    rho.add_argument("operands", nargs=1)
    lim = ss.add_parser("limit", parents=[common])
    _add_options(lim, ("seq", "pmax", "terms", "window"))

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

"""Command-line interface: pinned outputs, exit codes, reproducibility."""

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from zhat import _counts, _primes, cli, density

CLI = [sys.executable, "-m", "zhat.cli"]


def run_cli(*args, expect=0):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=240
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout[:2000]}"
        f"\nstderr: {proc.stderr[:2000]}"
    )
    return proc


def run_json(*args, expect=0):
    return json.loads(run_cli(*args, expect=expect).stdout)


# ---------------------------------------------------------------------------
# density subcommand


def test_density_squarefree_asymptotic():
    payload = run_json(
        "density", "--set", "kfree(2)", "--method", "asymptotic", "--r", "1e6"
    )
    rep = payload["reports"]["asymptotic"]
    assert rep["values"][-1] == pytest.approx(0.6079, abs=2e-3)
    assert payload["config"]["set_text"] == "kfree(2)"
    assert "seed" in payload


def test_density_benford_log_weight():
    payload = run_json(
        "density", "--set", "leadingdigit(1,10)", "--method", "alpha",
        "--alpha", "-1", "--r", "1e6",
    )
    # cumulative harmonic ratio keeps an O(1/log r) bias; loose tolerance
    rep = payload["reports"]["alpha"]
    assert rep["values"][-1] == pytest.approx(0.30103, abs=2e-2)


def test_density_all_methods_agree_on_periodic_set():
    payload = run_json(
        "density", "--set", "cong(1,3)", "--method", "all", "--r", "1e5"
    )
    reports = payload["reports"]
    third = 1.0 / 3.0
    tol = {"asymptotic": 2e-2, "logarithmic": 6e-2, "uniform": 2e-2,
           "analytic": 6e-2, "buck": 2e-2}
    for method, rep in reports.items():
        vals = rep["values"]
        probe = vals[0] if method == "analytic" else vals[-1]
        if method == "uniform":
            probe = sum(vals[-1]) / 2.0
        assert probe == pytest.approx(third, abs=tol[method]), method


# ---------------------------------------------------------------------------
# measure subcommand


def test_measure_multiples_exact():
    payload = run_json("measure", "--multiples", "4,6")
    # complement of the multiple-set: 1 - (1/4 + 1/6 - 1/12)
    assert payload["measure"]["num"] == 2
    assert payload["measure"]["den"] == 3
    assert payload["certified"] is True
    # the same set through the DSL: a clopen complement is exact-mode
    payload = run_json("measure", "--set", "!multiples(4,6)", "--chain", "primorial^2",
                       "--cutoff", "1000")
    assert [lv["mode"] for lv in payload["levels"]] == ["exact"] * 3
    assert [(lv["measure"]["num"], lv["measure"]["den"]) for lv in payload["levels"]] == [
        (3, 4), (2, 3), (2, 3)]
    assert payload["certified"] is True


def test_measure_trace_csv_ends_at_pinned_fraction():
    proc = run_cli(
        "measure", "--set", "kfree(2)", "--chain", "primorial^2",
        "--levels", "6", "--output", "csv",
    )
    rows = [r for r in proc.stdout.strip().splitlines() if r]
    assert rows[0].startswith("level_index,")
    last = rows[-1].split(",")
    assert last[1] == "44100"
    assert (last[3], last[4]) == ("768", "1225")


@pytest.mark.parametrize("cap", [3, 10])
def test_measure_levels_cap_json_and_csv_agree(cap, capsys):
    args = ["measure", "--set", "primes", "--levels", str(cap)]
    assert cli.main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    moduli = [lv["modulus"] for lv in payload["levels"]]
    assert moduli == [2, 6, 30, 210, 2310, 30030, 510510][:cap]
    rows = payload["csv"].splitlines()[1:]
    assert [int(row.split(",")[1]) for row in rows] == moduli
    assert cli.main(args + ["--output", "csv"]) == 0
    assert capsys.readouterr().out == payload["csv"]


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_measure_levels_cap_below_one_is_usage_error(cap, capsys):
    assert cli.main(["measure", "--set", "primes", f"--levels={cap}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage: levels must be >= 1, got {cap}\n" and captured.out == ""


def test_measure_sum_of_two_squares_reaches_the_fifth_square_primorial(capsys):
    # the local work at 5336100 is 4^2 + 9^2 + 25^2 + 49^2 + 121^2 points
    assert cli.main(["measure", "--set", "image(x^2+y^2)", "--chain", "primorial^2",
                     "--cutoff", "1e8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [lv["modulus"] for lv in payload["levels"]] == [4, 36, 900, 44100, 5336100]
    at_44100 = payload["levels"][3]["measure"]
    assert (at_44100["num"], at_44100["den"]) == (43, 84)
    assert payload["notes"] == []


@pytest.mark.parametrize("args, notes", [
    (["measure", "--set", "primes", "--levels", "3"], lambda doc: doc["notes"]),
    (["density", "--set", "primes", "--method", "buck", "--level-cutoff", "1e3"],
     lambda doc: doc["reports"]["buck"]["notes"]),
])
def test_prime_level_measures_state_the_dirichlet_assumption(args, notes, capsys):
    # pi_m(primes) counts every unit class mod m, which takes Dirichlet's
    # theorem; sets without primes carry no such note
    assert cli.main(args) == 0
    assert any("Dirichlet" in n for n in notes(json.loads(capsys.readouterr().out)))
    assert cli.main([a if a != "primes" else "kfree(2)" for a in args]) == 0
    assert not any("Dirichlet" in n for n in notes(json.loads(capsys.readouterr().out)))


def test_buck_in_dimension_two_reads_the_default_box(capsys):
    # the default box [-10^6, 10^6]^2 was over the box budget: exit 3, no stdout
    args = ["density", "--set", "coprime(2)", "--method", "buck", "--chain", "primorial",
            "--level-cutoff", "1000"]
    assert cli.main(args) == 0
    report = json.loads(capsys.readouterr().out)["reports"]["buck"]
    assert report["grid"] == [2, 6, 30, 210]
    assert cli.main(args + ["--N", "499"]) == 0
    assert json.loads(capsys.readouterr().out)["reports"]["buck"] == report


def test_measure_euler_bracket():
    payload = run_json("measure", "--euler", "1-1/p^2", "--cutoff", "1e4")
    lo, hi = payload["bracket"]["lo"], payload["bracket"]["hi"]
    import math

    assert lo <= 6.0 / math.pi**2 <= hi
    assert hi - lo < 1e-3


# ---------------------------------------------------------------------------
# verify subcommand exit codes


def test_verify_counterexample_passes():
    payload = run_json("verify", "counterexample", "--base", "4", "--terms", "10")
    assert payload["report"]["verdict"] == "PASS"


def test_verify_dirichlet_low_bound_is_inconclusive():
    run_cli("verify", "dirichlet", "--mmax", "100", "--pbound", "100", expect=3)


def test_verify_dirichlet_past_the_residue_budget_exits_at_once():
    # (m_max - 1) * (pi(P) + m_max) is about 10^18 here; the level loop
    # would run for hours
    start = time.monotonic()
    proc = run_cli("verify", "dirichlet", "--mmax", "1e9", "--pbound", "1e6", expect=3)
    assert time.monotonic() - start < 30
    assert proc.stdout == "" and "exceeds residue budget" in proc.stderr


def test_sieve_past_the_box_budget_is_inconclusive():
    proc = run_cli("measure", "--euler", "1-1/p^2", "--cutoff", "1e10", expect=3)
    assert proc.stdout == "" and "exceeds box budget" in proc.stderr


def test_verify_poonen_stoll_units_inconclusive():
    run_cli("verify", "poonen-stoll", "--spec", "units", expect=3)


def test_exhausted_budget_is_inconclusive():
    proc = run_cli("verify", "omega", "--pbound", "100", expect=3)
    assert proc.stdout == "" and "more than 20 primes" in proc.stderr
    # the first level already exceeds the residue budget: 479^3 local points
    proc = run_cli("measure", "--set", "image(x*y*z)", "--chain", "explicit:479", expect=3)
    assert "exceeds budget" in proc.stderr


def test_budget_stop_keeps_the_levels_computed(capsys):
    # a level count stops where its local work, the sum of q over q || m,
    # is over the residue budget of 1e8: at the prime power 100000007
    top = 9699690 * 100000007
    chain = "explicit:2,6,30,210,2310,30030,510510,9699690," + str(top)
    assert cli.main(["density", "--set", "multiples(4,6)", "--method", "buck",
                     "--chain", chain, "--level-cutoff", "1e15"]) == 0
    rep = json.loads(capsys.readouterr().out)["reports"]["buck"]
    assert rep["notes"][-1].startswith(f"complement: stopped before level 9 (m={top}): local work")
    assert rep["lower_est"] == pytest.approx(1 / 6) and rep["upper_est"] == pytest.approx(1 / 2)
    # an image mask stops where m is over the budget: primorial level 9,
    # m = 223092870; the gap trace of kfree(2) stays near 1 - 6/pi^2 on
    # squarefree levels
    note = "stopped before level 9 (m=223092870): residue enumeration at level m=223092870"
    assert cli.main(["verify", "mt", "--set", "kfree(2)", "--chain", "primorial",
                     "--cutoff", "1e9", "--rmax", "1000"]) == 3
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["narrative"][-2].startswith(note)
    assert rep["quantities"]["levels"] == [2, 6, 30, 210, 2310, 30030, 510510, 9699690]
    assert len(rep["quantities"]["gap_trace"]) == 8 and rep["verdict"] == "INCONCLUSIVE"


def test_union_trace_runs_past_the_old_level_budget(capsys):
    # kfree(2)|cong(1,4) at m = P^2, P a primorial: |kfree image| =
    # prod (p^2 - 1), the classes 1 mod 4 are m/4, and they meet the kfree
    # image in the classes 1 mod 4 times prod over odd p of (p^2 - 1)
    ps = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    start = time.perf_counter()
    assert cli.main(["measure", "--set", "kfree(2)|cong(1,4)", "--chain", "primorial^2",
                     "--cutoff", "1e30", "--levels", "20"]) == 0
    assert time.perf_counter() - start < 1.0
    doc = json.loads(capsys.readouterr().out)
    levels = [math.prod(ps[:k]) ** 2 for k in range(1, len(ps) + 1)]
    assert [lv["modulus"] for lv in doc["levels"]] == levels  # the last is 9.3e28
    for k, lv in enumerate(doc["levels"], start=1):
        sq = math.prod(Fraction(p * p - 1, p * p) for p in ps[:k])
        want = sq + Fraction(1, 4) - sq / Fraction(3, 4) / 4
        assert (Fraction(lv["measure"]["num"], lv["measure"]["den"]), lv["mode"]) == (want, "exact")
    assert doc["certified"] and doc["notes"] == []


def test_davenport_erdos_past_the_old_lcm_cap():
    # the p^2 family up to 37 has lcm ~5.5e25; IE factors over the 12 primes
    rep = run_json("verify", "davenport-erdos", "--family", "p^2", "--pmax", "37")["report"]
    assert rep["verdict"] == "PASS"
    ps = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    want = math.prod(1 - Fraction(1, p * p) for p in ps)
    at_one = rep["quantities"]["delta_at_1"]
    assert Fraction(at_one["num"], at_one["den"]) == want


def test_verify_unknown_theorem_usage_error():
    proc = subprocess.run(
        CLI + ["verify", "no-such-thing"], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "valid ids" in proc.stderr


def test_verify_axioms_deformed():
    payload = run_json(
        "verify", "axioms", "--cases", "30", "--pair", "deformed", "--seed", "5"
    )
    assert payload["report"]["verdict"] == "PASS"
    axioms = payload["report"]["quantities"]["axioms"]
    failed = [a["name"] for a in axioms if not a["passed"]]
    assert failed == ["ideal-scaling"]


@pytest.mark.parametrize("pair,swapped", [("exact", density.deformed_pair),
                                           ("deformed", density.exact_pair)])
def test_verify_axioms_fails_when_the_pair_breaks_its_expected_axioms(pair, swapped, monkeypatch, capsys):
    # the exact pair deformed fails ideal-scaling; the deformed pair made
    # exact fails nothing, where ideal-scaling is expected to fail
    monkeypatch.setitem(density._PAIRS, pair, swapped)
    assert cli.main(["verify", "axioms", "--cases", "20", "--pair", pair]) == cli.EXIT_FAIL
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["verdict"] == "FAIL"
    failed = [a["name"] for a in report["quantities"]["axioms"] if not a["passed"]]
    assert failed == (["ideal-scaling"] if pair == "exact" else [])


@pytest.mark.parametrize("args", [["--cases", "0"], ["--cases", "-3"],
                                  ["--cases", "5", "--estimator-cases", "-1"]])
def test_verify_axioms_rejects_empty_or_negative_case_counts(args):
    proc = run_cli("verify", "axioms", *args, expect=2)
    assert proc.stdout == "" and "usage:" in proc.stderr


# ---------------------------------------------------------------------------
# supernatural subcommand


def test_sn_mul():
    payload = run_json("sn", "mul", "2^inf*3^2", "3*5")
    assert payload["result"] == "2^inf*3^3*5"


def test_sn_rho_negative_argument():
    payload = run_json("sn", "rho", "-12")
    assert payload["result"] == "2^2*3"


def test_sn_rho_large_prime_is_quick():
    # a 31-digit prime: Miller-Rabin, where trial division would not finish
    n = "1000000000000000000000000000057"
    start = time.perf_counter()
    payload = run_json("sn", "rho", n)
    assert payload["result"] == n
    assert time.perf_counter() - start < 3.0  # interpreter start-up included


def test_sn_mul_accepts_a_large_prime_literal():
    payload = run_json("sn", "mul", "2305843009213693951", "3")
    assert payload["result"] == "3*2305843009213693951"


def test_exhausted_rho_budget_is_inconclusive(monkeypatch, capsys):
    monkeypatch.setattr(_primes, "RHO_BUDGET", 64)
    assert cli.main(["sn", "rho", str(33554383 * 33554393)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("inconclusive: ") and "Pollard-Brent" in err


def test_sn_limit_factorial_divergence():
    proc = run_cli(
        "sn", "limit", "--seq", "factorial", "--terms", "30", "--pmax", "7",
        "--output", "csv",
    )
    rows = [r.split(",") for r in proc.stdout.strip().splitlines()]
    assert rows[0] == ["prime", "last_valuation", "status"]
    table = {int(r[0]): (int(r[1]), r[2]) for r in rows[1:]}
    assert table[2] == (26, "diverging")
    assert table[7] == (4, "diverging")


def test_sn_limit_named_sequences():
    # primorials p_1 * ... * p_k: every prime up to 7 divides from its own
    # term on, once
    payload = run_json("sn", "limit", "--seq", "primorial", "--terms", "6", "--pmax", "7",
                       "--window", "3")
    assert payload["profile"]["7"] == {"last_valuation": 1, "status": "stabilized",
                                       "trajectory_tail": [1, 1, 1]}
    # k! + k for k = 1..5 is 2, 4, 9, 28, 125
    payload = run_json("sn", "limit", "--seq", "factorial_shift", "--terms", "5", "--pmax", "5",
                       "--window", "5")
    assert payload["profile"]["2"]["trajectory_tail"] == [1, 2, 0, 2, 0]
    assert payload["profile"]["5"]["trajectory_tail"] == [0, 0, 0, 0, 3]
    proc = run_cli("sn", "limit", "--seq", "factorials", expect=2)
    assert proc.stderr == ("usage: unknown sequence 'factorials'; "
                           "choose from factorial, factorial_shift, primorial\n")


def test_sn_limit_past_the_profile_budget_is_inconclusive():
    proc = run_cli("sn", "limit", "--seq", "factorial", "--terms", "10", "--pmax", "1e8",
                   expect=3)
    assert proc.stdout == ""
    assert proc.stderr == ("inconclusive: primes up to 100000000 may number more than "
                           "the profile budget 100000\n")


def _cap_address_space():
    # without the work budget the second command would hold about 9 GB of
    # factorials; under the cap it fails fast instead
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("args", [("--terms", "2000", "--pmax", "1e5"),
                                  ("--seq", "factorial", "--terms", "100000")])
def test_sn_limit_past_the_work_budget_exits_at_once(args):
    # one BLAS thread: OpenBLAS reserves address space per thread
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    start = time.monotonic()
    proc = subprocess.run(CLI + ["sn", "limit", *args], capture_output=True, text=True,
                          env=env, timeout=10, preexec_fn=_cap_address_space)
    assert time.monotonic() - start < 1
    assert proc.returncode == 3 and proc.stdout == ""
    assert "exceed the profile work budget" in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("density",), "density needs --set (expected set expression)"),
    (("verify", "union-dense"), "verify union-dense needs --supports (expected prime sets)"),
])
def test_missing_input_names_what_was_expected(args, message):
    proc = run_cli(*args, expect=2)
    assert proc.stderr == f"parse error: syntax error at position 0: {message}\n"


def test_sn_parse_error_is_usage():
    run_cli("sn", "rho", "0", expect=2)


# ---------------------------------------------------------------------------
# reproducibility, config files, formats


@pytest.mark.parametrize("args, method, mode", [
    (["--set", "kfree(2)", "--method", "asymptotic", "--r", "1e4"], "asymptotic", "positive"),
    (["--set", "kfree(2)", "--method", "uniform", "--r", "1e4"], "uniform", "positive"),
    (["--set", "coprime(2)", "--method", "asymptotic", "--r", "50"], "asymptotic", "symmetric"),
])
def test_density_mode_follows_the_dimension(args, method, mode, capsys):
    # the box is [1, r] in dimension 1 and [-r, r]^n above
    assert cli.main(["density", *args]) == 0
    assert json.loads(capsys.readouterr().out)["reports"][method]["params"]["mode"] == mode


def test_identical_invocations_are_byte_identical():
    args = ["density", "--set", "cong(1,3)", "--method", "asymptotic",
            "--r", "1e4", "--seed", "9"]
    out1 = run_cli(*args).stdout
    out2 = run_cli(*args).stdout
    assert out1 == out2


@pytest.mark.parametrize("text,value", [("1e23", 10**23), ("-1e23", -10**23), ("2.5e6", 2500000)])
def test_scientific_notation_reads_exactly(text, value):
    # through float, 1e23 would be 99999999999999991611392
    assert cli._num(text) == value


def test_a_fractional_number_is_not_an_integer(capsys):
    with pytest.raises(argparse.ArgumentTypeError, match="not an integer: '1.5'"):
        cli._num("1.5")
    assert cli.main(["density", "--set", "primes", "--r", "1.5"]) == 2


@pytest.mark.parametrize("args", [
    ["measure", "--set", "kfree(2)", "--chain", "explicit:0,2"],
    ["density", "--set", "kfree(2)", "--method", "buck", "--chain", "0,6"],
    ["verify", "mt", "--set", "kfree(2)", "--chain", "0,6"],
])
def test_chain_modulus_below_one_is_usage_error(args, capsys):
    assert cli.main(args) == 2
    assert capsys.readouterr().err == "usage: explicit chain moduli must be >= 1\n"


@pytest.mark.parametrize("value", ["1e400", "inf", "nan"])
def test_non_finite_number_is_usage_error(value, tmp_path, capsys):
    assert cli.main(["density", "--set", "primes", "--r", value]) == 2
    assert f"not a finite number: '{value}'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"r = {value}\n")
    assert cli.main(["--config", str(cfg), "density", "--set", "primes"]) == 2
    assert capsys.readouterr().err == f"usage: not a finite number: '{value}'\n"


@pytest.mark.parametrize("args", [
    ["verify", "mt", "--set", "kfree(2)", "--rmax", "0"],
    ["verify", "mt", "--set", "kfree(2)", "--rmax=-1"],
    ["verify", "poonen-stoll", "--cutoffs=-5"],
    ["verify", "poonen-stoll", "--cutoffs", "0"],
    ["verify", "poonen-stoll", "--cutoffs", ","],
    ["verify", "union-dense", "--supports", "4;6"],
    ["verify", "davenport-erdos", "--family", "p^2", "--pmax", "31", "--rmax", "-5"],
    ["verify", "davenport-erdos", "--family", "p^2", "--pmax", "31", "--certified-points", "-3"],
    ["verify", "asdmltp", "--moduli", "4,9,25", "--rmax", "0"],
])
def test_bad_verify_input_is_usage_error(args, capsys):
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: ") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["0", "-5"])
def test_verify_asdmltp_rejects_a_check_modulus_below_one(value, capsys):
    assert cli.main(["verify", "asdmltp", "--rmax", "1e4", "--mcheck", value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage: m_check must be >= 1, got {value}\n"
    assert captured.out == ""


def test_verify_asdmltp_truncation_shortfall_is_inconclusive(capsys):
    # 262145 is prime to 4, 9 and 25, so every class mod 262145 lies in the
    # exact image; the members up to 10^6 miss 323 of them, a shortfall of
    # the truncation, not a failure of the theorem
    assert cli.main(["verify", "asdmltp", "--moduli", "4,9,25", "--mcheck", "262145"]) == 3
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["verdict"] == "INCONCLUSIVE"
    assert rep["narrative"][-1] == ("truncated image at m=262145 (261822 classes) misses 323 classes "
                                    "of the exact local conditions: truncation shortfall")


def test_verify_asdmltp_fails_on_a_class_outside_the_exact_image(monkeypatch, capsys):
    # an exact mask that drops the class 1 mod 36, which the member 1 hits
    level_mask = _counts.level_mask

    def dropped(*args):
        mask = level_mask(*args).copy()
        mask[1] = False
        return mask

    monkeypatch.setattr(_counts, "level_mask", dropped)
    assert cli.main(["verify", "asdmltp", "--moduli", "4,9,25", "--mcheck", "36"]) == 1
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["verdict"] == "FAIL"
    assert rep["narrative"][-1] == ("truncated image at m=36 (24 classes) has 1 of them outside the "
                                    "exact local conditions")


def test_verify_tol_zero_is_kept(tmp_path, capsys):
    # 0 is a tolerance, not a request for the theorem's default
    assert cli.main(["verify", "asdmltp", "--rmax", "1e4", "--tol", "0"]) == 3
    assert json.loads(capsys.readouterr().out)["report"]["inputs"]["tol"] == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 0\n")
    assert cli.main(["--config", str(cfg), "verify", "asdmltp", "--rmax", "1e4"]) == 3
    assert json.loads(capsys.readouterr().out)["report"]["inputs"]["tol"] == 0
    assert cli.main(["verify", "asdmltp", "--rmax", "1e4"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["inputs"]["tol"] == 1e-2


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_verify_tol_must_be_finite_and_nonnegative(value, tmp_path, capsys):
    message = f"tolerance must be a finite number >= 0: '{value}'"
    assert cli.main(["verify", "davenport-erdos", f"--tol={value}"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tol = {value}\n")
    assert cli.main(["--config", str(cfg), "verify", "davenport-erdos"]) == 2
    assert capsys.readouterr().err == f"usage: {message}\n"


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample run\nset = cong(1,3)\nmethod = asymptotic\nr = 1e4\n")
    p1 = run_json("--config", str(cfg), "density")
    assert p1["config"]["set_text"] == "cong(1,3)"
    assert p1["config"]["r_max"] == 10**4
    p2 = run_json("--config", str(cfg), "density", "--r", "2e4")
    assert p2["config"]["r_max"] == 2 * 10**4


@pytest.mark.parametrize("value, dense", [("false", False), ("no", False), ("0", False),
                                          ("true", True), ("Yes", True), ("1", True)])
def test_config_file_family_flag_is_parsed(value, dense, tmp_path, capsys):
    # the smallest hitting set of these supports has 4 primes, above the
    # default max hitting size, so only the flag makes the union dense
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"family_flag = {value}\n")
    assert cli.main(["--config", str(cfg), "verify", "union-dense", "--supports", "2;3;5;7"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["quantities"]["dense"] is dense


@pytest.mark.parametrize("args, flags", [
    (("omega", "--k", "2", "--pmax", "73"), "--pmax"),
    (("eulerian", "--set", "kfree(2)", "--N", "5", "--certified-points", "3"), "--certified-points, --N"),
    (("union-dense", "--supports", "2;3", "--family", "p"), "--family"),
], ids=["omega-pmax", "eulerian-N", "union-dense-family"])
def test_verify_refuses_options_its_theorem_does_not_read(args, flags, capsys):
    # omega reads --pbound, not --pmax: run at the default bound, this
    # passed; now nothing runs and nothing goes to stdout
    assert cli.main(["verify", *args]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", f"usage: verify {args[0]} does not read {flags}\n")


def test_verify_takes_unread_keys_from_a_config_file(tmp_path, capsys):
    # one config file may serve several commands: only flags are checked
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pmax = 73\nseed = 3\n")
    assert cli.main(["--config", str(cfg), "verify", "omega", "--k", "2", "--seed", "4",
                     "--output", "csv"]) == 0
    assert capsys.readouterr().out == "theorem,verdict\nomega,PASS\n"


def test_config_file_family_flag_rejects_other_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family_flag = maybe\n")
    assert cli.main(["--config", str(cfg), "verify", "union-dense", "--supports", "2;3;5;7"]) == 2
    assert capsys.readouterr().err == "usage: not a true/false value: 'maybe'\n"


@pytest.mark.parametrize("value", ["JSON", "xml"])
@pytest.mark.parametrize("args", [("measure", "--multiples", "4,6"), ("sn", "rho", "12")])
def test_config_file_output_is_validated_like_the_flag(args, value, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output = {value}\n")
    assert cli.main(["--config", str(cfg), *args]) == 2
    assert capsys.readouterr() == ("", f"usage: output must be one of json, csv, table, got {value!r}\n")
    cfg.write_text("output = csv\n")
    assert cli.main(["--config", str(cfg), "sn", "rho", "12"]) == 0
    assert capsys.readouterr().out == "result\n2^2*3\n"


def test_table_output_renders_key_value_lines():
    proc = run_cli("measure", "--multiples", "4,6", "--output", "table")
    assert "measure" in proc.stdout
    assert "{" not in proc.stdout.splitlines()[0]


# the exact table form of three commands, recorded before the output
# encoder moved
TABLE_OUTPUTS = {
    ("measure", "--multiples", "4,6"): (
        'certified: True\n'
        'config: {"command": "measure", "extra": {"multiples": [4, 6]}, "output": "table", '
        '"seed": 0}\n'
        'measure: {"den": 3, "float": 0.6666666666666666, "num": 2}\n'
        'seed: 0\n'
    ),
    ("measure", "--euler", "1-1/p^2"): (
        'bracket: {"certified": true, "cutoff": 10000, "hi": 0.6079330691140984, '
        '"lo": 0.6078114946580399}\n'
        'config: {"command": "measure", "extra": {"euler": "1-1/p^2"}, "output": "table", '
        '"prime_bound": 10000, "seed": 0}\n'
        'notes: \n'
        'seed: 0\n'
    ),
    ("verify", "omega"): (
        'config: {"command": "verify", "extra": {"theorem": "omega"}, "output": "table", '
        '"seed": 0}\n'
        'report: {"inputs": {"k": 2, "prime_bound": 13}, "narrative": ["levels over primes '
        '[2, 3, 5, 7, 11, 13]", "proportions match the closed form exactly: True", "strictly '
        'decreasing once the prime count exceeds k: True", "direct residue enumeration mod '
        '30030 agrees: True"], "quantities": {"closed_form": [{"den": 1, "float": 1.0, '
        '"num": 1}, {"den": 1, "float": 1.0, "num": 1}, {"den": 30, "float": '
        '0.9666666666666667, "num": 29}, {"den": 15, "float": 0.9333333333333333, "num": 14}, '
        '{"den": 11, "float": 0.9090909090909091, "num": 10}, {"den": 15015, "float": '
        '0.8873792873792874, "num": 13324}], "direct_count": 26648, "trace": [{"den": 1, '
        '"float": 1.0, "num": 1}, {"den": 1, "float": 1.0, "num": 1}, {"den": 30, "float": '
        '0.9666666666666667, "num": 29}, {"den": 15, "float": 0.9333333333333333, "num": 14}, '
        '{"den": 11, "float": 0.9090909090909091, "num": 10}, {"den": 15015, "float": '
        '0.8873792873792874, "num": 13324}]}, "theorem": "omega", "verdict": "PASS"}\n'
        'seed: 0\n'
    ),
}


@pytest.mark.parametrize("args", list(TABLE_OUTPUTS), ids=" ".join)
def test_table_output_is_pinned(args, capsys):
    assert cli.main([*args, "--output", "table"]) == 0
    assert capsys.readouterr().out == TABLE_OUTPUTS[args]


def test_bad_dsl_is_usage_error():
    proc = subprocess.run(
        CLI + ["density", "--set", "kfree(", "--method", "asymptotic", "--r", "100"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_missing_required_set_is_usage_error():
    proc = subprocess.run(
        CLI + ["density", "--method", "asymptotic"], capture_output=True, text=True
    )
    assert proc.returncode == 2

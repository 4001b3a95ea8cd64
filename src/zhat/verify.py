"""Theorem-level verification harnesses.

Each operation assembles exact measures, certified brackets, and estimator
runs into a report with a three-way verdict: FAIL is reserved for
contradictions between certified quantities (an implementation bug, not a
mathematical discovery), estimator shortfalls or exhausted budgets yield
INCONCLUSIVE, and PASS means every check landed inside its stated
tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, islice, takewhile
from typing import TYPE_CHECKING

from . import _primes
# each harness imports the numpy and set layers it runs, leaf first
# (setdsl, then measure, then analytic or density), so no chain of
# half-imported modules builds up; omega, union-dense and counterexample run
# on _primes alone
from ._primes import (FAIL, INCONCLUSIVE, PASS, RESIDUE_BUDGET, BudgetExceeded, DslValueError,
                      VerificationReport)

if TYPE_CHECKING:
    from .measure import ModulusChain
    from .setdsl import CompiledSet


def prime_power_family(k: int, prime_bound: int) -> list[int]:
    """p^k over primes p <= bound, the standard modulus family for k-free
    style investigations."""
    if k < 1:
        raise DslValueError("exponent must be >= 1")
    return [p**k for p in takewhile(lambda p: p <= prime_bound, _primes.iter_primes())]


# ------------------------------------------------------------- main theorem


# the s grid of the closed form and the radii 10^e of the logarithmic
# estimate in davenport_erdos
DE_S_GRID = (2.0, 1.5, 1.25, 1.1, 1.02, 1.005, 1.001)
DE_LOG_EXPONENTS = (65, 70, 75, 80, 85)


def davenport_erdos(moduli, r_max: int = 10**7, tol: float = 5e-3,
                    tail_exponent: int | None = None,
                    certified_grid_points: int = 0) -> VerificationReport:
    """Existence of the logarithmic/analytic density for complements of
    unions of multiple-sets, checked three ways: exact inclusion-exclusion
    measures along the family prefix (nonincreasing), the Dirichlet closed
    form in s (nondecreasing toward s=1, where it meets the measure
    exactly), and empirical plain/logarithmic density estimates that must
    land inside the limit bracket.

    With tail_exponent=k the modulus family is understood as the truncation
    of the infinite family p^k over all primes: the limit bracket then opens
    downward by the certified Euler tail (k >= 2), or all the way to 0 with
    a DIVERGENT-TAIL note (k = 1)."""
    from .setdsl import Complement, Multiples, compile_set
    from .measure import multiples_measure_prefixes
    from .analytic import de_delta_bracket, de_delta_exact
    from .density import density_alpha

    mods = tuple(int(a) for a in moduli)
    if not mods:
        raise DslValueError("empty modulus family")
    if r_max < 1:
        raise DslValueError(f"r_max must be >= 1, got {r_max}")
    if certified_grid_points < 0:
        raise DslValueError(f"certified_grid_points must be >= 0, got {certified_grid_points}")
    narrative = []
    quantities: dict = {}

    prefix = multiples_measure_prefixes(mods)
    nonincreasing = all(a >= b for a, b in zip(prefix, prefix[1:]))
    quantities["measure_prefix"] = prefix
    narrative.append(
        f"exact measures along the family prefix: {[float(v) for v in prefix]}"
    )

    ss = list(DE_S_GRID)
    dvals = [float(de_delta_exact(mods, s)) for s in ss]
    monotone = all(a >= b - 1e-12 for a, b in zip(dvals, dvals[1:]))
    at_one = de_delta_exact(mods, 1)
    meets_measure = at_one == prefix[-1]
    quantities["delta_values"] = dict(zip(map(str, ss), dvals))
    quantities["delta_at_1"] = at_one
    narrative.append(f"closed form nondecreasing toward s=1: {monotone}; meets measure exactly: {meets_measure}")

    if certified_grid_points > 0:
        # rational s grid with denominator 16, strict bracket separation is
        # an exact rational proof of monotonicity point to point
        grid = [1 + Fraction(k, 16) for k in range(1, certified_grid_points + 1)]
        brackets = [de_delta_bracket(mods, s, digits=12) for s in grid]
        separated = all(b[0] > a[1] for a, b in zip(brackets, brackets[1:]))
        monotone = monotone and separated
        quantities["certified_separations"] = separated
        narrative.append(
            f"{len(grid)}-point certified bracket grid strictly increasing: {separated}"
        )

    if tail_exponent is None:
        limit_lo, limit_hi = prefix[-1], prefix[-1]
    elif tail_exponent >= 2:
        top_prime = max(_primes.factorize(a).popitem()[0] for a in mods)
        tail = 2.0 * top_prime ** (1 - tail_exponent) / (tail_exponent - 1)
        limit_lo, limit_hi = float(prefix[-1]) * math.exp(-tail), prefix[-1]
        narrative.append(f"family truncates p^{tail_exponent}; certified tail opens the bracket to {float(limit_lo):.6f}")
    else:
        limit_lo, limit_hi = 0.0, prefix[-1]
        narrative.append("DIVERGENT-TAIL: the full family drives the measure to 0")
    quantities["limit_bracket"] = [float(limit_lo), float(limit_hi)]

    cs = compile_set(Complement(Multiples(mods)))
    r_grid = sorted({max(1, r_max // 4**i) for i in range(3)})
    das = density_alpha(cs, 0, r_grid, tail_window=3)
    try:
        dlog = density_alpha(cs, -1, [10**e for e in DE_LOG_EXPONENTS],
                             tail_window=len(DE_LOG_EXPONENTS))
    except BudgetExceeded as e:
        # the floor sums at huge radii need every lcm below the radius as a
        # term; the exact parts above do not depend on them
        dlog = None
        narrative.append(f"logarithmic estimate skipped: {e}")
    quantities["asymptotic_estimate"] = [das.lower_est, das.upper_est]
    quantities["log_estimate"] = None if dlog is None else [dlog.lower_est, dlog.upper_est]

    def dist(x: float) -> float:
        return max(float(limit_lo) - x, x - float(limit_hi), 0.0)

    das_ok = max(dist(das.lower_est), dist(das.upper_est)) <= tol
    dlog_ok = dlog is not None and max(dist(dlog.lower_est), dist(dlog.upper_est)) <= tol
    narrative.append(
        f"plain density estimate within {tol} of the limit bracket: {das_ok}; "
        f"logarithmic estimate: {'not computed' if dlog is None else dlog_ok}"
    )

    if not (nonincreasing and meets_measure):
        verdict = FAIL
        narrative.append("certified identities failed; this indicates a bug")
    elif not (monotone and das_ok and dlog_ok):
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    return VerificationReport(
        "davenport-erdos",
        {"moduli": list(mods), "s_grid": ss, "r_max": r_max, "tol": tol,
         "tail_exponent": tail_exponent, "log_exponents": list(DE_LOG_EXPONENTS)},
        quantities, verdict, tuple(narrative),
    )


# ------------------------------------------------------------- coverage


def dirichlet_coverage(m_max: int, prime_bound: int) -> VerificationReport:
    """Residue coverage by primes: for every level m, the primes up to the
    bound should hit every unit class mod m plus the classes of the primes
    dividing m. Finite truncation can only undershoot, so a missing class
    is INCONCLUSIVE (raise the bound), never FAIL."""
    import numpy as np

    from .setdsl import compile_set

    if m_max < 2:
        raise DslValueError("m_max must be >= 2")
    ps = _primes.primes_upto(prime_bound)
    if ps.size == 0:
        raise DslValueError("no primes under the bound")
    # every level reads each prime and m classes
    if (m_max - 1) * (ps.size + m_max) > RESIDUE_BUDGET:
        raise BudgetExceeded(f"coverage of {ps.size} primes at levels up to {m_max} "
                             f"exceeds residue budget {RESIDUE_BUDGET}")
    # the classes the exact engine assumes for primes (Dirichlet's theorem)
    primes = compile_set("primes")
    missing: list[tuple[int, int]] = []
    extra: list[tuple[int, int]] = []
    for m in range(2, m_max + 1):
        # a prime lies in a unit class or in the class of a prime dividing
        # m, so once all of those are hit no later prime changes the mask
        pps = _primes.prime_powers_of(m)
        possible = math.prod(q - q // p for p, _, q in pps) + len(pps)
        hit = np.zeros(m, dtype=bool)
        lo, hi = 0, 64
        while lo < ps.size and np.count_nonzero(hit) < possible:
            hit[ps[lo:hi] % m] = True
            lo, hi = hi, 2 * hi
        expected = primes.residue_image(m).mask
        missing.extend((m, int(c)) for c in np.flatnonzero(expected & ~hit))
        extra.extend((m, int(c)) for c in np.flatnonzero(hit & ~expected))
    narrative = [f"checked all moduli up to {m_max} against primes up to {prime_bound}"]
    quantities = {"missing": missing[:20], "missing_count": len(missing)}
    if extra:
        verdict = FAIL
        narrative.append(f"impossible classes hit (bug): {extra[:5]}")
    elif missing:
        verdict = INCONCLUSIVE
        m0, c0 = missing[0]
        narrative.append(
            f"class {c0} mod {m0} not yet hit; raise prime_bound (try {prime_bound * 10})"
        )
    else:
        verdict = PASS
        narrative.append("every expected class is hit")
    return VerificationReport(
        "dirichlet", {"m_max": m_max, "prime_bound": prime_bound},
        quantities, verdict, tuple(narrative),
    )


# ------------------------------------------------------------- few-factors


# most primes in omega_bound_measure's level modulus
OMEGA_PRIMES = 20

# bytes.translate table adding 1 to a byte
_INCREMENT = bytes(range(1, 256)) + b"\0"


def _omega_tally(primes: list[int], k: int) -> int:
    """The residues mod prod(primes) divisible by at most k of the primes,
    counted directly: one byte per residue counts the primes dividing it,
    each prime adding 1 along its stride by a translate at C speed. The
    level is at most 10^6, so at most 7 primes and no byte overflows."""
    tally = bytearray(math.prod(primes))
    for p in primes:
        tally[::p] = tally[::p].translate(_INCREMENT)
    return sum(map(tally.count, range(min(k, len(primes)) + 1)))


def omega_bound_measure(k: int, prime_bound: int) -> VerificationReport:
    """Measure of the level sets of 'at most k distinct prime divisors
    among the primes up to the bound': exact residue proportions at
    primorial levels, matched against the closed form
    prod(1-1/p) * e_{<=k}(1/(p-1), ...) and strictly decreasing as the
    prime list grows."""
    if k < 0:
        raise DslValueError("k must be >= 0")
    # one prime past the limit tells the bound is too large, and it is
    # below 2^10: no sieve runs, whatever the bound
    primes = list(islice(takewhile(lambda p: p <= prime_bound, _primes.iter_primes()),
                         OMEGA_PRIMES + 1))
    if not primes:
        raise DslValueError("no primes under the bound")
    if len(primes) > OMEGA_PRIMES:
        raise BudgetExceeded(f"more than {OMEGA_PRIMES} primes in the level modulus")
    trace: list[Fraction] = []
    closed: list[Fraction] = []
    # one prime per level, each prefix extending the last one's sums.
    # coeffs: the residues mod prod(prefix) divisible by exactly d of its
    # primes, d <= k, from the product of ((p-1) + x) over the prefix.
    # sym: the elementary symmetric sums e_d of 1/(p-1) over the prefix
    top = min(k, len(primes))
    coeffs = [1] + [0] * top
    sym = [Fraction(1)] + [Fraction(0)] * top
    euler = Fraction(1)  # prod (1 - 1/p) over the prefix
    m = 1
    for p in primes:
        for d in range(top, 0, -1):
            coeffs[d] = coeffs[d] * (p - 1) + coeffs[d - 1]
            sym[d] += sym[d - 1] * Fraction(1, p - 1)
        coeffs[0] *= p - 1
        euler *= Fraction(p - 1, p)
        m *= p
        trace.append(Fraction(sum(coeffs), m))
        closed.append(euler * sum(sym))
    matches = all(a == b for a, b in zip(trace, closed))
    # with at most k primes listed every residue qualifies, so the trace sits
    # at 1 until the prime count exceeds k and strictly decreases after
    start = max(k - 1, 0)
    decreasing = all(trace[i] == 1 for i in range(min(k, len(trace)))) and all(
        trace[i] > trace[i + 1] for i in range(start, len(trace) - 1)
    )
    narrative = [
        f"levels over primes {primes}",
        f"proportions match the closed form exactly: {matches}",
        f"strictly decreasing once the prime count exceeds k: {decreasing}",
    ]
    quantities: dict = {"trace": trace, "closed_form": closed}
    if m <= 10**6:
        direct = _omega_tally(primes, k)
        quantities["direct_count"] = direct
        direct_ok = Fraction(direct, m) == trace[-1]
        narrative.append(f"direct residue enumeration mod {m} agrees: {direct_ok}")
        matches = matches and direct_ok
    verdict = PASS if (matches and decreasing) else FAIL
    return VerificationReport(
        "omega", {"k": k, "prime_bound": prime_bound}, quantities, verdict, tuple(narrative)
    )


# ------------------------------------------------------------- product form


def eulerian_check(cset: CompiledSet, m_list, expect: str = "product") -> VerificationReport:
    """Whether residue images factor as products over prime-power
    components at each listed level, compared with the expected outcome.
    The image mod m lies inside the product of its projections mod each
    q || m, and its projection mod q is the image mod q, so it is that
    product exactly when the level counts multiply. A set without exact
    images skips every level."""
    from .setdsl import EXACT, to_text

    if expect not in ("product", "not-product"):
        raise DslValueError("expect must be 'product' or 'not-product'")
    results: dict[int, bool] = {}
    narrative = []
    capped = cset.mode != EXACT
    for m in map(int, m_list):
        if m < 1:
            raise DslValueError("modulus must be >= 1")
        if capped:
            narrative.append(f"level {m}: truncated image, product test skipped")
            continue
        count = cset.residue_count(m)
        sizes = {q: cset.residue_count(q) for _, _, q in _primes.prime_powers_of(m)}
        results[m] = math.prod(sizes.values()) == count
        narrative.append(
            f"level {m}: image size {count}, component sizes {sizes}, product: {results[m]}"
        )
    all_match = all(v == (expect == "product") for v in results.values())
    if capped or not results:
        verdict = INCONCLUSIVE
        narrative.append("truncated images cannot certify product structure")
    else:
        verdict = PASS if all_match else FAIL
    return VerificationReport(
        "eulerian",
        {"set": to_text(cset.expr), "levels": [int(m) for m in m_list], "expect": expect},
        {"is_product": results}, verdict, tuple(narrative),
    )


# ------------------------------------------------------------- coprime moduli


def asdmltp_verify(moduli, r_max: int = 10**6, m_check: int | None = None,
                   tol: float = 1e-2) -> VerificationReport:
    """Density of the complement of multiples of pairwise coprime moduli,
    each with at least two prime factors counted with multiplicity: the
    density exists and equals the product of (1 - 1/a)."""
    import numpy as np

    from .setdsl import Complement, Multiples, _box_image, compile_set
    from .measure import multiples_measure_ie
    from .density import density_alpha

    mods = tuple(int(a) for a in moduli)
    if r_max < 1:
        raise DslValueError(f"r_max must be >= 1, got {r_max}")
    if m_check is not None and m_check < 1:
        raise DslValueError(f"m_check must be >= 1, got {m_check}")
    for a, b in combinations(mods, 2):
        if math.gcd(a, b) != 1:
            raise DslValueError(f"moduli must be pairwise coprime; gcd({a},{b}) > 1")
    for a in mods:
        if sum(_primes.factorize(a).values()) < 2:
            raise DslValueError(
                f"modulus {a} has a single prime factor; the hypothesis needs "
                "at least two (counted with multiplicity)"
            )
    target = math.prod(Fraction(a - 1, a) for a in mods)
    ie = multiples_measure_ie(mods)
    ie_ok = ie == target
    narrative = [f"product target {target} = {float(target):.6f}; IE factorization exact: {ie_ok}"]

    lcm = math.lcm(*mods)
    cs = compile_set(Complement(Multiples(mods)))
    level_ok = None
    if lcm <= 10**7:
        level_ok = Fraction(cs.residue_count(lcm), lcm) == target
        narrative.append(f"clopen level measure at lcm={lcm} equals target: {level_ok}")

    das = density_alpha(cs, 0, sorted({max(1, r_max // 4**i) for i in range(3)}), tail_window=3)
    emp_ok = abs(das.upper_est - float(target)) <= tol and abs(das.lower_est - float(target)) <= tol
    narrative.append(f"empirical density {das.upper_est:.6f} within {tol} of target: {emp_ok}")

    outside = short = 0
    if m_check is not None:
        # the classes of the members up to N >= 4 lcm lie in the exact image:
        # a class they miss is a truncation shortfall, one outside a failure
        seen = _box_image(cs, max(10**6, 4 * lcm, 2 * m_check), m_check)
        exact = cs.residue_image(m_check).mask
        outside, short = np.count_nonzero(seen & ~exact), np.count_nonzero(exact & ~seen)
        narrative.append(f"truncated image at m={m_check} ({np.count_nonzero(seen)} classes) " + (
            f"has {outside} of them outside the exact local conditions" if outside
            else f"misses {short} classes of the exact local conditions: truncation shortfall" if short
            else "matches the exact local conditions: True"))

    quantities = {
        "target": target, "ie_value": ie,
        "asymptotic_estimate": [das.lower_est, das.upper_est],
    }
    if not ie_ok or level_ok is False or outside:
        verdict = FAIL
    elif not emp_ok or short:
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    return VerificationReport(
        "asdmltp", {"moduli": list(mods), "r_max": r_max, "m_check": m_check, "tol": tol},
        quantities, verdict, tuple(narrative),
    )


# ------------------------------------------------------------- local product


# the largest radius of poonen_stoll_tail's empirical density
PS_DENSITY_RADIUS = 10**6


def poonen_stoll_tail(spec: str = "kfree", k: int = 2, prime_cutoffs=(10, 100, 1000),
                      tol: float = 1e-2) -> VerificationReport:
    """Tail condition for local-conditions sieves: the summed densities of
    the per-prime complements beyond a growing prime cutoff must vanish.
    spec 'kfree' uses U_p = classes mod p^k not divisible by p^k, 'units'
    uses the nonzero classes mod p (whose complement sum diverges: the
    condition genuinely fails), 'trivial' imposes nothing."""
    from .setdsl import compile_set
    from .measure import euler_product
    from .density import density_alpha

    cutoffs = sorted(int(c) for c in prime_cutoffs)
    if not cutoffs or cutoffs[0] < 1:
        raise DslValueError(f"prime cutoffs must be a nonempty list of integers >= 1, got {cutoffs}")
    narrative = []
    quantities: dict = {"tail_bounds": []}
    if spec == "trivial":
        quantities["tail_bounds"] = [0.0 for _ in cutoffs]
        quantities["product_measure"] = 1.0
        narrative.append("no local condition; the cut-out set is everything, measure 1")
        return VerificationReport(
            "poonen-stoll", {"spec": spec, "cutoffs": cutoffs}, quantities, PASS,
            tuple(narrative),
        )
    if spec == "units":
        narrative.append(
            "complement densities are 1/p and their sum diverges; the tail "
            "condition fails genuinely (the cut-out integer set is just the "
            "units, while the local product is the full unit group)"
        )
        return VerificationReport(
            "poonen-stoll", {"spec": spec, "cutoffs": cutoffs}, {}, INCONCLUSIVE,
            tuple(narrative),
        )
    if spec != "kfree":
        raise DslValueError("spec must be one of kfree, units, trivial")
    if k < 2:
        raise DslValueError("kfree spec needs k >= 2")
    # sum_{p > P} p^-k <= P^(1-k)/(k-1), the integral tail
    bounds = [c ** (1 - k) / (k - 1) for c in cutoffs]
    quantities["tail_bounds"] = bounds
    vanishes = bounds[-1] <= tol
    narrative.append(f"certified tail bounds {['%.2e' % b for b in bounds]}; final below {tol}: {vanishes}")
    prod = euler_product(f"1-1/p^{k}", 10**4)
    quantities["product_measure"] = prod
    cs = compile_set(f"kfree({k})")
    das = density_alpha(cs, 0, sorted({max(1, PS_DENSITY_RADIUS // 4**i) for i in range(3)}), tail_window=3)
    emp = 0.5 * (das.lower_est + das.upper_est)
    quantities["empirical_density"] = emp
    emp_ok = prod.lo - tol <= emp <= prod.hi + tol
    narrative.append(
        f"local product bracket [{prod.lo:.6f},{prod.hi:.6f}] vs empirical {emp:.6f}: {emp_ok}"
    )
    verdict = PASS if (vanishes and emp_ok) else INCONCLUSIVE
    return VerificationReport(
        "poonen-stoll", {"spec": spec, "k": k, "cutoffs": cutoffs, "tol": tol},
        quantities, verdict, tuple(narrative),
    )


# ------------------------------------------------------------- gap trace


def mt_criterion(cset: CompiledSet, chain: ModulusChain, cutoff: int,
                 r_max: int = 10**6, tol: float = 1e-2,
                 truncation: int | None = None) -> VerificationReport:
    """Gap trace: per chain level, the estimated upper density of integers
    that look like members at that level (their class lies in the residue
    image) but are not members. The density-equals-measure situation is the
    one where this trace tends to zero. The verdict is PASS when the last
    trace value is within tol and INCONCLUSIVE otherwise, never FAIL: the
    trace is an estimate, not a certified quantity. The trace stops with a
    note at the first level whose image is over the budget."""
    import numpy as np

    from .setdsl import to_text

    if cset.dim != 1:
        raise DslValueError("gap trace implemented for dimension 1")
    if r_max < 1:
        raise DslValueError(f"r_max must be >= 1, got {r_max}")
    levels = chain.levels(cutoff)
    member = cset.mask_upto(r_max)
    radii = sorted({max(1, r_max // 4), max(1, r_max // 2), r_max})
    trace: list[float] = []
    narrative = []
    for idx, m in enumerate(levels, start=1):
        try:
            looks = np.tile(cset.residue_image(m, truncation).mask, r_max // m + 1)[: r_max + 1]
        except BudgetExceeded as e:
            if not trace:
                raise
            narrative.append(f"stopped before level {idx} (m={m}): {e}")
            break
        gap = looks & ~member
        gap[0] = False
        trace.append(max(float(gap[: r + 1].sum()) / r for r in radii))
        narrative.append(f"level {m}: gap density estimate {trace[-1]:.6f}")
    vanishing = trace[-1] <= tol
    narrative.append(f"trace tends below {tol}: {vanishing}")
    return VerificationReport(
        "mt", {"set": to_text(cset.expr), "chain": chain.kind, "cutoff": cutoff,
               "r_max": r_max, "tol": tol},
        {"levels": levels[: len(trace)], "gap_trace": trace, "vanishing": vanishing},
        PASS if vanishing else INCONCLUSIVE, tuple(narrative),
    )


# ------------------------------------------------------------- cover


def counterexample_cover(a: int, terms: int) -> VerificationReport:
    """Covers every integer with shifted ideal cosets whose total measure
    stays below 1: the n-th integer in the spiral enumeration 0, 1, -1,
    2, -2, ... gets the coset x_n + a^n Z. The union contains all
    enumerated integers (so its integer complement has density 0 along
    them) while its complement keeps measure at least
    1 - (1/(a-1))(1 - a^-K) at level a^K."""
    if a < 3:
        raise DslValueError("need a >= 3 so the coset measures sum below 1")
    if terms < 1:
        raise DslValueError("need at least one term")
    if a**terms > RESIDUE_BUDGET:
        raise BudgetExceeded(f"level {a}^{terms} exceeds the enumeration budget")
    m = a**terms
    covered = _covered_classes(a, terms)
    comp_measure = Fraction(m - covered, m)
    bound = 1 - Fraction(1, a - 1) * (1 - Fraction(1, a**terms))
    narrative = [
        f"complement measure at level {a}^{terms}: {float(comp_measure):.9f}",
        f"certified lower bound 1 - (1/(a-1))(1-a^-K) = {float(bound):.9f}",
        "every integer is eventually enumerated, so the complement meets the "
        "integers in a density-zero set while keeping positive measure",
    ]
    return VerificationReport(
        "counterexample", {"a": a, "terms": terms},
        {"complement_measure": comp_measure, "lower_bound": bound,
         "covered_classes": covered, "level": m},
        PASS if comp_measure >= bound else FAIL, tuple(narrative),
    )


def _covered_classes(a: int, terms: int) -> int:
    """The classes mod a^terms that the cosets x_n + a^n Z, n <= terms,
    cover, x_n the n-th integer of the spiral 0, 1, -1, 2, -2, ...: coset n
    lies inside an earlier coset j < n or misses it, and the cosets inside
    no earlier one are disjoint and cover the union."""

    def spiral(n: int) -> int:  # 1 -> 0, 2 -> 1, 3 -> -1, 4 -> 2, ...
        return (n // 2) if n % 2 == 0 else -(n // 2)

    return sum(a**(terms - n) for n in range(1, terms + 1)
               if not any((spiral(n) - spiral(j)) % a**j == 0 for j in range(1, n)))


# ------------------------------------------------------------- dense union


# largest hitting set union_dense_check tries exhaustively, and most
# candidate sets it tries
HITTING_SIZE = 3
HITTING_BUDGET = 10**5


def union_dense_check(supports, family_flag: bool = False) -> VerificationReport:
    """Density of a union of multiple-sets in the profinite completion is
    equivalent to no finite prime set meeting every term's support. The
    search tries singletons, then small combinations from the support
    union; an infinite family that escapes every finite prime set must be
    declared through family_flag."""
    sups = [frozenset(int(p) for p in s) for s in supports]
    if any(not s or not all(map(_primes.is_prime, s)) for s in sups):
        raise DslValueError(f"supports must be nonempty prime sets, got {[sorted(s) for s in sups]}")
    if not sups:
        if not family_flag:
            raise DslValueError("supports must be nonempty prime sets")
        return VerificationReport(
            "union-dense", {"supports": [], "family_flag": True},
            {"tried": 0, "dense": True}, PASS,
            ("family escapes every finite prime set (per family_flag): dense",),
        )
    universe = sorted(set().union(*sups))
    narrative = [f"{len(sups)} supports over primes {universe[:12]}"]
    tried = 0
    hit: tuple[int, ...] | None = None
    for size in range(1, HITTING_SIZE + 1):
        for combo in combinations(universe, size):
            tried += 1
            if tried > HITTING_BUDGET:
                narrative.append("hitting-set budget exhausted")
                return VerificationReport(
                    "union-dense", {"supports": [sorted(s) for s in sups],
                                    "family_flag": family_flag},
                    {"tried": tried}, INCONCLUSIVE, tuple(narrative),
                )
            cs = set(combo)
            if all(s & cs for s in sups):
                hit = combo
                break
        if hit:
            break
    if hit is None and not family_flag:
        # a finite list always has a hitting set: one prime per support
        greedy: set[int] = set()
        for s in sups:
            if not s & greedy:
                greedy.add(min(s))
        hit = tuple(sorted(greedy))
        narrative.append("greedy hitting set used after exhaustive search cutoff")
    quantities: dict = {"tried": tried}
    if hit is not None:
        quantities["hitting_set"] = list(hit)
        quantities["dense"] = False
        narrative.append(f"finite prime set {sorted(hit)} meets every support: not dense")
    else:
        quantities["dense"] = True
        narrative.append(
            "family escapes every finite prime set (per family_flag): dense"
        )
    return VerificationReport(
        "union-dense", {"supports": [sorted(s) for s in sups], "family_flag": family_flag},
        quantities, PASS, tuple(narrative),
    )

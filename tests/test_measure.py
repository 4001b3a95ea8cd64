import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhat.measure import (
    Bracket,
    ChainError,
    ModulusChain,
    closure_measure_trace,
    euler_product,
    haar_ideal,
    multiples_measure_ie,
    zeta_bracket,
)
from zhat.setdsl import EXACT, compile_set


def test_haar_ideal():
    assert haar_ideal(6, 1) == Fraction(1, 6)
    assert haar_ideal(6, 2) == Fraction(1, 36)
    with pytest.raises(ValueError):
        haar_ideal(0, 1)


# ---------------------------------------------------------------- chains


def test_chain_constructors():
    assert ModulusChain.primorial().levels(2310) == [2, 6, 30, 210, 2310]
    assert ModulusChain.factorial().levels(720) == [2, 6, 24, 120, 720]
    assert ModulusChain.primorial_power(2).levels(44100) == [4, 36, 900, 44100]
    assert ModulusChain.explicit([6, 12, 24]).levels(24) == [6, 12, 24]


def test_chain_validation():
    with pytest.raises(ChainError):
        ModulusChain.explicit([6, 10])  # 6 does not divide 10
    with pytest.raises(ChainError):
        ModulusChain.explicit([])
    with pytest.raises(ChainError):
        ModulusChain.primorial().levels(1)  # no level fits


# every level up to 10^30 of each chain kind, recorded before the chains
# read the named sequences
PRIMORIALS_1E30 = [
    2, 6, 30, 210, 2310, 30030, 510510, 9699690, 223092870, 6469693230, 200560490130,
    7420738134810, 304250263527210, 13082761331670030, 614889782588491410,
    32589158477190044730, 1922760350154212639070, 117288381359406970983270,
    7858321551080267055879090, 557940830126698960967415390,
    40729680599249024150621323470,
]
CHAIN_LEVELS_1E30 = [
    (ModulusChain.primorial(), PRIMORIALS_1E30),
    (ModulusChain.primorial_power(1), PRIMORIALS_1E30),
    (ModulusChain.primorial_power(2), [
        4, 36, 900, 44100, 5336100, 901800900, 260620460100, 94083986096100,
        49770428644836900, 41856930490307832900, 40224510201185827416900,
        55067354465423397733736100, 92568222856376731590410384100]),
    (ModulusChain.primorial_power(3), [
        8, 216, 27000, 9261000, 12326391000, 27081081027000, 133049351085651000,
        912585499096480209000, 11103427767506874702903000,
        270801499821725167129101267000]),
    (ModulusChain.factorial(), [
        2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800, 39916800, 479001600, 6227020800,
        87178291200, 1307674368000, 20922789888000, 355687428096000, 6402373705728000,
        121645100408832000, 2432902008176640000, 51090942171709440000,
        1124000727777607680000, 25852016738884976640000, 620448401733239439360000,
        15511210043330985984000000, 403291461126605635584000000,
        10888869450418352160768000000, 304888344611713860501504000000]),
    (ModulusChain.explicit([3, 12, 36, 360, 3600 * 10**26]), [3, 12, 36, 360, 3600 * 10**26]),
]


@pytest.mark.parametrize("chain, recorded", CHAIN_LEVELS_1E30,
                         ids=["primorial", "primorial^1", "primorial^2", "primorial^3",
                              "factorial", "explicit"])
def test_chain_levels_match_the_recorded_lists(chain, recorded):
    # every power of ten up to 10^30 and every level, its predecessor and
    # its successor as cutoffs
    cutoffs = {10**e for e in range(31)} | {m + d for m in recorded for d in (-1, 0, 1)}
    for cutoff in sorted(c for c in cutoffs if c <= 10**30):
        expected = [m for m in recorded if m <= cutoff]
        if expected:
            assert chain.levels(cutoff) == expected
        else:
            with pytest.raises(ChainError, match="no chain level fits"):
                chain.levels(cutoff)


# ---------------------------------------------------------------- traces


def test_squarefree_trace_pinned():
    trace = closure_measure_trace(compile_set("kfree(2)"),
                                  ModulusChain.primorial_power(2), 44100)
    assert trace.values() == [
        Fraction(3, 4), Fraction(2, 3), Fraction(16, 25), Fraction(768, 1225)
    ]
    assert trace.certified
    # brute oracle at the last level
    sieve = np.ones(44100, dtype=bool)
    for p in (2, 3, 5, 7, 11, 13):
        sieve[:: p * p] = False
    # classes containing at least one squarefree integer: enumerate far enough
    mask = compile_set("kfree(2)").mask_upto(10**6)
    classes = np.unique(np.nonzero(mask)[0] % 44100)
    assert len(classes) == 27648


def test_trace_nonincreasing_along_chain():
    for text in ("kfree(2)", "cong(2,6)", "primes", "multiples(4,6)"):
        trace = closure_measure_trace(compile_set(text), ModulusChain.primorial(), 2310)
        vals = trace.values()
        assert all(a >= b for a, b in zip(vals, vals[1:])), text


def test_trace_csv_shape():
    trace = closure_measure_trace(compile_set("cong(2,6)"), ModulusChain.primorial(), 30)
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "level_index,modulus,residue_count,measure_num,measure_den,measure_float,mode"
    assert len(lines) == 4  # header + levels 2, 6, 30
    assert lines[2].split(",")[:5] == ["2", "6", "1", "1", "6"]


def test_truncated_trace_flagged():
    cs = compile_set("kfree(2) & cong(1,4)")
    trace = closure_measure_trace(cs, ModulusChain.explicit([4, 12]), 12, truncation=10**5)
    assert not trace.certified
    assert any("UNCERTIFIED" in n for n in trace.notes)


# ---------------------------------------------------------------- IE


def test_multiples_ie_examples():
    assert multiples_measure_ie([4, 6]) == Fraction(2, 3)
    assert multiples_measure_ie([2]) == Fraction(1, 2)
    assert multiples_measure_ie([4, 9, 25]) == Fraction(16, 25)
    # redundant modulus changes nothing
    assert multiples_measure_ie([4, 6, 12]) == Fraction(2, 3)


def test_multiples_ie_against_enumeration():
    for mods in ([4, 6], [3, 5, 7], [2, 9], [6, 10, 15]):
        L = math.lcm(*mods)
        free = sum(1 for x in range(L) if all(x % a for a in mods))
        assert multiples_measure_ie(mods) == Fraction(free, L), mods


def test_multiples_ie_dim2_against_enumeration():
    for mods in ([2], [2, 3]):
        L = math.lcm(*mods)
        cs = compile_set("!multiples(" + ",".join(map(str, mods)) + ") & coprime(2)")
        # dim-2 complement measure: brute-force over the L x L torus
        free = sum(
            1
            for a in range(L)
            for b in range(L)
            if all((a % g, b % g) != (0, 0) for g in mods)
        )
        got = multiples_measure_ie(mods, dim=2)
        assert got == Fraction(free, L * L), mods


def test_multiples_ie_fourteen_prime_squares():
    # lcm ~ 1.2e32: past any fixed lcm cap, exact through the coprime factoring
    ps = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    want = math.prod(1 - Fraction(1, p * p) for p in ps)
    assert multiples_measure_ie([p**2 for p in ps]) == want


def test_clopen_level_equals_ie():
    # level measure of the complement at the lcm equals the IE value exactly
    for mods in ([4, 6], [3, 5], [6, 10, 15]):
        cs = compile_set("!multiples(" + ",".join(map(str, mods)) + ")")
        L = math.lcm(*mods)
        img = cs.clopen_image_exact(L)
        assert img.level_measure() == multiples_measure_ie(mods), mods


# ---------------------------------------------------------------- products


def test_euler_product_squarefree():
    br = euler_product("1-1/p^2", 10**4)
    assert br.width < 1e-3
    assert br.contains(6 / math.pi**2)
    assert br.certified


def test_euler_product_divergent_tail():
    br = euler_product("1-1/p", 10**6)
    assert br.lo == 0.0
    assert br.hi < 0.05
    assert any("DIVERGENT-TAIL" in n for n in br.notes)


def test_euler_product_general_constant():
    # oracle: partial product at a much larger cutoff must land inside
    br = euler_product("1-2/p^2", 10**3)
    deep = 1.0
    sieve = np.ones(10**6, dtype=bool)
    sieve[:2] = False
    for i in range(2, 1000):
        if sieve[i]:
            sieve[i * i:: i] = False
    for p in np.nonzero(sieve)[0]:
        deep *= 1.0 - 2.0 / (int(p) ** 2)
    assert br.contains(deep)


def test_euler_product_trivial_and_errors():
    br = euler_product("1", 100)
    assert br.contains(1.0) and br.width < 1e-9
    for bad in ("1-p^2", "2-1/p", "1-1/q", "1-1/p^0"):
        with pytest.raises(ValueError):
            euler_product(bad, 100)


def test_euler_bracket_nests_when_cutoff_doubles():
    a = euler_product("1-1/p^2", 500)
    b = euler_product("1-1/p^2", 1000)
    assert a.lo <= b.lo and b.hi <= a.hi


# ---------------------------------------------------------------- zeta


def test_zeta_bracket_pinned():
    br = zeta_bracket(2.0, 1000)
    assert br.width < 1e-6
    assert br.contains(math.pi**2 / 6)
    br4 = zeta_bracket(4.0, 100)
    assert br4.contains(math.pi**4 / 90)
    with pytest.raises(ValueError):
        zeta_bracket(1.0, 100)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.1, max_value=4.0), st.integers(min_value=50, max_value=500))
def test_zeta_bracket_nesting(s, n):
    a = zeta_bracket(s, n)
    b = zeta_bracket(s, 2 * n)
    assert a.lo <= b.lo + 1e-12 and b.hi <= a.hi + 1e-12
    assert b.width <= a.width + 1e-12


def test_bracket_helpers():
    br = Bracket(0.25, 0.5, True, 100)
    assert br.mid == 0.375 and br.width == 0.25
    assert br.contains(0.3) and not br.contains(0.6)
    d = br.to_json()
    assert d == {"lo": 0.25, "hi": 0.5, "certified": True, "cutoff": 100}

"""The one record base, zhat._primes.Record: construction, frozen fields,
the equality and hash a frozen dataclass would give, repr, and the
validation messages of the records that check their fields."""

import json

import numpy as np
import pytest

from zhat._primes import VerificationReport
from zhat.analytic import DlogReport
from zhat.density import DensityReport
from zhat.measure import Bracket, ChainError, ModulusChain
from zhat.setdsl import (Cong, Coprime, DslValueError, Intersection, KFree, LeadingDigit, Multiples,
                         Primes, ResidueImage, Union, compile_set)


def test_a_record_hashes_as_its_field_tuple():
    # the tuple hash alone, without the type, so set and dict orders over
    # nodes are those a frozen dataclass gives
    assert hash(Cong(1, 4)) == hash((1, 4))
    assert hash(Union(Cong(1, 4), Primes())) == hash((Cong(1, 4), Primes()))
    assert hash(Primes()) == hash(())


def test_records_of_two_classes_with_equal_fields_differ():
    a, b = Cong(1, 4), KFree(2)
    assert Union(a, b) != Intersection(a, b)
    assert KFree(2) != Coprime(2)
    assert Cong(1, 4) != (1, 4)
    assert Cong(1, 4) == Cong(1, 4) and len({Cong(1, 4), Cong(1, 4), Cong(3, 4)}) == 2


def test_a_frozen_record_refuses_assignment():
    c = Cong(1, 4)
    with pytest.raises(AttributeError):
        c.r = 3
    with pytest.raises(AttributeError):
        c.extra = 3
    assert c == Cong(1, 4)


def test_construction_takes_fields_by_position_or_name_with_trailing_defaults():
    assert Bracket(0.0, 1.0, True, 10).notes == ()
    assert Bracket(lo=0.0, hi=1.0, certified=True, cutoff=10, notes=("n",)).notes == ("n",)
    assert ModulusChain("primorial-power", power=2) == ModulusChain("primorial-power", 2, ())
    for args, kwargs in [((0.0, 1.0, True), {}), ((0.0, 1.0, True, 10, (), 5), {}),
                         ((0.0, 1.0, True, 10), {"lo": 0.0}), ((0.0, 1.0, True, 10), {"width": 1})]:
        with pytest.raises(TypeError):
            Bracket(*args, **kwargs)


def test_compiled_set_equality_skips_its_tables_and_it_has_no_hash():
    a, b = compile_set("kfree(2) | cong(1,4)"), compile_set("kfree(2) | cong(1,4)")
    a.residue_count(36)
    assert a._tables and not b._tables
    assert a == b and a != compile_set("kfree(2)")
    with pytest.raises(TypeError):
        hash(a)
    assert repr(a) == ("CompiledSet(expr=Union(a=KFree(k=2), b=Cong(r=1, m0=4)), dim=1, "
                       "assumptions=frozenset())")


def test_residue_image_equality_is_identity():
    img = compile_set("cong(1,4)").residue_image(8)
    twin = ResidueImage(img.m, img.dim, img.mask.copy(), img.mode, img.truncation, img.assumptions)
    assert img == img and img != twin
    assert len({img, twin}) == 2


def test_reports_keep_their_field_order_in_json():
    rep = DensityReport("asymptotic", {"r": 10}, (10,), (0.5,), 0.5, 0.5, False)
    assert list(rep.to_json()) == ["method", "params", "grid", "values", "lower_est", "upper_est",
                                   "certified", "notes"]
    dlog = DlogReport(2.0, 10**4, 1e-6, 1.0, 1.0, 0.0, 1e-9, "PASS")
    assert list(dlog.to_json())[:3] == ["s", "cutoff", "tol"]
    ver = VerificationReport("t", {"a": 1}, {"q": (1, 2)}, "PASS", ("ok",))
    assert json.dumps(ver.to_json()) == ('{"theorem": "t", "inputs": {"a": 1}, "quantities": {"q": [1, 2]}, '
                                         '"verdict": "PASS", "narrative": ["ok"]}')


def test_repr_names_the_fields():
    assert repr(Cong(1, 4)) == "Cong(r=1, m0=4)"
    assert repr(Bracket(0.0, 1.0, True, 10)) == "Bracket(lo=0.0, hi=1.0, certified=True, cutoff=10, notes=())"


@pytest.mark.parametrize("build, exc, message", [
    (lambda: Cong(1, 0), DslValueError, "cong modulus must be >= 1, got 0"),
    (lambda: KFree(1), DslValueError, "kfree exponent must be >= 2, got 1"),
    (lambda: Coprime(4), DslValueError, "coprime dimension must be 1..3, got 4"),
    (lambda: Multiples(()), DslValueError, "multiples needs positive moduli"),
    (lambda: LeadingDigit(10, 10), DslValueError, "leadingdigit needs 1 <= d < base, got d=10 base=10"),
    (lambda: Bracket(1.0, 0.0, True, 10), ValueError, "bracket endpoints out of order: 1.0 > 0.0"),
    (lambda: ModulusChain("fibonacci"), ChainError, "unknown chain kind 'fibonacci'"),
    (lambda: ModulusChain("primorial-power", 0), ChainError, "primorial power must be >= 1"),
    (lambda: ModulusChain.explicit([2, 6, 9]), ChainError, "chain not strictly divisible at 6 -> 9"),
    (lambda: DensityReport("m", {}, (), (), 0.0, 0.0, False), DslValueError, "empty evaluation grid"),
    (lambda: DensityReport("m", {}, (2, 1), (0, 0), 0.0, 0.0, False), DslValueError,
     "grid must be strictly increasing"),
    (lambda: DensityReport("m", {}, (1,), (0,), 0.5, 0.4, False), DslValueError,
     "lower estimate exceeds upper estimate"),
    (lambda: ResidueImage(4, 1, np.ones(3, dtype=bool), "exact"), ValueError,
     "mask must be a flat boolean array with one cell per class"),
])
def test_checks_keep_their_messages(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert str(info.value) == message

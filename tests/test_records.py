"""The contract of the public records: results, parameters and budgets
are immutable ``__slots__`` records, equal and hashed by value, that
survive ``copy``, ``deepcopy`` and ``pickle`` and name every field in
their repr; and importing the library loads no ``dataclasses``."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from wordweight import (
    BigGen,
    Certificate,
    ExpScalar,
    ExpSum,
    Factorization,
    GenSetParams,
    LengthResult,
    NormRoot,
    SearchBudget,
    WeightProvider,
    WeightedVector,
    Word,
    normalize_conjugator,
    omega_norm,
    spectral_probe,
    xlength,
)

# each public record with its constructor's keywords, in positional order
FIELDS = {
    GenSetParams: ("base", "jmin", "jmax_cap"),
    SearchBudget: ("max_nodes", "max_cost", "max_millis"),
    BigGen: ("conj", "index"),
    Certificate: ("coeffs", "direction"),
    Factorization: ("items",),
    LengthResult: (
        "lower", "upper", "witness", "certificate", "budget_exhausted",
        "nodes_expanded", "ms", "method",
    ),
    ExpScalar: ("mantissa", "exponent"),
    ExpSum: ("terms",),
    NormRoot: ("mantissa", "exponent", "exact"),
}


@lru_cache(maxsize=None)
def samples() -> dict:
    """Two instances of each record, from library calls. Every field
    with a default holds another value in the first, so a copy that fell
    back to the default would differ."""
    p2 = GenSetParams(base=2, jmin=1)
    searched = xlength(Word.parse("a b^2 a^3 b^4 c a^-3"), p2)
    bracket = xlength(Word.parse("a^4 b^4 c"), p2, mode="bracket")
    provider = WeightProvider(GenSetParams())
    def mass(word, mantissa, exponent=0):
        return WeightedVector.point_mass(
            provider, Word.parse(word), ExpScalar(Fraction(mantissa), exponent)
        )

    c, unit = mass("c", 3), mass("c", 1, -1)
    f = c + mass("c^2", Fraction(1, 2))
    exponent, mantissa = omega_norm(c).terms[0]
    return {
        GenSetParams: [GenSetParams(base=3, jmin=1, jmax_cap=4), p2],
        SearchBudget: [SearchBudget(max_nodes=700, max_cost=9, max_millis=50.0),
                       SearchBudget()],
        BigGen: [normalize_conjugator(Word.parse("a b^2"), 1, p2),
                 searched.witness.items[0][0]],
        Certificate: [searched.certificate, bracket.certificate],
        Factorization: [searched.witness, bracket.witness],
        LengthResult: [searched, bracket],
        ExpScalar: [ExpScalar(mantissa, exponent), ExpScalar(Fraction(-2, 3), 5)],
        ExpSum: [omega_norm(f), omega_norm(c)],
        NormRoot: [spectral_probe(f, 2)[1], spectral_probe(unit, 2)[1]],
    }


CASES = [
    pytest.param(record, i, id=f"{record.__name__}-{i}")
    for record in FIELDS
    for i in range(2)
]


def sample(record, i):
    return samples()[record][i]


def with_field(x, name, value):
    """A copy of x with one field replaced, past its immutability."""
    y = copy.copy(x)
    object.__setattr__(y, name, value)
    return y


def test_samples_are_what_they_claim():
    for record, xs in samples().items():
        assert all(type(x) is record for x in xs)
    assert any(type(gen) is BigGen for gen, _ in sample(Factorization, 0).items)
    assert [root.exact for root in samples()[NormRoot]] == [False, True]
    assert sample(ExpScalar, 0).exponent != 0 and len(sample(ExpSum, 0).terms) == 2


def test_length_result_derives_exact_and_exhaustive():
    # both are read from the stored fields, so they cannot disagree with
    # the bracket or the method, and cannot be set
    searched, bracket = samples()[LengthResult]
    for name in ("exact", "exhaustive"):
        assert name not in LengthResult.__slots__
        assert isinstance(getattr(LengthResult, name), property)
        with pytest.raises(AttributeError):
            setattr(searched, name, False)
    assert (searched.method, searched.exact, searched.exhaustive) == (
        "search", True, True)
    assert (bracket.method, bracket.exact, bracket.exhaustive) == (
        "bracket", False, False)


@pytest.mark.parametrize("record, i", CASES)
class TestRecordContract:
    def test_equal_fields_are_equal(self, record, i):
        x = sample(record, i)
        fields = {name: getattr(x, name) for name in FIELDS[record]}
        for twin in (record(**fields), record(*fields.values())):
            assert twin == x and not twin != x
            assert hash(twin) == hash(x)

    def test_each_field_counts(self, record, i):
        x = sample(record, i)
        for name in FIELDS[record]:
            other = with_field(x, name, object())
            assert other != x and x != other, name
            assert hash(other) != hash(x), name

    def test_another_type_is_not_equal(self, record, i):
        x = sample(record, i)
        fields = tuple(getattr(x, name) for name in FIELDS[record])
        assert x.__eq__(fields) is NotImplemented and x != fields

    def test_immutable(self, record, i):
        x = sample(record, i)
        before = copy.copy(x)
        for name in FIELDS[record] + ("other",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert x == before

    def test_copies_are_equal(self, record, i):
        x = sample(record, i)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is record and y == x
            for name in FIELDS[record]:
                assert getattr(y, name) == getattr(x, name), name

    def test_repr_names_every_field(self, record, i):
        x = sample(record, i)
        text = repr(x)
        assert text.startswith(f"{record.__name__}(")
        for name in FIELDS[record]:
            assert f"{name}={getattr(x, name)!r}" in text, name


IMPORT_CHECK = """
import sys
import wordweight, wordweight.cli
assert "dataclasses" not in sys.modules, "dataclasses was imported"
"""


def test_library_never_imports_dataclasses():
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr

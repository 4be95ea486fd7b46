"""The extended generating set: letters plus the indexed big generators.

A big generator with conjugator v and index j expands to

    v b^(B^(2j-1)) v^-1 a^(B^(2j)) b^(B^(2j))

where B is the base parameter and |v| <= B^j. The canonical instance is
B=5 with indices starting at 2; smaller bases give desk-scale analogues
for exhaustive search (exactness claims never transfer between bases).
"""

from __future__ import annotations

from typing import Iterator, Union

from .errors import BudgetExhausted, ConjugatorTooLong, IndexTooSmall
from .words import (
    HOM_AB, LETTERS, Letter, ValueRecord, Word, _merge_runs, _set, hom_value
)


class GenSetParams(ValueRecord):
    """Construction parameters: base, starting index, optional index cap.
    Each is an int, and the cap may be None; anything else, a float or a
    bool included, raises TypeError, as a float base would make lengths
    and exponents floats."""

    __slots__ = ("base", "jmin", "jmax_cap")

    def __init__(self, base: int = 5, jmin: int = 2, jmax_cap: int | None = None):
        for name, value in (("base", base), ("jmin", jmin), ("jmax_cap", jmax_cap)):
            if type(value) is not int and not (value is None and name == "jmax_cap"):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        if jmin < 1:
            raise ValueError(f"jmin must be >= 1, got {jmin}")
        if jmax_cap is not None and jmax_cap < jmin:
            raise ValueError("jmax_cap below jmin")
        _set(self, "base", base)
        _set(self, "jmin", jmin)
        _set(self, "jmax_cap", jmax_cap)

    def _fields(self) -> tuple:
        return self.base, self.jmin, self.jmax_cap

    def conjugator_bound(self, j: int) -> int:
        return self.base**j

    def inner_exp(self, j: int) -> int:
        return self.base ** (2 * j - 1)

    def outer_exp(self, j: int) -> int:
        return self.base ** (2 * j)


class BigGen(ValueRecord):
    """An indexed generator in conjugator normal form.

    The conjugator never ends in b or b^-1, so the expansion is reduced
    as written (up to the a-runs possibly merging across the conjugator's
    inverse).
    """

    __slots__ = ("conj", "index")

    def __init__(self, conj: Word, index: int):
        _set(self, "conj", conj)
        _set(self, "index", index)

    def _fields(self) -> tuple:
        return self.conj, self.index

    def __str__(self) -> str:
        return f"x({self.conj or '1'}, {self.index})"


Gen = Union[Letter, BigGen]


def _check_index(j: int, params: GenSetParams) -> None:
    """Raise unless j is a generator index of the set: jmin <= j <= jmax_cap."""
    if j < params.jmin:
        raise IndexTooSmall(f"index {j} below jmin={params.jmin}")
    if params.jmax_cap is not None and j > params.jmax_cap:
        raise ValueError(f"index {j} above jmax_cap={params.jmax_cap}")


def normalize_conjugator(v: Word, j: int, params: GenSetParams) -> BigGen:
    """Strip any trailing b-power from v; the generator is unchanged.

    Conjugating b^k by v and by v-with-trailing-b-power-removed gives the
    same group element, so each generator has a unique representative
    whose conjugator does not end in b^(+-1). The bound |v| <= B^j applies
    to that representative: ``a b^2`` at base 2, index 1 is x(a, 1).
    """
    _check_index(j, params)
    conj = v.runs
    if conj and conj[-1][0] == "b":
        conj = conj[:-1]
    conj = Word(conj)
    if conj.s_length > params.conjugator_bound(j):
        raise ConjugatorTooLong(
            f"|v|={conj.s_length} exceeds bound {params.conjugator_bound(j)} for index {j}"
        )
    return BigGen(conj, j)


def expand_generator(gen: Gen, params: GenSetParams) -> Word:
    """The reduced word of a generator (one letter, or the full expansion).

    The expansion is the runs of v, b^(B^(2j-1)), v^-1, a^(B^2j) b^(B^2j)
    written one after another and reduced in one pass of ``_merge_runs``.
    That pass keeps a stack that is always the reduced product of the runs
    read so far: a run on another base than the top is pushed, one on the
    top's base merges with it or cancels it whole, and the run below the
    top is on another base, so the stack stays reduced. A run never reaches
    past the top, and the reduced word of a group element is unique, so
    the one pass gives the reduced expansion whatever v is, a hand-built
    conjugator ending in b^(+-1) included.
    """
    if isinstance(gen, Letter):
        return gen.word()
    j = gen.index
    conj = gen.conj.runs
    outer = params.outer_exp(j)
    return Word(
        _merge_runs(
            conj
            + (("b", params.inner_exp(j)),)
            + tuple((base, -exp) for base, exp in reversed(conj))
            + (("a", outer), ("b", outer))
        )
    )


def theta_value(gen_index: int, params: GenSetParams) -> int:
    """Value of the a+b letter-count homomorphism on any index-j generator."""
    return params.inner_exp(gen_index) + 2 * params.outer_exp(gen_index)


def max_usable_index(
    u: Word, upper_bound_n: int, params: GenSetParams
) -> int | None:
    """Largest index that can occur in any factorization of u with at most
    ``upper_bound_n`` symbols, or None if no index qualifies.

    Sound cutoff: the a+b count of an index-j generator is
    B^(2j-1) + 2 B^(2j) > 0, while every other symbol contributes at least
    -1. Summing over a factorization with n symbols, any generator used
    must have a+b count at most theta(u) + n - 1. Exhaustive search
    restricted to indices up to the returned value is therefore complete.
    """
    threshold = hom_value(HOM_AB, u) + upper_bound_n - 1
    best: int | None = None
    j = params.jmin
    while theta_value(j, params) <= threshold:
        best = j
        if params.jmax_cap is not None and j == params.jmax_cap:
            break
        j += 1
    return best


def _conjugators(
    length: int, prefix: tuple[Letter, ...] = ()
) -> Iterator[tuple[Letter, ...]]:
    """The reduced letter tuples of the given length that extend ``prefix``
    and do not end in b^(+-1), lexicographic in the canonical letter order.

    The walk is depth-first, so a stream holds one prefix per level however
    long the family is, and a b-final letter is never appended, so no
    tuple is built only to be dropped.
    """
    if len(prefix) == length:
        yield prefix
        return
    last = prefix[-1] if prefix else None
    for letter in LETTERS:
        if last is not None and letter.base == last.base and letter.sign != last.sign:
            continue
        word = prefix + (letter,)
        if len(word) < length:
            yield from _conjugators(length, word)
        elif letter.base != "b":
            yield word


def family_size(params: GenSetParams, j: int) -> int:
    """Number of distinct index-j generators: exactly 5^(B^j).

    Proof. Each generator has one normal-form conjugator: a reduced word
    v with |v| <= B^j not ending in b^(+-1) (``normalize_conjugator``).
    Distinct normal forms give distinct generators: the expansion
    determines v b^(B^(2j-1)) v^-1, and v' b^k v'^-1 = v b^k v^-1 with
    k != 0 forces v^-1 v' to commute with b^k, so v' = v b^m, and both
    being in normal form gives m = 0. Counting normal forms: the empty
    word, and for each n >= 1 the 6 * 5^(n-1) reduced words of length n,
    of which the letter-permuting automorphisms of the free group make
    equally many end in each of the six letters, so 4 * 5^(n-1) do not
    end in b^(+-1). Summing, 1 + 4 (5^0 + ... + 5^(L-1)) = 5^L with
    L = B^j.

    The result has about 2.3 B^j bits; check against a budget with
    ``check_family_size``, which never builds it when it is too large.
    """
    _check_index(j, params)
    return 5 ** params.conjugator_bound(j)


def longest_expansion(params: GenSetParams, j: int) -> int:
    """Letter count of the longest index-j expansion:
    2 B^j + B^(2j-1) + 2 B^(2j).

    Proof. The expansion v b^(B^(2j-1)) v^-1 a^(B^(2j)) b^(B^(2j)) is
    spelled by at most 2 |v| + B^(2j-1) + 2 B^(2j) letters, and
    |v| <= B^j, so no expansion is longer. The conjugator v = c^(B^j) is
    in normal form and reaches the bound: in
    c^(B^j) b^(B^(2j-1)) c^(-B^j) a^(B^(2j)) b^(B^(2j)) no two adjacent
    runs share a letter, so nothing cancels.
    """
    _check_index(j, params)
    conj = params.conjugator_bound(j)
    return 2 * conj + params.inner_exp(j) + 2 * params.outer_exp(j)


def check_family_size(params: GenSetParams, j: int, max_count: int) -> None:
    """Raise BudgetExhausted if the index-j family has more than
    ``max_count`` generators.

    5^L > max_count as soon as L >= max_count.bit_length(), since
    max_count < 2^L <= 5^L; the exact size is only built below that.
    """
    _check_index(j, params)
    length = params.conjugator_bound(j)
    if length >= max_count.bit_length() or family_size(params, j) > max_count:
        raise BudgetExhausted(f"index-{j} family exceeds max_count={max_count}")


def enumerate_generators(params: GenSetParams, j: int) -> Iterator[BigGen]:
    """Yield the distinct index-j generators, length-lex in the conjugator.

    Conjugators ending in b^(+-1) normalize to shorter ones already seen,
    so they are skipped outright; the rest are pairwise distinct
    (``family_size``). The stream is as long as the family; bound it
    first with ``check_family_size``.
    """
    _check_index(j, params)
    for length in range(params.conjugator_bound(j) + 1):
        for letters in _conjugators(length):
            yield BigGen(Word.from_runs((l.base, l.sign) for l in letters), j)

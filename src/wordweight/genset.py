"""The extended generating set: letters plus the indexed big generators.

A big generator with conjugator v and index j expands to

    v b^(B^(2j-1)) v^-1 a^(B^(2j)) b^(B^(2j))

where B is the base parameter and |v| <= B^j. The canonical instance is
B=5 with indices starting at 2; smaller bases give desk-scale analogues
for exhaustive search (exactness claims never transfer between bases).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .errors import BudgetExhausted, ConjugatorTooLong, IndexTooSmall
from .words import HOM_AB, IDENTITY, LETTERS, Letter, Word, hom_value


@dataclass(frozen=True)
class GenSetParams:
    """Construction parameters: base, starting index, optional index cap."""

    base: int = 5
    jmin: int = 2
    jmax_cap: int | None = None

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.jmin < 1:
            raise ValueError(f"jmin must be >= 1, got {self.jmin}")
        if self.jmax_cap is not None and self.jmax_cap < self.jmin:
            raise ValueError("jmax_cap below jmin")

    def conjugator_bound(self, j: int) -> int:
        return self.base**j

    def inner_exp(self, j: int) -> int:
        return self.base ** (2 * j - 1)

    def outer_exp(self, j: int) -> int:
        return self.base ** (2 * j)


@dataclass(frozen=True)
class LetterGen:
    """A standard letter used as a generator."""

    letter: Letter

    def __str__(self) -> str:
        return str(self.letter)


@dataclass(frozen=True)
class BigGen:
    """An indexed generator in conjugator normal form.

    The conjugator never ends in b or b^-1, so the expansion is reduced
    as written (up to the a-runs possibly merging across the conjugator's
    inverse).
    """

    conj: Word
    index: int

    def __str__(self) -> str:
        return f"x({self.conj or '1'}, {self.index})"


Gen = Union[LetterGen, BigGen]

LETTER_GENS = tuple(LetterGen(l) for l in LETTERS)


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
    whose conjugator does not end in b^(+-1).
    """
    if j < params.jmin:
        raise IndexTooSmall(f"index {j} below jmin={params.jmin}")
    if v.s_length > params.conjugator_bound(j):
        raise ConjugatorTooLong(
            f"|v|={v.s_length} exceeds bound {params.conjugator_bound(j)} for index {j}"
        )
    runs = v.runs
    if runs and runs[-1][0] == "b":
        runs = runs[:-1]
    return BigGen(Word(runs), j)


def expand_generator(gen: Gen, params: GenSetParams) -> Word:
    """The reduced word of a generator (one letter, or the full expansion)."""
    if isinstance(gen, LetterGen):
        return gen.letter.word()
    w = gen.conj
    j = gen.index
    inner = Word((("b", params.inner_exp(j)),))
    tail = Word((("a", params.outer_exp(j)), ("b", params.outer_exp(j))))
    return w * inner * ~w * tail


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


def _reduced_suffix_letters(prev: Letter | None) -> list[Letter]:
    return [
        l
        for l in LETTERS
        if prev is None or not (l.base == prev.base and l.sign == -prev.sign)
    ]


def _words_of_length(length: int, skip_b_tail: bool) -> Iterator[Word]:
    """All reduced letter sequences of the given length, lexicographic in
    the canonical letter order; optionally only those not ending in b^(+-1)."""
    if length == 0:
        yield IDENTITY
        return
    stack: list[Letter] = []

    def rec(depth: int) -> Iterator[Word]:
        for letter in _reduced_suffix_letters(stack[-1] if stack else None):
            if depth == length - 1 and skip_b_tail and letter.base == "b":
                continue
            stack.append(letter)
            if depth == length - 1:
                yield Word.from_runs((l.base, l.sign) for l in stack)
            else:
                yield from rec(depth + 1)
            stack.pop()

    yield from rec(0)


def enumerate_generators(
    params: GenSetParams,
    j: int,
    max_count: int | None = None,
    complete: bool = False,
) -> Iterator[BigGen]:
    """Yield the distinct index-j generators, length-lex in the conjugator.

    Conjugators ending in b^(+-1) normalize to shorter ones already seen,
    so they are skipped outright; a defensive expansion-equality check
    guards against any residual duplicates. With ``complete=True``, raises
    BudgetExhausted if the family does not fit within ``max_count``.
    """
    _check_index(j, params)
    seen: set[Word] = set()
    yielded = 0
    for length in range(params.conjugator_bound(j) + 1):
        for v in _words_of_length(length, skip_b_tail=True):
            gen = BigGen(v, j)
            expansion = expand_generator(gen, params)
            if expansion in seen:
                continue
            if max_count is not None and yielded >= max_count:
                if complete:
                    raise BudgetExhausted(
                        f"index-{j} family exceeds max_count={max_count}"
                    )
                return
            seen.add(expansion)
            yielded += 1
            yield gen

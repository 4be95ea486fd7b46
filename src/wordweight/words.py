"""Exact arithmetic in the free group on a, b, c.

Words are run-length encoded reduced words: a tuple of (base, exponent)
runs with adjacent runs on distinct bases and no zero exponents. Exponents
are plain Python ints, so magnitudes like 5**40 cost one run. All
operations return new Word values; the runs never change after
construction. A word's letter count and abelianisation are cached the
first time they are asked for, and a product of two words that have both
inherits them at the cost of its seam (``seam``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import WordSyntaxError

BASES = ("a", "b", "c")

Run = tuple[str, int]

_TERM_RE = re.compile(r"([abc])(?:\^([+-]?\d+))?$")


def _merge_runs(runs: Iterable[Run]) -> tuple[Run, ...]:
    """Reduce an arbitrary run sequence (merging/cancelling neighbours)."""
    out: list[Run] = []
    for base, exp in runs:
        if exp == 0:
            continue
        if out and out[-1][0] == base:
            s = out[-1][1] + exp
            out.pop()
            if s != 0:
                out.append((base, s))
        else:
            out.append((base, exp))
    return tuple(out)


def seam(left: tuple[Run, ...], right: tuple[Run, ...]) -> tuple[int, Run | None, int]:
    """How two reduced run sequences reduce where they meet.

    Returns ``(taken, merged, cancelled)``: the reduced product is
    ``left[:len(left) - taken] + (merged,) + right[taken:]``, without
    ``merged`` when it is None, and ``cancelled`` = |left| + |right| -
    |product| letters vanish. Both sides lose the same number of runs: a
    pair of facing runs on one base either cancels whole, and the walk
    goes on, or merges into one run, and it stops. Cost is proportional
    to the runs taken.
    """
    taken = cancelled = 0
    i, n = len(left), len(right)
    while i and taken < n:
        i -= 1
        base, exp = right[taken]
        lbase, lexp = left[i]
        if lbase != base:
            break
        taken += 1
        s = lexp + exp
        if s:
            return taken, (base, s), cancelled + abs(lexp) + abs(exp) - abs(s)
        cancelled += 2 * abs(exp)
    return taken, None, cancelled


class Word:
    """A reduced word of the free group; the empty word is the identity."""

    __slots__ = ("runs", "_hash", "_len", "_ab")

    runs: tuple[Run, ...]

    def __init__(self, runs: tuple[Run, ...] = ()):
        # Trusted constructor: `runs` must already be reduced. Use
        # from_runs()/parse() for unvalidated input.
        self.runs = runs
        self._hash = None
        self._len = None  # letter count, filled by s_length or __mul__
        self._ab = None  # AbelianVector, filled by abelianize or __mul__

    @classmethod
    def from_runs(cls, runs: Iterable[Run]) -> "Word":
        """Build a word from any run sequence, reducing as needed."""
        runs = tuple(runs)
        for base, exp in runs:
            if base not in BASES:
                raise ValueError(f"unknown base {base!r}")
            if not isinstance(exp, int):
                raise ValueError(f"exponent {exp!r} is not an int")
        return cls(_merge_runs(runs))

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse ``term (SP term)*`` where term is ``base`` or ``base^int``.

        Whitespace-only input is the identity. Raises WordSyntaxError with
        the offset of the first malformed token.
        """
        runs: list[Run] = []
        pos = 0
        for token in text.split():
            start = text.index(token, pos)
            pos = start + len(token)
            m = _TERM_RE.match(token)
            if not m:
                raise WordSyntaxError(f"bad term {token!r}", start)
            exp = int(m.group(2)) if m.group(2) is not None else 1
            runs.append((m.group(1), exp))
        return cls(_merge_runs(runs))

    def __str__(self) -> str:
        return " ".join(
            base if exp == 1 else f"{base}^{exp}" for base, exp in self.runs
        )

    def __repr__(self) -> str:
        return f"Word({str(self) or '1'!r})"

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.runs)
        return h

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.runs == other.runs

    def __bool__(self) -> bool:
        return bool(self.runs)

    def is_identity(self) -> bool:
        return not self.runs

    def __mul__(self, other: "Word") -> "Word":
        """Concatenate and reduce. Cost is proportional to cancelled runs.

        When both factors have their letter count and abelianisation
        cached, the product gets them too: the abelianisations add, and
        the letter counts add less the letters cancelled at the seam.
        Otherwise the product's stay empty, so no caller pays for data it
        never reads.
        """
        left, right = self.runs, other.runs
        if not left:
            return other
        if not right:
            return self
        taken, merged, cancelled = seam(left, right)
        middle = (merged,) if merged else ()
        product = Word(left[: len(left) - taken] + middle + right[taken:])
        if self._len is not None and other._len is not None:
            product._len = self._len + other._len - cancelled
        if self._ab is not None and other._ab is not None:
            x, y = self._ab, other._ab
            product._ab = AbelianVector(x[0] + y[0], x[1] + y[1], x[2] + y[2])
        return product

    def __invert__(self) -> "Word":
        return Word(tuple((base, -exp) for base, exp in reversed(self.runs)))

    def __pow__(self, n: int) -> "Word":
        """Reduced n-th power via cyclic reduction of the core.

        Stripping the maximal conjugating shell leaves a cyclically
        reduced core: its first and last runs are on distinct bases, or on
        one base with the same sign. Copies of it therefore never cancel;
        they only merge at the seam in the second case. The runs of the
        power are written out directly, so the cost is linear in the
        result, and independent of |n| when the core is a single run
        (e.g. powers of one letter, or conjugates of them).
        """
        if n == 0:
            return IDENTITY
        if n < 0:
            return (~self) ** (-n)
        if n == 1:
            return self
        shell: list[Run] = []
        core = list(self.runs)
        while len(core) >= 2:
            b1, e1 = core[0]
            b2, e2 = core[-1]
            if b1 != b2 or (e1 > 0) == (e2 > 0):
                break
            shell.append((b1, e1))
            core = core[1:-1]
            s = e1 + e2
            if s != 0:
                core.append((b1, s))
        if len(core) <= 1:
            powered = Word(((core[0][0], core[0][1] * n),)) if core else IDENTITY
        elif core[0][0] != core[-1][0]:
            powered = Word(tuple(core) * n)
        else:
            inner = core[1:-1]
            seam = (core[0][0], core[-1][1] + core[0][1])
            runs = [core[0]] + (inner + [seam]) * (n - 1) + inner + [core[-1]]
            powered = Word(tuple(runs))
        w = Word(tuple(shell))
        return w * powered * ~w

    @property
    def s_length(self) -> int:
        """Letter count: the word length over the standard six letters."""
        n = self._len
        if n is None:
            n = self._len = sum(abs(exp) for _, exp in self.runs)
        return n

    def abelianize(self) -> "AbelianVector":
        ab = self._ab
        if ab is None:
            na = nb = nc = 0
            for base, exp in self.runs:
                if base == "a":
                    na += exp
                elif base == "b":
                    nb += exp
                else:
                    nc += exp
            ab = self._ab = AbelianVector(na, nb, nc)
        return ab

    def split_at(self, i: int) -> tuple["Word", "Word"]:
        """Split into the first ``i`` letters and the rest; no cancellation."""
        if i < 0 or i > self.s_length:
            raise IndexError(f"split index {i} out of range")
        prefix: list[Run] = []
        remaining = i
        for pos, (base, exp) in enumerate(self.runs):
            size = abs(exp)
            if remaining >= size:
                prefix.append((base, exp))
                remaining -= size
                if remaining == 0:
                    return Word(tuple(prefix)), Word(self.runs[pos + 1 :])
            else:
                sign = 1 if exp > 0 else -1
                if remaining:
                    prefix.append((base, sign * remaining))
                suffix = ((base, exp - sign * remaining),) + self.runs[pos + 1 :]
                return Word(tuple(prefix)), Word(suffix)
        return self, IDENTITY

    def sort_key(self):
        return (self.s_length, self.runs)


IDENTITY = Word(())


@dataclass(frozen=True)
class Letter:
    """One of the six standard letters."""

    base: str
    sign: int

    def __post_init__(self):
        if self.base not in BASES or self.sign not in (1, -1):
            raise ValueError(f"bad letter ({self.base!r}, {self.sign})")

    def word(self) -> Word:
        return Word(((self.base, self.sign),))

    def __str__(self) -> str:
        return self.base if self.sign == 1 else f"{self.base}^-1"


#: The standard letters in their canonical enumeration order.
LETTERS = tuple(Letter(b, s) for b in BASES for s in (1, -1))


class AbelianVector(NamedTuple):
    """Net letter counts (a, b, c); additive under concatenation."""

    na: int
    nb: int
    nc: int


Coeffs = tuple[int, int, int]

# Letter-count homomorphisms to the integers, as coefficient triples.
HOM_C: Coeffs = (0, 0, 1)
HOM_AB: Coeffs = (1, 1, 0)  # counts a's and b's together
HOM_B_MINUS_C: Coeffs = (0, 1, -1)


def hom_value(coeffs: Coeffs, u: Word) -> int:
    """Evaluate the homomorphism with the given coefficients on u."""
    na, nb, nc = u.abelianize()
    return coeffs[0] * na + coeffs[1] * nb + coeffs[2] * nc

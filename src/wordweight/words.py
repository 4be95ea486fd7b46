"""Exact arithmetic in the free group on a, b, c.

Words are run-length encoded reduced words: a tuple of (base, exponent)
runs with adjacent runs on distinct bases and no zero exponents. Exponents
are plain Python ints, so magnitudes like 5**40 cost one run. All
operations return new Word values; the runs never change after
construction. A word's letter count and abelianisation are cached the
first time they are asked for. The product works on runs alone
(``mul_runs``), so a caller that keeps run tuples, as the search engines
do, multiplies without building a Word; ``seam`` says how many letters
cancel where two run sequences meet.

The six standard letters are ``Letter`` instances, each built once at
import: ``Letter(base, sign)`` looks the stored one up, so letters compare
by identity.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .errors import PreconditionViolated, WordSyntaxError

BASES = ("a", "b", "c")

#: Most runs that n copies of a power's core of several runs may hold,
#: counted before they merge (``Word.__pow__``).
POW_RUN_LIMIT = 1 << 22

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


def mul_runs(left: tuple[Run, ...], right: tuple[Run, ...]) -> tuple[Run, ...]:
    """The reduced product of two reduced run sequences (``seam``). Cost
    is proportional to the runs taken at the seam plus the copy of the
    result."""
    taken, merged, _ = seam(left, right)
    if merged:
        return left[: len(left) - taken] + (merged,) + right[taken:]
    return left[: len(left) - taken] + right[taken:]


class Word:
    """A reduced word of the free group; the empty word is the identity."""

    __slots__ = ("runs", "_hash", "_len", "_ab")

    runs: tuple[Run, ...]

    def __init__(self, runs: tuple[Run, ...] = ()):
        # Trusted constructor: `runs` must already be reduced. Use
        # from_runs()/parse() for unvalidated input.
        self.runs = runs
        self._hash = None
        self._len = None  # letter count, filled by s_length
        self._ab = None  # AbelianVector, filled by abelianize

    @classmethod
    def from_runs(cls, runs: Iterable[Run]) -> "Word":
        """Build a word from any run sequence, reducing as needed."""
        runs = tuple(runs)
        for base, exp in runs:
            if base not in BASES:
                raise ValueError(f"unknown base {base!r}")
            if type(exp) is not int:  # a bool is an int too
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
        """Concatenate and reduce. Cost is proportional to cancelled runs."""
        if not self.runs:
            return other
        if not other.runs:
            return self
        return Word(mul_runs(self.runs, other.runs))

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
        (e.g. powers of one letter, or conjugates of them). When the core
        has k >= 2 runs and k n > ``POW_RUN_LIMIT``, the power raises
        PreconditionViolated before any run is built.
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
        if len(core) > 1 and len(core) * n > POW_RUN_LIMIT:
            raise PreconditionViolated(
                f"power {n} of a {len(core)}-run core would hold more than "
                f"{POW_RUN_LIMIT} runs"
            )
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

    def sort_key(self):
        return (self.s_length, self.runs)


IDENTITY = Word(())


#: Sets a field of a ``Record`` in its constructor, past its ``__setattr__``.
_set = object.__setattr__


class Record:
    """Base of the library's immutable records.

    A record lists its fields in ``__slots__``, in the order its
    constructor takes them, and sets each once in ``__init__`` with
    ``_set``. Setting or deleting an attribute afterwards raises
    AttributeError. ``copy``, ``deepcopy`` and ``pickle`` rebuild a record
    through its constructor from its fields, and its repr names each of
    them (``Letter``, which keeps a cached field, overrides both). Records
    are equal only when they are the same object; a ``ValueRecord``
    compares by value.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ValueRecord(Record):
    """A record equal to another of its type when their ``_fields()``
    are, with the hash of that tuple. Each subclass writes ``_fields`` out
    from its named fields."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


class Letter(Record):
    """One of the six standard letters.

    There are exactly six instances, built once at import in the order of
    ``LETTERS``. ``Letter(base, sign)`` returns the stored one from
    ``LETTER_OF`` and raises ValueError for anything else, so two letters
    are equal only when they are the same object: equality and hash are
    the identity's. A letter cannot be changed, and ``copy``, ``deepcopy``
    and ``pickle`` give back the same instance. ``word()`` is the one
    stored one-letter Word.
    """

    __slots__ = ("base", "sign", "_word")

    base: str
    sign: int

    def __new__(cls, base: str, sign: int) -> "Letter":
        try:
            return LETTER_OF[base, sign]
        except (KeyError, TypeError):  # TypeError: an unhashable argument
            raise ValueError(f"bad letter ({base!r}, {sign})") from None

    def __reduce__(self):
        return Letter, (self.base, self.sign)

    def word(self) -> Word:
        return self._word

    def __repr__(self) -> str:
        return f"Letter(base={self.base!r}, sign={self.sign!r})"

    def __str__(self) -> str:
        return self.base if self.sign == 1 else f"{self.base}^-1"


def _new_letter(base: str, sign: int) -> Letter:
    letter = object.__new__(Letter)
    _set(letter, "base", base)
    _set(letter, "sign", sign)
    _set(letter, "_word", Word(((base, sign),)))
    return letter


#: The standard letters in their canonical enumeration order.
LETTERS = tuple(_new_letter(b, s) for b in BASES for s in (1, -1))
#: Each letter by (base, sign); ``Letter(base, sign)`` reads this table.
LETTER_OF: dict[tuple[str, int], Letter] = {(x.base, x.sign): x for x in LETTERS}


class AbelianVector(NamedTuple):
    """Net letter counts (a, b, c); additive under concatenation."""

    na: int
    nb: int
    nc: int


Coeffs = tuple[int, int, int]

# A letter-count homomorphism to the integers, as a coefficient triple.
HOM_AB: Coeffs = (1, 1, 0)  # counts a's and b's together


def hom_value(coeffs: Coeffs, u: Word) -> int:
    """Evaluate the homomorphism with the given coefficients on u."""
    na, nb, nc = u.abelianize()
    return coeffs[0] * na + coeffs[1] * nb + coeffs[2] * nc

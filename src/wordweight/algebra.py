"""The weighted convolution algebra layer.

The weight of a word is e raised to its extended word length, so every
norm and pairing here is a finite sum of exact rationals times integer
powers of e. Arithmetic keeps that form: scalars are (rational, integer
e-exponent) pairs, general quantities are formal term lists. Equalities
are decided structurally (e is transcendental, so equal values have equal
term lists). The sign of a sum, and so every inequality, is decided
exactly from integer fixed-point bounds on the sum, refined at doubling
precision until they exclude 0 (see ``ExpSum.sign``); floats come from
the same bounds, refined until both ends round to one float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Mapping

from .errors import PreconditionViolated, UnknownLength, WordSyntaxError
from .genset import GenSetParams, _check_index, normalize_conjugator, expand_generator
from .lengths import (
    SearchBudget,
    _blocks_length,
    _check_chain,
    _family_blocks,
    _require_canonical,
    xlength,
)
from .words import IDENTITY, ValueRecord, Word, _set, mul_runs


class ExpScalar(ValueRecord):
    """Exact value mantissa * e**exponent. The mantissa is a Fraction or an
    int; a float or a bool raises TypeError, as Fraction() would read 0.1
    as a binary float and True as 1. The exponent is an int, and anything
    else, a bool or a float included, raises TypeError. Zero has exponent
    0."""

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: Fraction, exponent: int = 0):
        if not isinstance(mantissa, Fraction):
            mantissa = _exact(mantissa)
        if type(exponent) is not int:
            raise TypeError(f"exponent {exponent!r} is not an int")
        _set(self, "mantissa", mantissa)
        _set(self, "exponent", exponent if mantissa else 0)

    def _fields(self) -> tuple:
        return self.mantissa, self.exponent

    def __mul__(self, other: "ExpScalar") -> "ExpScalar":
        return ExpScalar(self.mantissa * other.mantissa, self.exponent + other.exponent)

    def is_zero(self) -> bool:
        return self.mantissa == 0

    def to_float(self) -> float:
        """Correctly rounded float value, as ``ExpSum.to_float``."""
        return ExpSum.of(self).to_float()

    def __str__(self) -> str:
        if self.exponent == 0:
            return str(self.mantissa)
        return f"{self.mantissa}*e^{self.exponent}"


ONE = ExpScalar(Fraction(1))


def _refuse_inexact(value) -> None:
    if isinstance(value, (bool, float)):
        raise TypeError(f"{value!r} is not exact: use an int or a Fraction")


def _exact(value) -> Fraction:
    """Fraction(value), but a float or a bool raises TypeError."""
    _refuse_inexact(value)
    return Fraction(value)


_PRECISIONS = [64 << i for i in range(11)]  # 64 to 2^16 bits


@cache
def _e_bounds(p: int, inverse: bool) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^p e <= hi, or 2^p / e with ``inverse``.

    The series of +-1/k! is summed in integers at q = p + 32 bits: t_0 =
    2^q and t_k = t_(k-1) // k, up to the first t_K = 0. The error
    2^q/k! - t_k lies in [0, 2), since it is below 1 plus the previous
    error over k, so the K summed terms are off by less than 2K in all.
    At K, 2^q/K! < 2 and the terms fall by a factor K + 1 or more, so the
    tail is below 4 for e and, alternating, below 2 for 1/e. The total is
    thus within 2K + 4 of 2^q e^(+-1), and shifting that interval down by
    32 bits, rounding outward, keeps it. The cache holds one pair per
    precision in use: at most 22 from ``ExpSum``.
    """
    term, total, k = 1 << (p + 32), 0, 0
    while term:
        total += -term if inverse and k % 2 else term
        k += 1
        term //= k
    slack = 2 * k + 4
    return (total - slack) >> 32, -(-(total + slack) >> 32)


def _exp_bounds(n: int, p: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^p e^n <= hi, by square-and-multiply on the
    bounds of e (1/e for n < 0). Each product of two fixed-point bounds is
    shifted back by p bits, down for lo and up for hi."""
    lo = hi = 1 << p
    base_lo, base_hi = _e_bounds(p, n < 0)
    n = abs(n)
    while n:
        if n & 1:
            lo, hi = lo * base_lo >> p, -(-hi * base_hi >> p)
        n >>= 1
        base_lo, base_hi = base_lo * base_lo >> p, -(-base_hi * base_hi >> p)
    return lo, hi


def _sum_bounds(terms: Iterable, top: int, p: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^p e^-top sum(m e^E) <= hi, for (E, m) terms
    with int exponents and Fraction or int mantissas."""
    lo = hi = 0
    for exponent, m in terms:
        e_lo, e_hi = _exp_bounds(exponent - top, p)
        n, d = m.numerator, m.denominator
        lo += n * (e_lo if n > 0 else e_hi) // d
        hi -= -n * (e_hi if n > 0 else e_lo) // d
    return lo, hi


def _fixed_to_float(numerator: int, p: int) -> float:
    """numerator / 2^p, correctly rounded; +-inf past the float range."""
    try:
        return numerator / (1 << p)
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


class ExpSum(ValueRecord):
    """Formal sum of m_i * e**E_i terms, normalized and exponent-sorted.

    Structural equality is mathematical equality since e is transcendental.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, Fraction], ...] = ()):
        _set(self, "terms", terms)

    def _fields(self) -> tuple:
        return (self.terms,)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, Fraction]]) -> "ExpSum":
        """Merge repeated exponents, drop zeros, sort by falling exponent.
        An int mantissa becomes a Fraction; a float or a bool raises
        TypeError, as in ``ExpScalar``."""
        acc: dict[int, Fraction] = {}
        for exponent, mantissa in terms:
            if exponent in acc:
                acc[exponent] += mantissa
            else:
                acc[exponent] = mantissa
        return cls(
            tuple(
                (e, m if type(m) is Fraction else _exact(m))
                for e, m in sorted(acc.items(), reverse=True)
                if m != 0
            )
        )

    @classmethod
    def of(cls, scalar: ExpScalar) -> "ExpSum":
        if scalar.is_zero():
            return cls(())
        return cls(((scalar.exponent, scalar.mantissa),))

    def is_normal(self) -> bool:
        """True when the terms are as ``from_terms`` leaves them: exponents
        strictly falling, every mantissa a nonzero Fraction."""
        prev = None
        for e, m in self.terms:
            if type(m) is not Fraction or not m or (prev is not None and e >= prev):
                return False
            prev = e
        return True

    def __add__(self, other: "ExpSum") -> "ExpSum":
        if not self.terms and other.is_normal():
            return other
        if not other.terms and self.is_normal():
            return self
        return ExpSum.from_terms(self.terms + other.terms)

    def __neg__(self) -> "ExpSum":
        return ExpSum(tuple((e, -m) for e, m in self.terms))

    def __sub__(self, other: "ExpSum") -> "ExpSum":
        return self + (-other)

    def scaled(self, scalar: ExpScalar) -> "ExpSum":
        return ExpSum.from_terms(
            (e + scalar.exponent, m * scalar.mantissa) for e, m in self.terms
        )

    def shifted(self, delta: int) -> "ExpSum":
        return ExpSum(tuple((e + delta, m) for e, m in self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def _bounds(self) -> Iterator[tuple[int, int, int, int]]:
        """(p, top, lo, hi) for p = 64, 128, ... bits: ``_sum_bounds`` of
        the normal form at its largest exponent top (0 for the empty sum,
        whose bounds are exactly 0). ArithmeticError past 2^16 bits."""
        s = self if self.is_normal() else ExpSum.from_terms(self.terms)
        top = s.terms[0][0] if s.terms else 0
        for p in _PRECISIONS:
            yield p, top, *_sum_bounds(s.terms, top, p)
        raise ArithmeticError("bounds did not resolve within 2^16 bits")

    def sign(self) -> int:
        """Sign of the sum, decided exactly.

        A sum that is not normal is normalised first, so terms that cancel
        give 0. With top the largest exponent, ``_sum_bounds`` brackets
        2^p e^-top times the sum between integers lo <= hi, at p = 64, 128,
        ... bits, until lo > 0 proves the sum positive, hi < 0 proves it
        negative or lo = hi gives its value.

        Soundness: ``_e_bounds`` encloses 2^p e and 2^p / e, and each
        product and quotient after it rounds outward, so [lo, hi] contains
        2^p e^-top times the sum at every p. Termination: every power of e
        in the bracket is at most 1, so its width stays below a bound set
        by the mantissas, whatever p. A normal sum with terms is a nonzero
        polynomial in 1/e with rational coefficients, so its value is not
        0, as e is transcendental (Hermite, 1873), and once 2^p times that
        value exceeds the width, the bracket excludes 0. A sum that has not
        resolved at 2^16 bits raises ArithmeticError.
        """
        for _, _, lo, hi in self._bounds():
            if lo > 0 or hi < 0 or lo == hi:
                return (lo > 0) - (hi < 0)

    def __abs__(self) -> "ExpSum":
        return self if self.sign() >= 0 else -self

    def compare(self, other) -> int:
        other = _promote(other)
        return (self - other).sign()

    def __le__(self, other) -> bool:
        return self.compare(other) <= 0

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def __ge__(self, other) -> bool:
        return self.compare(other) >= 0

    def __gt__(self, other) -> bool:
        return self.compare(other) > 0

    def equals(self, other) -> bool:
        return self == _promote(other)

    def to_float(self) -> float:
        """The value correctly rounded to a float: +-inf past the float
        range, +-0.0 below it. The bounds of ``sign``, times bounds on
        e^top, are refined until both ends round to one float and the sign
        is settled."""
        for p, top, lo, hi in self._bounds():
            # once the sign is settled, log2 |value| is at least the bits of
            # the end nearer 0, less p + 1, plus top log2(e) > 1.4426 top:
            # past 1024 the float is inf, without building e^top for a huge top
            near = lo if lo > 0 else -hi
            if top > 0 and near > 0 and near.bit_length() + top * 1.4426 > p + 1025:
                return math.inf if lo > 0 else -math.inf
            e_lo, e_hi = _exp_bounds(top, p)
            low = _fixed_to_float(lo * (e_lo if lo > 0 else e_hi), 2 * p)
            high = _fixed_to_float(hi * (e_hi if hi > 0 else e_lo), 2 * p)
            if low == high and (lo > 0) == (hi > 0):
                return low

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(ExpScalar(m, e)) for e, m in self.terms)


def _promote(value) -> ExpSum:
    if isinstance(value, ExpSum):
        return value
    if isinstance(value, ExpScalar):
        return ExpSum.of(value)
    if isinstance(value, (int, Fraction)):
        return ExpSum.of(ExpScalar(value))
    _refuse_inexact(value)
    raise TypeError(f"cannot compare ExpSum with {type(value).__name__}")


# --- weights ------------------------------------------------------------------


class WeightProvider:
    """Certified word-length lookup behind the weight w(u) = e^|u|.

    Modes: "family" answers only the proven closed forms; "exact" runs
    exhaustive search; "bracket" answers only when certificates meet
    witnesses. Anything uncertified raises UnknownLength instead of
    guessing.
    """

    def __init__(
        self,
        params: GenSetParams,
        mode: str = "family",
        budget: SearchBudget | None = None,
    ):
        if mode not in ("family", "exact", "bracket"):
            raise ValueError(f"unknown mode {mode!r}")
        self.params = params
        self.mode = mode
        self.budget = budget
        self._cache: dict[Word, int] = {}

    def length(self, u: Word) -> int:
        cached = self._cache.get(u)
        if cached is not None:
            return cached
        if self.mode == "family":
            scan = _family_blocks(u, self.params)
            if scan is None:
                raise UnknownLength(
                    f"family mode cannot certify {str(u) or '1'!r}", words=[u]
                )
            value = _blocks_length(*scan, self.params)
        else:
            result = xlength(u, self.params, budget=self.budget, mode=self.mode)
            if not result.exact:
                raise UnknownLength(
                    f"{self.mode} mode could not pin down {str(u) or '1'!r} "
                    f"(bracket [{result.lower}, {result.upper}])",
                    words=[u],
                )
            value = result.lower
        self._cache[u] = value
        return value


# --- finitely supported weighted vectors --------------------------------------


class WeightedVector:
    """Finitely supported element with exact formal-sum coefficients."""

    __slots__ = ("provider", "entries")

    def __init__(self, provider: WeightProvider, entries: Mapping[Word, ExpSum]):
        self.provider = provider
        self.entries: dict[Word, ExpSum] = {
            w: c for w, c in entries.items() if not c.is_zero()
        }

    @classmethod
    def point_mass(
        cls, provider: WeightProvider, u: Word, coeff: ExpScalar = ONE
    ) -> "WeightedVector":
        return cls(provider, {u: ExpSum.of(coeff)})

    @property
    def support(self) -> list[Word]:
        return sorted(self.entries, key=lambda w: w.sort_key())

    def __add__(self, other: "WeightedVector") -> "WeightedVector":
        _check_same_provider(self, other)
        merged = dict(self.entries)
        for w, c in other.entries.items():
            merged[w] = merged.get(w, ExpSum()) + c
        return WeightedVector(self.provider, merged)

    def scaled(self, scalar: ExpScalar) -> "WeightedVector":
        return WeightedVector(
            self.provider, {w: c.scaled(scalar) for w, c in self.entries.items()}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedVector)
            and self.provider is other.provider
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        inside = ", ".join(
            f"{str(w) or '1'}: {c}" for w, c in sorted(
                self.entries.items(), key=lambda kv: kv[0].sort_key()
            )
        )
        return f"WeightedVector({{{inside}}})"


def _check_same_provider(f: WeightedVector, g: WeightedVector) -> None:
    if f.provider.params != g.provider.params:
        raise ValueError("vectors live over different generating-set parameters")


def normalized_point_mass(u: Word, provider: WeightProvider) -> WeightedVector:
    """The point mass at u divided by its weight; its norm is exactly 1."""
    return WeightedVector.point_mass(
        provider, u, ExpScalar(Fraction(1), -provider.length(u))
    )


def vector_to_literal(f: WeightedVector) -> list[dict]:
    """Wire form: one {word, mantissa "p/q", exp} item per coefficient term."""
    items = []
    for w in f.support:
        for exponent, mantissa in f.entries[w].terms:
            items.append(
                {
                    "word": str(w),
                    "mantissa": f"{mantissa.numerator}/{mantissa.denominator}",
                    "exp": exponent,
                }
            )
    return items


def vector_from_literal(
    provider: WeightProvider, items: list[dict]
) -> WeightedVector:
    """Parse the wire form; repeated words accumulate. Each item is a dict
    with a ``word`` string, a ``mantissa`` that is a "p/q" string with
    q != 0 or an int, and an int ``exp``: ValueError names the item
    otherwise, since a float or bool would be read as a different number
    and a string exponent is not one. A malformed word raises
    WordSyntaxError, a ValueError, whose message names the item too."""
    entries: dict[Word, ExpSum] = {}
    for i, item in enumerate(items):
        if not isinstance(item, dict) or {"word", "mantissa", "exp"} - item.keys():
            raise ValueError(f"item {i}: needs word, mantissa and exp, got {item!r}")
        word, exponent, raw = item["word"], item["exp"], item["mantissa"]
        if type(word) is not str:
            raise ValueError(f"item {i}: word must be a string, got {word!r}")
        where = f"item {i} ({word!r})"
        if type(exponent) is not int:
            raise ValueError(f"{where}: exp must be an integer, got {exponent!r}")
        try:
            mantissa = _exact(raw)
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError(
                f"{where}: mantissa must be a 'p/q' string, got {raw!r}"
            ) from None
        try:
            w = Word.parse(word)
        except WordSyntaxError as exc:
            exc.args = (f"{where}: {exc}",)
            raise
        term = ExpSum.of(ExpScalar(mantissa, exponent))
        entries[w] = entries.get(w, ExpSum()) + term
    return WeightedVector(provider, entries)


def convolve(f: WeightedVector, g: WeightedVector) -> WeightedVector:
    """Exact convolution; support words multiply through group arithmetic."""
    _check_same_provider(f, g)
    out: dict[Word, ExpSum] = {}
    for s, cs in f.entries.items():
        for t, ct in g.entries.items():
            w = s * t
            term = _expsum_product(cs, ct)
            out[w] = out.get(w, ExpSum()) + term
    return WeightedVector(f.provider, out)


def _expsum_product(x: ExpSum, y: ExpSum) -> ExpSum:
    if len(x.terms) == 1 and len(y.terms) == 1:
        (ex, mx), (ey, my) = x.terms[0], y.terms[0]
        m = mx * my
        if type(m) is Fraction and m:
            return ExpSum(((ex + ey, m),))
    return ExpSum.from_terms(
        (ex + ey, mx * my) for ex, mx in x.terms for ey, my in y.terms
    )


def _weighted_sum(f: WeightedVector, signed: bool, what: str) -> ExpSum:
    """Sum of coefficient * e^|word| over the support, with |coefficient|
    unless ``signed``; UnknownLength names every word without a length."""
    terms = []
    unknown = []
    for w in f.support:
        try:
            length = f.provider.length(w)
        except UnknownLength:
            unknown.append(w)
            continue
        coeff = f.entries[w]
        terms += (coeff if signed else abs(coeff)).shifted(length).terms
    if unknown:
        raise UnknownLength(
            f"{what} needs lengths for: " + ", ".join(str(w) or "1" for w in unknown),
            words=unknown,
        )
    return ExpSum.from_terms(terms)


def omega_norm(f: WeightedVector) -> ExpSum:
    """Sum of |coefficient| * e^|word| over the support, exactly."""
    return _weighted_sum(f, signed=False, what="norm")


def pair_omega(f: WeightedVector) -> ExpSum:
    """Signed pairing against the weight functional: sum of f(t) * e^|t|."""
    return _weighted_sum(f, signed=True, what="pairing")


# --- decay bounds for sandwiched products --------------------------------------


def min_tail_index(j: int, u: Word, params: GenSetParams) -> int:
    """Smallest m with base^m >= |u| (letters) and m > j+1."""
    m = j + 2
    slen = u.s_length
    while params.base**m < slen:
        m += 1
    return m


def block_word(n: int, params: GenSetParams) -> Word:
    """The block a^(B^(2n)) b^(B^(2n))."""
    outer = params.outer_exp(n)
    return Word((("a", outer), ("b", outer)))


def sandwich_decay_bound(
    j: int, u: Word, k: int, provider: WeightProvider
) -> tuple[int, int]:
    """(N, exponent): for k >= N, the normalized triple product

        ~d(block_j) * ~d(u) * ~d(block_k)

    has norm at most e^exponent with exponent = -1 - base^(2j-1).

    The witness behind the bound is verified by direct arithmetic: the
    product word factors as (a^(B^2j) b^(B^2j - B^(2k-1)) u) times the
    index-k generator with conjugator u^-1, giving the numerator length
    at most B^(2k-1) + |u| + 1, which cancels against the normalizations.
    Both sides are multiplied out as reduced run tuples (``mul_runs``).
    """
    params = provider.params
    _require_canonical(params)
    _check_index(j, params)
    n_min = min_tail_index(j, u, params)
    if k < n_min:
        raise PreconditionViolated(
            f"tail index {k} below N(j={j}, u) = {n_min}"
        )
    outer_j = params.outer_exp(j)
    # b's exponent is below 0, as B^(2k-1) > B^(2j) once k > j + 1
    head = (("a", outer_j), ("b", outer_j - params.inner_exp(k)))
    expansion = expand_generator(normalize_conjugator(~u, k, params), params)
    witness = mul_runs(mul_runs(head, u.runs), expansion.runs)
    blocks = block_word(j, params).runs, block_word(k, params).runs
    target = mul_runs(mul_runs(blocks[0], u.runs), blocks[1])
    if witness != target:
        raise ArithmeticError("rearranged witness failed to reproduce the product")
    return n_min, -1 - params.inner_exp(j)


def sandwich_norm_bound(
    j: int, f: WeightedVector, k: int
) -> ExpSum:
    """Proven upper bound for the norm of ~d(block_j) * f * ~d(block_k).

    Uses the witness upper bound B^(2k-1) + |u| + 1 for each support word
    of f (valid once k >= N(j, f)); an upper bound on the numerator length
    only weakens the reported quantity, never the claim. For a vector with
    norm at most 1 the result is at most e^(-1 - B^(2j-1)).
    """
    provider = f.provider
    params = provider.params
    _require_canonical(params)
    if not f.entries:
        return ExpSum()
    n_f = max(min_tail_index(j, u, params) for u in f.entries)
    if k < n_f:
        raise PreconditionViolated(f"tail index {k} below N(j={j}, f) = {n_f}")
    shift = -(params.inner_exp(j) + 1) - (params.inner_exp(k) + 1)
    total = ExpSum()
    for u in f.support:
        sandwich_decay_bound(j, u, k, provider)  # verifies the witness arithmetic
        numerator_upper = params.inner_exp(k) + provider.length(u) + 1
        total = total + abs(f.entries[u]).shifted(shift + numerator_upper)
    return total


# --- chained products and the spectral probe -----------------------------------


def chain_prefixes(
    blocks: list[tuple[int, int]], provider: WeightProvider
) -> Iterator[WeightedVector]:
    """``chain_product`` of each nonempty prefix of blocks, shortest
    first, from one walk along the chain."""
    params = provider.params
    _require_canonical(params)
    _check_chain(blocks, params)
    result = WeightedVector.point_mass(provider, IDENTITY)
    for n, k in blocks:
        result = convolve(result, normalized_point_mass(block_word(n, params), provider))
        result = convolve(result, normalized_point_mass(Word((("c", k),)), provider))
        yield result


def chain_product(
    blocks: list[tuple[int, int]], provider: WeightProvider
) -> WeightedVector:
    """Convolution of normalized point masses along a chain of blocks and
    separator c-powers. The result is the normalized point mass of the
    chain word: its pairing against the weight functional is exactly 1.
    """
    *_, result = chain_prefixes(blocks, provider)
    return result


class NormRoot(ValueRecord):
    """k-th root of a norm: mantissa * e**exponent; mantissa is a Fraction
    when the root is exact, otherwise a float and exact is False."""

    __slots__ = ("mantissa", "exponent", "exact")

    def __init__(self, mantissa: Fraction | float, exponent: Fraction, exact: bool):
        _set(self, "mantissa", mantissa)
        _set(self, "exponent", exponent)
        _set(self, "exact", exact)

    def _fields(self) -> tuple:
        return self.mantissa, self.exponent, self.exact

    def is_one(self) -> bool:
        return self.exact and self.mantissa == 1 and self.exponent == 0

    def is_zero(self) -> bool:
        return self.exact and self.mantissa == 0


def _int_root(n: int, k: int) -> int | None:
    """Exact integer k-th root of n >= 0, or None."""
    if n in (0, 1):
        return n
    lo, hi = 1, 1 << ((n.bit_length() + k - 1) // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


def _fraction_root(m: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of m >= 0, or None."""
    num, den = _int_root(m.numerator, k), _int_root(m.denominator, k)
    return None if num is None or den is None else Fraction(num, den)


def spectral_probe(f: WeightedVector, K: int) -> list[NormRoot]:
    """Norms of the convolution powers, each taken to the 1/k power.

    A quasi-nilpotent element drives these to zero; a sequence pinned at
    one certifies the opposite. A root is exact when the norm is one term
    whose mantissa has an exact k-th root; otherwise it is the float root
    of the norm over e^top, top its largest exponent.
    """
    roots: list[NormRoot] = []
    power = f
    for k in range(1, K + 1):
        if k > 1:
            power = convolve(power, f)
        norm = omega_norm(power)
        # the zero norm is the one term 0 e^0, whose root is exact
        top, mantissa = norm.terms[0] if norm.terms else (0, Fraction(0))
        root = _fraction_root(mantissa, k) if len(norm.terms) <= 1 else None
        if root is None:
            root = norm.shifted(-top).to_float() ** (1 / k)
        roots.append(NormRoot(root, Fraction(top, k), type(root) is Fraction))
    return roots

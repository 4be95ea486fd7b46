"""The weighted convolution algebra layer.

The weight of a word is e raised to its extended word length, so every
norm and pairing here is a finite sum of exact rationals times integer
powers of e. Arithmetic keeps that form: scalars are (rational, integer
e-exponent) pairs, general quantities are formal term lists. Equalities
are decided structurally (e is transcendental, so equal values have equal
term lists); inequalities fall back to interval evaluation at increasing
precision, which always terminates on distinct values.

mpmath is imported inside the three functions that evaluate floats or
intervals, so that importing the library does not load it (about 4 MB of
resident memory) for callers that never reach them, such as length
searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import PreconditionViolated, UnknownLength
from .genset import GenSetParams, _check_index, normalize_conjugator, expand_generator
from .lengths import (
    SearchBudget,
    _blocks_word,
    _check_chain,
    _require_canonical,
    family_length,
    xlength,
)
from .words import IDENTITY, Word


@dataclass(frozen=True)
class ExpScalar:
    """Exact value mantissa * e**exponent."""

    mantissa: Fraction
    exponent: int = 0

    def __post_init__(self):
        if not isinstance(self.mantissa, Fraction):
            object.__setattr__(self, "mantissa", Fraction(self.mantissa))
        if self.mantissa == 0 and self.exponent != 0:
            object.__setattr__(self, "exponent", 0)

    def __mul__(self, other: "ExpScalar") -> "ExpScalar":
        return ExpScalar(self.mantissa * other.mantissa, self.exponent + other.exponent)

    def __neg__(self) -> "ExpScalar":
        return ExpScalar(-self.mantissa, self.exponent)

    def __abs__(self) -> "ExpScalar":
        return ExpScalar(abs(self.mantissa), self.exponent)

    def is_zero(self) -> bool:
        return self.mantissa == 0

    def to_float(self) -> float:
        """Float value; may under/overflow to 0.0 or inf for huge exponents."""
        return ExpSum.of(self).to_float()

    def __str__(self) -> str:
        if self.exponent == 0:
            return str(self.mantissa)
        return f"{self.mantissa}*e^{self.exponent}"


ONE = ExpScalar(Fraction(1))
ZERO = ExpScalar(Fraction(0))


def _interval_sign(terms: tuple[tuple[int, Fraction], ...]) -> int:
    """Sign of a nonempty sum of m*e^E terms with mixed signs.

    Interval evaluation at doubling precision; a nonzero such sum always
    resolves eventually because e is transcendental.
    """
    import mpmath

    iv = mpmath.iv
    saved = iv.prec
    prec = 64
    try:
        while prec <= 1 << 16:
            iv.prec = prec
            total = iv.mpf(0)
            for exponent, mantissa in terms:
                total += (
                    iv.mpf(mantissa.numerator)
                    / iv.mpf(mantissa.denominator)
                    * iv.exp(iv.mpf(exponent))
                )
            if total > 0:
                return 1
            if total < 0:
                return -1
            prec *= 2
    finally:
        iv.prec = saved
    raise ArithmeticError("interval sign did not resolve; terms may be equal")


@dataclass(frozen=True)
class ExpSum:
    """Formal sum of m_i * e**E_i terms, normalized and exponent-sorted.

    Structural equality is mathematical equality since e is transcendental.
    """

    terms: tuple[tuple[int, Fraction], ...] = ()

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, Fraction]]) -> "ExpSum":
        acc: dict[int, Fraction] = {}
        for exponent, mantissa in terms:
            acc[exponent] = acc.get(exponent, Fraction(0)) + mantissa
        cleaned = tuple(
            (e, m) for e, m in sorted(acc.items(), reverse=True) if m != 0
        )
        return cls(cleaned)

    @classmethod
    def of(cls, scalar: ExpScalar) -> "ExpSum":
        if scalar.is_zero():
            return cls(())
        return cls(((scalar.exponent, scalar.mantissa),))

    def __add__(self, other: "ExpSum") -> "ExpSum":
        return ExpSum.from_terms(self.terms + other.terms)

    def __neg__(self) -> "ExpSum":
        return ExpSum(tuple((e, -m) for e, m in self.terms))

    def __sub__(self, other: "ExpSum") -> "ExpSum":
        return self + (-other)

    def scaled(self, scalar: ExpScalar) -> "ExpSum":
        if scalar.is_zero():
            return ExpSum(())
        return ExpSum.from_terms(
            (e + scalar.exponent, m * scalar.mantissa) for e, m in self.terms
        )

    def shifted(self, delta: int) -> "ExpSum":
        return ExpSum(tuple((e + delta, m) for e, m in self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def sign(self) -> int:
        if not self.terms:
            return 0
        if all(m > 0 for _, m in self.terms):
            return 1
        if all(m < 0 for _, m in self.terms):
            return -1
        return _interval_sign(self.terms)

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

    def as_scalar(self) -> ExpScalar | None:
        """Collapse to a single scalar when possible (zero or one term)."""
        if not self.terms:
            return ZERO
        if len(self.terms) == 1:
            e, m = self.terms[0]
            return ExpScalar(m, e)
        return None

    def to_float(self) -> float:
        """Evaluation with relative error well under 1e-12 (80-bit floats)."""
        if not self.terms:
            return 0.0
        import mpmath

        with mpmath.workprec(80):
            total = mpmath.mpf(0)
            for e, m in self.terms:
                total += mpmath.mpf(m.numerator) / m.denominator * mpmath.exp(e)
            return float(total)

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
        return ExpSum.of(ExpScalar(Fraction(value)))
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
            fam = family_length(u, self.params)
            if fam is None:
                raise UnknownLength(
                    f"family mode cannot certify {str(u) or '1'!r}", words=[u]
                )
            value = fam[0]
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

    def weight(self, u: Word) -> ExpScalar:
        return ExpScalar(Fraction(1), self.length(u))


def xweight(u: Word, provider: WeightProvider) -> int:
    """Exact weight exponent |u| over the extended set."""
    return provider.length(u)


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
    def zero(cls, provider: WeightProvider) -> "WeightedVector":
        return cls(provider, {})

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
    """Parse the wire form; repeated words accumulate."""
    entries: dict[Word, ExpSum] = {}
    for item in items:
        w = Word.parse(item["word"])
        mantissa = Fraction(item["mantissa"])
        exponent = int(item["exp"])
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
    return ExpSum.from_terms(
        (ex + ey, mx * my) for ex, mx in x.terms for ey, my in y.terms
    )


def _weighted_sum(f: WeightedVector, signed: bool, what: str) -> ExpSum:
    """Sum of coefficient * e^|word| over the support, with |coefficient|
    unless ``signed``; UnknownLength names every word without a length."""
    total = ExpSum()
    unknown = []
    for w in f.support:
        try:
            length = f.provider.length(w)
        except UnknownLength:
            unknown.append(w)
            continue
        coeff = f.entries[w]
        total = total + (coeff if signed else abs(coeff)).shifted(length)
    if unknown:
        raise UnknownLength(
            f"{what} needs lengths for: " + ", ".join(str(w) or "1" for w in unknown),
            words=unknown,
        )
    return total


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
    return _blocks_word(0, [(n, 0)], params)


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
    rearranged = (
        Word((("a", outer_j),))
        * Word((("b", outer_j - params.inner_exp(k)),))
        * u
    )
    gen = normalize_conjugator(~u, k, params)
    target = block_word(j, params) * u * block_word(k, params)
    if rearranged * expand_generator(gen, params) != target:
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


def chain_product(
    blocks: list[tuple[int, int]], provider: WeightProvider
) -> WeightedVector:
    """Convolution of normalized point masses along a chain of blocks and
    separator c-powers. The result is the normalized point mass of the
    chain word: its pairing against the weight functional is exactly 1.
    """
    params = provider.params
    _require_canonical(params)
    _check_chain(blocks, params)
    result = WeightedVector.point_mass(provider, IDENTITY)
    for n, k in blocks:
        result = convolve(result, normalized_point_mass(block_word(n, params), provider))
        result = convolve(result, normalized_point_mass(Word((("c", k),)), provider))
    return result


@dataclass(frozen=True)
class NormRoot:
    """k-th root of a norm: mantissa * e**exponent; mantissa is a Fraction
    when the root is exact, otherwise a float and exact is False."""

    mantissa: Fraction | float
    exponent: Fraction
    exact: bool

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


def _fraction_root(m: Fraction, k: int) -> tuple[Fraction | float, bool]:
    num = _int_root(m.numerator, k)
    den = _int_root(m.denominator, k)
    if num is not None and den is not None:
        return Fraction(num, den), True
    return float(m) ** (1.0 / k), False


def spectral_probe(f: WeightedVector, K: int) -> list[NormRoot]:
    """Norms of the convolution powers, each taken to the 1/k power.

    A quasi-nilpotent element drives these to zero; a sequence pinned at
    one certifies the opposite.
    """
    roots: list[NormRoot] = []
    power = f
    for k in range(1, K + 1):
        if k > 1:
            power = convolve(power, f)
        norm = omega_norm(power)
        if norm.is_zero():
            roots.append(NormRoot(Fraction(0), Fraction(0), True))
            continue
        if len(norm.terms) == 1:
            exponent, mantissa = norm.terms[0]
            root_m, exact = _fraction_root(mantissa, k)
            roots.append(NormRoot(root_m, Fraction(exponent, k), exact))
        else:
            top = norm.terms[0][0]
            import mpmath

            with mpmath.workprec(80):
                s = mpmath.mpf(0)
                for e, m in norm.terms:
                    s += mpmath.mpf(m.numerator) / m.denominator * mpmath.exp(e - top)
                root = float(s ** (mpmath.mpf(1) / k))
            roots.append(NormRoot(root, Fraction(top, k), False))
    return roots

"""Word lengths over the extended generating set.

Lower bounds come from integer linear functionals on the abelianization
whose values on every generator are capped on one side (certificates).
Upper bounds come from explicit factorizations (witnesses). Exact values
come from exhaustive search over the implicit Cayley graph, which is
finite once the index cutoff from ``max_usable_index`` is applied, or
from certificate/witness collapse, or from the proven closed forms for
the whitelisted word families at base 5.
"""

from __future__ import annotations

import time
from enum import Enum
from functools import lru_cache
from itertools import product
from math import gcd

from .errors import (
    BudgetExhausted,
    ConstraintViolation,
    InvalidCertificate,
    PreconditionViolated,
    UnknownLength,
)
from .genset import (
    BigGen,
    Gen,
    GenSetParams,
    _check_index,
    expand_generator,
)
from .search import SearchBudget, best_first, build_moves, deepening, make_heuristic
from .words import IDENTITY, LETTER_OF, ValueRecord, Word, _set, hom_value

C_POS = LETTER_OF["c", 1]
B_NEG = LETTER_OF["b", -1]


class Direction(Enum):
    """Which side of the functional is capped on the generating set."""

    UPPER = "upper"
    LOWER = "lower"


class Certificate(ValueRecord):
    """An integer functional on the abelianization, capped on one side."""

    __slots__ = ("coeffs", "direction")

    def __init__(self, coeffs: tuple[int, int, int], direction: Direction):
        _set(self, "coeffs", coeffs)
        _set(self, "direction", direction)

    def _fields(self) -> tuple:
        return self.coeffs, self.direction


def _row(cert: Certificate, base: int) -> tuple[int, int, int, int]:
    """The certificate as a row (ca, cb, cc, cap) that bounds by
    ceil(value / cap), after checking that it is valid.

    Soundness. The row is the functional, negated for a LOWER
    certificate, and cap the largest size of its coefficients, so every
    letter has row value at most cap. An index-j generator abelianizes to
    B^(2j-1) (B, B+1, 0), so its value is B^(2j-1) times the slope
    ca B + cb (B+1), at most 0 <= cap when the slope is not positive.
    Every generator then has value at most cap, and the row is additive,
    so a factorization of u into n symbols has n cap >= value(u). A
    positive slope makes the row unbounded on the indexed generators, and
    a zero row certifies nothing; both raise InvalidCertificate.
    """
    sign = 1 if cert.direction is Direction.UPPER else -1
    ca, cb, cc = (sign * c for c in cert.coeffs)
    if ca * base + cb * (base + 1) > 0:
        side = "above" if sign > 0 else "below"
        raise InvalidCertificate(
            f"{cert.coeffs} unbounded {side} on the indexed generators"
        )
    cap = max(abs(ca), abs(cb), abs(cc))
    if cap == 0:
        raise InvalidCertificate("zero functional certifies nothing")
    return ca, cb, cc, cap


def eval_certificate(cert: Certificate, u: Word, params: GenSetParams) -> int:
    """A proven lower bound on the extended word length of u: the row's
    bound (``_row``), and never below 0."""
    ca, cb, cc, cap = _row(cert, params.base)
    return max(0, -(-hom_value((ca, cb, cc), u) // cap))


_POOL_CAP = 3  # the pool's coefficients lie in [-_POOL_CAP, _POOL_CAP]


@lru_cache(maxsize=None)
def certificate_pool(base: int) -> tuple[Certificate, ...]:
    """Every valid primitive functional with coefficients in [-3, 3], once,
    as a LOWER certificate, in coefficient order.

    The UPPER certificate c bounds exactly like the LOWER certificate -c,
    and one is valid iff the other is, so LOWER alone loses no bound.
    Scaled coefficient triples give the same bound, so only primitive
    triples are kept.
    """
    return tuple(
        Certificate(coeffs, Direction.LOWER)
        for coeffs in product(range(-_POOL_CAP, _POOL_CAP + 1), repeat=3)
        if gcd(*coeffs) == 1 and coeffs[0] * base + coeffs[1] * (base + 1) >= 0
    )


def certified_power_collapse(letter: str, params: GenSetParams) -> Certificate:
    """The certificate proving that letter^k has length exactly k, for
    every k >= 1.

    The one-letter counting certificate gives the lower bound and the
    trivial letters witness the upper, so no search is involved. ``_row``
    checks that the certificate is valid, with cap 1; it raises
    InvalidCertificate for a and b, whose functionals are unbounded on
    the indexed generators, so only c passes. Its value on letter^k is k,
    so its bound is ceil(k / 1) = k, the witness's letter count, for
    every k: no k needs a check of its own.
    """
    coeffs = tuple(1 if b == letter else 0 for b in ("a", "b", "c"))
    cert = Certificate(coeffs, Direction.UPPER)
    _row(cert, params.base)
    return cert


@lru_cache(maxsize=None)
def _pool_rows(base: int) -> tuple[tuple[int, int, int, int], ...]:
    """``certificate_pool(base)`` as rows (``_row``)."""
    return tuple(_row(cert, base) for cert in certificate_pool(base))


def _hull(points: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Vertices of the convex hull of at least three points in the plane,
    in order, without the points on an edge (Andrew's monotone chain)."""
    points = sorted(set(points))

    def turns_left(o, a, b) -> bool:
        return (a[0] - o[0]) * (b[1] - o[1]) > (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for p in seq:
            while len(out) >= 2 and not turns_left(out[-2], out[-1], p):
                out.pop()
            out.append(p)
        return out[:-1]

    return tuple(chain(points) + chain(reversed(points)))


@lru_cache(maxsize=None)
def _pool_hulls(base: int) -> tuple[tuple[int, int, int], ...]:
    """(ra, rb, k) for each cap k in 1.._POOL_CAP and each hull vertex
    (ra, rb) of P_k, the integer pairs in [-k, k]^2 with
    ra B + rb (B+1) <= 0."""
    return tuple(
        (ra, rb, k)
        for k in range(1, _POOL_CAP + 1)
        for ra, rb in _hull([
            (ra, rb)
            for ra in range(-k, k + 1)
            for rb in range(-k, k + 1)
            if ra * base + rb * (base + 1) <= 0
        ])
    )


def pool_bound(ab: tuple[int, int, int], base: int) -> tuple[int, int | None]:
    """Best pool bound on an abelianization and the pool index of the
    first certificate reaching it (None when the bound is 0).

    The best value comes in closed form, without scanning the pool. For a
    cap k let V_k = k |nc| + the largest ra na + rb nb over the hull
    vertices of P_k (``_pool_hulls``); a linear function is largest over
    a finite set at a vertex of its hull. The bound is
    max(0, max_k ceil(V_k / k)), computed as |nc| + max_k ceil(M_k / k)
    with M_k = V_k - k |nc|.

    It equals the best pool row, in both directions:
      * <=: a pool row (ra, rb, rc) of cap k has (ra, rb) in P_k and
        |rc| <= k, so its value is at most V_k;
      * >=: take the maximiser r = (ra, rb, k sign(nc)) with V_k > 0
        (sign(0) = 1). Its primitive reduction r/g satisfies the same
        homogeneous constraint, so it is a pool row. Its value is V_k / g
        and its cap k / g (|ra|, |rb| <= k = |rc|), so its bound is
        ceil(V_k / k).

    The reported certificate is the first pool row whose ceiling reaches
    the bound, i.e. with value > (bound - 1) cap: the first maximum, as a
    scan keeping only strict improvements would report it. It usually
    lies among the first few rows.
    """
    na, nb, nc = ab
    hulls = _pool_hulls(base)
    best = abs(nc) - min((-ra * na - rb * nb) // k for ra, rb, k in hulls)
    if best <= 0:
        return 0, None
    below = best - 1
    for i, (ca, cb, cc, cap) in enumerate(_pool_rows(base)):
        if ca * na + cb * nb + cc * nc > below * cap:
            return best, i
    raise ArithmeticError(f"no pool row reaches the closed-form bound {best}")


def best_certificate_bound(
    u: Word, params: GenSetParams
) -> tuple[int, Certificate | None]:
    """Best pool bound; ties resolved toward lexicographically-first coeffs."""
    best, first = pool_bound(u.abelianize(), params.base)
    return best, None if first is None else certificate_pool(params.base)[first]


# --- factorizations and witnesses -------------------------------------------


class Factorization(ValueRecord):
    """A run-compressed sequence of generator symbols.

    ``items`` holds (symbol, multiplicity) pairs so that witnesses with
    astronomically many repeated letters stay O(1) in memory.
    """

    __slots__ = ("items",)

    def __init__(self, items: tuple[tuple[Gen, int], ...] = ()):
        _set(self, "items", items)

    def _fields(self) -> tuple:
        return (self.items,)

    @classmethod
    def from_symbols(cls, symbols) -> "Factorization":
        items: list[tuple[Gen, int]] = []
        for gen in symbols:
            if items and items[-1][0] == gen:
                items[-1] = (gen, items[-1][1] + 1)
            else:
                items.append((gen, 1))
        return cls(tuple(items))

    @property
    def symbol_count(self) -> int:
        return sum(mult for _, mult in self.items)

    def symbol_strings(self) -> list[str]:
        return [
            str(gen) if mult == 1 else f"{gen} *{mult}" for gen, mult in self.items
        ]


def verify_factorization(
    f: Factorization, params: GenSetParams
) -> tuple[Word, int]:
    """Reduced product of all expansions plus the symbol count."""
    product = IDENTITY
    for gen, mult in f.items:
        product = product * expand_generator(gen, params) ** mult
    return product, f.symbol_count


def letters_factorization(u: Word) -> Factorization:
    """The trivial witness spelling u letter by letter."""
    return Factorization(
        tuple((LETTER_OF[base, 1 if exp > 0 else -1], abs(exp)) for base, exp in u.runs)
    )


# --- the block family ----------------------------------------------------------
#
# The words c^(k0) [a^(B^(2n)) b^(B^(2n)) c^(k)]* with blocks (n, k): their
# word, witness, length and separator rule, and the parameters at which the
# length is proven, are each stated once, here.


def _require_canonical(params: GenSetParams) -> None:
    """Raise unless params are where the closed forms are proven."""
    if params.base != 5 or params.jmin != 2:
        raise PreconditionViolated(
            "the proven closed forms require base 5 and jmin 2 "
            f"(got base {params.base}, jmin {params.jmin})"
        )


def _min_separator(n: int, params: GenSetParams) -> int:
    """Smallest separator power allowed before an index-n block: one more
    than three times its outer exponent."""
    return 3 * params.outer_exp(n) + 1


def _blocks_word(
    k0: int, blocks: list[tuple[int, int]], params: GenSetParams
) -> Word:
    """The word c^(k0) [a^(B^(2n)) b^(B^(2n)) c^(k)]* with blocks (n, k)."""
    runs = [("c", k0)]
    for n, k in blocks:
        runs += [("a", params.outer_exp(n)), ("b", params.outer_exp(n)), ("c", k)]
    return Word.from_runs(runs)


def _blocks_length(
    k0: int, blocks: list[tuple[int, int]], params: GenSetParams
) -> int:
    """Symbol count of the witness below: k0 + sum(B^(2n-1) + 1 + k)."""
    return k0 + sum(params.inner_exp(n) + 1 + k for n, k in blocks)


def _blocks_factorization(
    k0: int, blocks: list[tuple[int, int]], params: GenSetParams
) -> Factorization:
    """The witness c^(k0) [b^(-B^(2n-1)) x(1, n) c^(k)]* for the word
    c^(k0) [a^(B^(2n)) b^(B^(2n)) c^(k)]* with blocks (n, k)."""
    items: list[tuple[Gen, int]] = [(C_POS, k0)] if k0 else []
    for n, k in blocks:
        items.append((B_NEG, params.inner_exp(n)))
        items.append((BigGen(IDENTITY, n), 1))
        if k:
            items.append((C_POS, k))
    return Factorization(tuple(items))


def block_witness(n: int, k: int, params: GenSetParams) -> Factorization:
    """Witness for c^k a^(B^(2n)) b^(B^(2n)): k letters c, then B^(2n-1)
    letters b^-1, then the identity-conjugator index-n generator."""
    _check_index(n, params)
    if k < 0:
        raise ValueError("k must be >= 0")
    return _blocks_factorization(k, [(n, 0)], params)


def check_chain_constraint(
    blocks: list[tuple[int, int]], params: GenSetParams
) -> None:
    """Each separator power must exceed three times the next block's outer
    exponent; raises ConstraintViolation with the offending 1-based index."""
    for i in range(1, len(blocks)):
        n_i = blocks[i][0]
        k_prev = blocks[i - 1][1]
        if k_prev < _min_separator(n_i, params):
            raise ConstraintViolation(
                f"separator k_{i} = {k_prev} is not greater than "
                f"3*B^(2*{n_i}) = {_min_separator(n_i, params) - 1}",
                index=i + 1,
            )


def _check_chain(blocks: list[tuple[int, int]], params: GenSetParams) -> None:
    """Raise unless blocks is a nonempty admissible chain: valid indices,
    every separator power >= 1, and the separator constraint."""
    if not blocks:
        raise ValueError("empty block list")
    for n, k in blocks:
        _check_index(n, params)
        if k < 1:
            raise ValueError("every separator power must be >= 1")
    check_chain_constraint(blocks, params)


def chain_witness(
    blocks: list[tuple[int, int]], params: GenSetParams
) -> Factorization:
    """Witness for the chained word

        a^(B^(2n_1)) b^(B^(2n_1)) c^(k_1) ... a^(B^(2n_r)) b^(B^(2n_r)) c^(k_r)

    with symbol count sum(B^(2n_i - 1) + 1) + sum(k_i). Requires every
    k_i >= 1 and the separator constraint between consecutive blocks.
    """
    _check_chain(blocks, params)
    return _blocks_factorization(0, blocks, params)


def chain_word(blocks: list[tuple[int, int]], params: GenSetParams) -> Word:
    """The chained word itself, built directly from the parameters."""
    return _blocks_word(0, blocks, params)


# --- structural recognizers --------------------------------------------------


def _even_power_index(value: int, base: int) -> int | None:
    """n such that value == base^(2n), or None."""
    if value < base:
        return None
    e = 0
    while value % base == 0:
        value //= base
        e += 1
    if value != 1 or e % 2:
        return None
    return e // 2


def _scan_blocks(
    u: Word, params: GenSetParams
) -> tuple[int, list[tuple[int, int]]] | None:
    """Match u against c^(k0) [a^(B^2n) b^(B^2n) c^(k_i)]*; returns
    (k0, blocks) or None. Block indices must be >= jmin (and under any cap)."""
    runs = list(u.runs)
    k0 = 0
    if runs and runs[0][0] == "c" and runs[0][1] > 0:
        k0 = runs[0][1]
        runs = runs[1:]
    blocks: list[tuple[int, int]] = []
    i = 0
    while i < len(runs):
        if i + 1 >= len(runs):
            return None
        (b1, e1), (b2, e2) = runs[i], runs[i + 1]
        if b1 != "a" or b2 != "b" or e1 <= 0 or e1 != e2:
            return None
        n = _even_power_index(e1, params.base)
        if n is None or n < params.jmin:
            return None
        if params.jmax_cap is not None and n > params.jmax_cap:
            return None
        i += 2
        k = 0
        if i < len(runs) and runs[i][0] == "c":
            if runs[i][1] < 0:
                return None
            k = runs[i][1]
            i += 1
        blocks.append((n, k))
    if not blocks:
        return None
    return k0, blocks


def shape_witness(u: Word, params: GenSetParams) -> Factorization | None:
    """Self-verifying upper-bound witness for block-shaped words, any base."""
    scan = _scan_blocks(u, params)
    return None if scan is None else _blocks_factorization(*scan, params)


def _family_blocks(
    u: Word, params: GenSetParams
) -> tuple[int, list[tuple[int, int]]] | None:
    """u as (k0, blocks) of c^(k0) [a^(B^2n) b^(B^2n) c^(k)]* when it is on
    the whitelist of proven closed forms, else None.

    Whitelist (anything else is refused rather than estimated):
      * nonnegative powers of c, any parameters (no blocks);
      * c^(k0) a^(5^2n) b^(5^2n) c^(k1) with n >= 2, k0, k1 >= 0, at the
        canonical parameters (base 5, jmin 2) only;
      * chains of such blocks with every separator >= 1 satisfying the
        separator constraint, same parameters.
    """
    if u.is_identity():
        return 0, []
    if len(u.runs) == 1 and u.runs[0][0] == "c" and u.runs[0][1] > 0:
        return u.runs[0][1], []
    try:
        _require_canonical(params)
    except PreconditionViolated:
        return None
    scan = _scan_blocks(u, params)
    if scan is None:
        return None
    k0, blocks = scan
    if len(blocks) > 1:
        if k0 != 0:
            return None
        try:
            _check_chain(blocks, params)
        except ValueError:  # a separator below 1, or the separator rule
            return None
    return scan


def family_length(
    u: Word, params: GenSetParams
) -> tuple[int, Factorization] | None:
    """Exact length from the proven closed forms with its witness, or None
    off the whitelist (``_family_blocks``). The length is ``_blocks_length``:
    k0 + sum(5^(2n-1) + 1 + k) over the blocks (n, k)."""
    scan = _family_blocks(u, params)
    if scan is None:
        return None
    return _blocks_length(*scan, params), _blocks_factorization(*scan, params)


def single_biggen_cancellation(
    f: Factorization, params: GenSetParams
) -> tuple[int, int] | None:
    """(letters cancelled from the big generator's expansion, expansion
    length) for a factorization of the form letters * big-gen * letters,
    else None.

    Cancellation is counted along the left-to-right reduction: first the
    letter prefix against the expansion, then the partially reduced word
    against the letter suffix (capped at what remains of the expansion).
    In any minimal factorization fewer than half the expansion's letters
    can be cancelled this way.
    """
    big_positions = [
        i
        for i, (gen, mult) in enumerate(f.items)
        if isinstance(gen, BigGen)
        for _ in range(mult)
    ]
    if len(big_positions) != 1:
        return None
    idx = big_positions[0]
    prefix, _ = verify_factorization(Factorization(f.items[:idx]), params)
    expansion = expand_generator(f.items[idx][0], params)
    suffix, _ = verify_factorization(Factorization(f.items[idx + 1 :]), params)
    merged = prefix * expansion
    from_left = (prefix.s_length + expansion.s_length - merged.s_length) // 2
    full = merged * suffix
    boundary = (merged.s_length + suffix.s_length - full.s_length) // 2
    from_right = min(boundary, expansion.s_length - from_left)
    return from_left + from_right, expansion.s_length


# --- length computation -------------------------------------------------------


class LengthResult(ValueRecord):
    """Bracket [lower, upper] on the extended word length.

    ``exact`` iff the bracket collapsed; ``exhaustive`` marks exactness
    established by completed search rather than by certificate collapse
    or a closed-form family. ``method`` is one of family/collapse/search/
    dual/bracket/budget.
    """

    __slots__ = ("lower", "upper", "witness", "certificate", "exact", "exhaustive",
                 "budget_exhausted", "nodes_expanded", "ms", "method")

    def __init__(self, lower: int, upper: int, witness: Factorization | None,
                 certificate: Certificate | None, exact: bool, exhaustive: bool,
                 budget_exhausted: bool, nodes_expanded: int, ms: float, method: str):
        if lower > upper:
            raise ValueError("lower bound exceeds upper bound")
        if exact != (lower == upper):
            raise ValueError("exact flag inconsistent with bracket")
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set(self, "witness", witness)
        _set(self, "certificate", certificate)
        _set(self, "exact", exact)
        _set(self, "exhaustive", exhaustive)
        _set(self, "budget_exhausted", budget_exhausted)
        _set(self, "nodes_expanded", nodes_expanded)
        _set(self, "ms", ms)
        _set(self, "method", method)

    def _fields(self) -> tuple:
        return (self.lower, self.upper, self.witness, self.certificate, self.exact,
                self.exhaustive, self.budget_exhausted, self.nodes_expanded, self.ms,
                self.method)


def _bracket_parts(u: Word, params: GenSetParams):
    lower, cert = best_certificate_bound(u, params)
    if lower == 0 and not u.is_identity():
        lower = 1  # a non-identity element needs at least one symbol
    upper = u.s_length
    witness = letters_factorization(u)
    shaped = shape_witness(u, params)
    if shaped is not None and shaped.symbol_count < upper:
        upper = shaped.symbol_count
        witness = shaped
    return lower, cert, upper, witness


def xlength(
    u: Word,
    params: GenSetParams,
    budget: SearchBudget | None = None,
    mode: str = "exact",
    algorithm: str = "best-first",
) -> LengthResult:
    """Compute or bracket the word length of u over the extended set.

    mode "family" uses only the proven closed forms (UnknownLength
    otherwise); "bracket" reports certificate-lower/witness-upper without
    searching; "exact" additionally runs exhaustive search when the
    bracket does not already collapse. ``algorithm`` picks the search
    engine: best-first, deepening, or dual. Dual reports best-first's
    proven cost c and its path, re-multiplied like every engine path,
    once deepening, which does not share best-first's quotient bound,
    has proven on its own that nothing shorter exists: its passes up to
    c - 1 complete without a path. A shorter path from deepening raises
    ArithmeticError, and a cross-check cut short by the budget sets
    ``budget_exhausted`` on the exact result. When best-first runs out,
    deepening searches up to the full cap instead.
    """
    t0 = time.perf_counter()
    if mode not in ("family", "bracket", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if algorithm not in ("best-first", "deepening", "dual"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    budget = budget or SearchBudget()

    def result(lower, upper, witness, method, exhaustive=False,
               budget_exhausted=False, nodes=0) -> LengthResult:
        return LengthResult(
            lower=lower,
            upper=upper,
            witness=witness,
            certificate=cert,
            exact=lower == upper,
            exhaustive=exhaustive,
            budget_exhausted=budget_exhausted,
            nodes_expanded=nodes,
            ms=(time.perf_counter() - t0) * 1000.0,
            method=method,
        )

    if mode == "family":
        fam = family_length(u, params)
        if fam is None:
            raise UnknownLength(
                f"no proven closed form for {str(u) or '1'!r} at base "
                f"{params.base}, jmin {params.jmin}",
                words=[u],
            )
        length, witness = fam
        _, cert = best_certificate_bound(u, params)
        return result(length, length, witness, "family")

    lower, cert, upper, witness = _bracket_parts(u, params)
    if lower == upper or mode == "bracket":
        return result(
            lower, upper, witness, "collapse" if lower == upper else "bracket"
        )

    # Exact mode: exhaustive search below the index cutoff.
    try:
        moves = build_moves(u, upper, params, budget, t0)
    except BudgetExhausted:
        return result(lower, upper, witness, "budget", budget_exhausted=True)

    heuristic = make_heuristic(params, moves.families)
    cap = upper if budget.max_cost is None else min(upper, budget.max_cost)
    outcomes = []
    if algorithm in ("best-first", "dual"):
        outcomes.append(best_first(u, moves, cap, heuristic, budget, t0))
    if algorithm in ("deepening", "dual"):
        # best-first's proven path is the one reported, so deepening need
        # only prove that none is shorter than its cost
        proven = outcomes[0].cost if outcomes else None
        deep_cap = cap if proven is None else proven - 1
        outcomes.append(deepening(u, moves, deep_cap, heuristic, budget, t0))

    def checked(path, cost: int) -> Factorization:
        # every engine path, proven or not, is re-multiplied before use
        witness = Factorization.from_symbols(path)
        product, count = verify_factorization(witness, params)
        if product != u or count != cost:
            raise ArithmeticError(f"search produced an invalid witness for {u!r}")
        return witness

    nodes = sum(o.nodes for o in outcomes)
    searched = "dual" if algorithm == "dual" else "search"
    found = [o for o in outcomes if o.cost is not None]
    if found:
        costs = {o.cost for o in found}
        if len(costs) != 1:
            raise ArithmeticError(
                f"search engines disagree on {u!r}: "
                f"{sorted(costs)} (this is a bug)"
            )
        best = found[0]
        return result(
            best.cost,
            best.cost,
            checked(best.path, best.cost),
            searched,
            exhaustive=True,
            # In dual mode, flag when one engine ran out of budget even
            # though the other completed: an engine that completes proves
            # a lower end of at least the cost, one that runs out less.
            budget_exhausted=any(o.lower_bound < best.cost for o in outcomes),
            nodes=nodes,
        )

    proven = max([lower] + [o.lower_bound for o in outcomes])
    for outcome in outcomes:
        # an unproven factorization found before the budget ran out still
        # tightens the upper end of the bracket
        if outcome.path is not None and len(outcome.path) < upper:
            upper = len(outcome.path)
            witness = checked(outcome.path, upper)
    proven = min(proven, upper)
    # An engine that completes without a path proves a lower end above
    # its cap; when every one did and that reaches the witness, as under
    # a ``max_cost`` below it, the search decided the length.
    done = proven == upper and all(o.lower_bound > cap for o in outcomes)
    return result(
        proven, upper, witness, searched if done else "budget", exhaustive=done,
        budget_exhausted=not done, nodes=nodes,
    )

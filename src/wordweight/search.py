"""Exhaustive shortest-factorization search over the implicit Cayley graph.

States are the remaining words still to be built; a move left-divides by
one generator's expansion. A state is held as its reduced runs (``Runs``),
not as a Word, and a child, the reduced product of the move's runs and
the state's, is built in one step (``Move.apply``), which walks the seam
(``words.mul_runs``) only when the facing runs cancel whole. Two engines
are provided: a best-first search (priority queue on cost plus
heuristic, with an incumbent so that an admissible but inconsistent
heuristic still yields the optimum) and an iterative-deepening
depth-first search whose bound grows by the exact minimal overshoot.
Both are deterministic for fixed inputs and budgets.

The heuristic reads only a state's key ``(na, nb, nc, letters)``: its
abelianisation and letter count (``state_key``). A child's key follows
from its parent's and the move's, the letter count less what cancels at
the seam (``words.seam``), so both engines score each child before it is
built and build only the children that pass (partial expansion). Each
engine keeps a state's key beside its runs, in the heap entry or the
frame, so no key is computed twice.

Best-first goes further and builds a child only when the search
reaches its f (enhanced partial expansion, EPEA*). A node popped at f
pushes its children with f or less, and is pushed back once at the least
f of the rest, the overshoot of its scan; popped there, it pushes the
children at that f, and so on. So a node keeps at most one entry of its
own in the heap beside its children's, and the pops, parents and paths
are those of pushing every passing child at once (``best_first``).

At base 2 best-first also reads a bound that sees the order of the
letters: d_G of a state's image in a finite quotient G of F_3 that sends
every expansion to 1 (``Quotient``). It reads it only when a state
reaches the top of the heap and h is below both the letter count and
the diameter of G, and an entry it raises is pushed back at its new f
(lazy A*). Deepening keeps the relaxation alone, so in the dual
algorithm (``lengths.xlength``) best-first finds and proves the optimum
c, its path is re-multiplied, and deepening, which does not share the
bound, proves on its own that nothing shorter exists: its passes up to
c - 1 complete without a path.

The goal test is a lookup, not a move: a state is one move from the
identity exactly when it is the expansion of some move, and the move
set's goal table (``MoveSet.goals``) maps the runs of each expansion to
its generator. So neither engine ever builds the identity, and best-first
takes an incumbent as soon as it pushes an expansion. Node counts are
expanded states in both engines; best-first counts a node once, at its
first expansion.

The child scan. Both engines take a node's children from one lazy scan
(``_children``): the passing children, in move order, the letters first
and then each family, each scored only when the scan reaches it, and
the least f of the failing ones folded into a one-cell overshoot:
deepening's next pass bound, and the f at which best-first pushes a node
back. A consumer that stops early, as best-first does at a goal, scores
nothing past the child it stopped at.

Family scoring. Every index-j inverse has the same abelianisation, so
a node's children in one family share theirs, and at a fixed
abelianisation h does not decrease as the letter count grows from the l1
norm up (``make_heuristic``), where every child's letter count is. So
the children that pass the f test are those below one cutoff letter
count, and ``_family_children`` scores a family with one heuristic call
per distinct letter count up to the cutoff and none past it; the least
f of its failing children, for the overshoot, is h at the cutoff. One
call at the family's floor key (``Family.floor``) first leaves out a
family none of whose children can pass, when the floor's f is also no
lower than the overshoot so far: every child's f is at least the
floor's, so none of them could lower it. A child's letter count comes
from the runs where the move meets the state, and ``words.seam`` walks
only when two whole runs cancel. Only moves whose
tail cancels the state's first run have their counts adjusted, and the
least count is the least of theirs and the family's least letter count
plus the state's, so a family whose least child fails is decided without
listing its counts.

A move set depends on the parameters and the families below the index
cutoff alone, so each one, with its goal table and its families, is
listed once per process into one frozen ``MoveSet`` that every later
search with those families reads; at most ``_MOVE_SET_LIMIT`` are kept,
and a listing cut short by the deadline is not. So is the heuristic: its
value at a key depends on the parameters, the families and the key
alone, so every search with the same families reads one memo, which
holds at most ``_MEMO_LIMIT`` keys.
"""

from __future__ import annotations

import threading
import time
from array import array
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain
from operator import itemgetter

from .errors import BudgetExhausted
from .genset import (
    Gen,
    GenSetParams,
    check_family_size,
    enumerate_generators,
    expand_generator,
    longest_expansion,
    max_usable_index,
)
from .words import (
    LETTERS, Record, Run, ValueRecord, Word, _set, mul_runs, seam
)

_INF = float("inf")

Runs = tuple[Run, ...]  # a state: the reduced runs of a remainder


class SearchBudget(ValueRecord):
    """What a search may spend: ``max_nodes`` nodes (an int >= 1), a
    cost cap ``max_cost`` (None or an int >= 0) and ``max_millis``
    milliseconds (None or a finite number > 0). A field of another type
    raises TypeError, one out of range ValueError: a nan deadline would
    never be reached and a negative one would be spent at once."""

    __slots__ = ("max_nodes", "max_cost", "max_millis")

    def __init__(self, max_nodes: int = 1_000_000, max_cost: int | None = None,
                 max_millis: float | None = None):
        nodes, cost, millis = max_nodes, max_cost, max_millis
        if type(nodes) is bool or not isinstance(nodes, int):
            raise TypeError(f"max_nodes must be an int, got {nodes!r}")
        if nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {nodes}")
        if cost is not None:
            if type(cost) is bool or not isinstance(cost, int):
                raise TypeError(f"max_cost must be None or an int, got {cost!r}")
            if cost < 0:
                raise ValueError(f"max_cost must be >= 0, got {cost}")
        if millis is not None:
            if type(millis) is bool or not isinstance(millis, (int, float)):
                raise TypeError(f"max_millis must be None or a number, got {millis!r}")
            if not 0 < millis < _INF:  # nan fails too
                raise ValueError(
                    f"max_millis must be a finite number > 0, got {millis}"
                )
        _set(self, "max_nodes", nodes)
        _set(self, "max_cost", cost)
        _set(self, "max_millis", millis)

    def _fields(self) -> tuple:
        return self.max_nodes, self.max_cost, self.max_millis


class Move(ValueRecord):
    """A generator ``gen`` as a step of the search. ``runs`` (Runs), the
    inverse of its expansion, is applied to remainders; ``ab`` is its
    abelianisation, ``letters`` its letter count, ``tail`` its last run
    as a signed base (``_signed``), ``body`` the runs before that run, and
    ``base`` and ``exp`` that run's base and exponent. Two moves are equal
    when their generators and runs are, as ``of`` reads the other fields
    off the runs."""

    __slots__ = ("gen", "runs", "ab", "letters", "tail", "body", "base", "exp")

    def __init__(self, gen, runs, ab, letters, tail, body, base, exp):
        _set(self, "gen", gen)
        _set(self, "runs", runs)
        _set(self, "ab", ab)
        _set(self, "letters", letters)
        _set(self, "tail", tail)
        _set(self, "body", body)
        _set(self, "base", base)
        _set(self, "exp", exp)

    def _fields(self) -> tuple:
        return self.gen, self.runs

    @classmethod
    def of(cls, gen: Gen, expansion: Word) -> "Move":
        inverse = ~expansion
        runs, ab, letters = inverse.runs, inverse.abelianize(), inverse.s_length
        base, exp = runs[-1]
        return cls(gen, runs, ab, letters, _signed(base, exp), runs[:-1], base, exp)

    def apply(self, runs: Runs) -> Runs:
        """The reduced runs of this move times a state, ``runs`` (reduced,
        not the identity).

        Only the move's last run (base, exp) and the state's first
        (b0, e0) can meet, and each side is reduced on its own. If
        b0 != base, nothing reduces and the product is the two run
        sequences in turn. If b0 == base and s = exp + e0 != 0, the two
        runs become (base, s) and nothing more reduces: the run before it
        in ``body`` is not on ``base``, as the move is reduced, and
        neither is the one after it in ``runs[1:]``, as the state is.
        Only when s == 0 do the two runs cancel whole, and then the runs
        behind them meet in turn, which ``words.mul_runs`` walks.
        """
        b0, e0 = runs[0]
        if b0 != self.base:
            return self.runs + runs
        s = self.exp + e0
        if s:
            return self.body + ((b0, s),) + runs[1:]
        return mul_runs(self.runs, runs)


def _signed(base: str, exp: int) -> str:
    """A run's base, upper case when its exponent is negative. A move's
    tail cancels letters of a state's first run (base, exp) exactly when
    it equals ``_signed(base, -exp)``; with ``_signed(base, exp)`` the two
    runs merge and nothing cancels."""
    return base if exp > 0 else base.upper()


class Family(Record):
    """The index-j family as moves, with what bounds all their children.

    Every index-j expansion abelianizes to d_j (B, B+1, 0), d_j = B^(2j-1),
    whatever its conjugator, so every inverse has the one abelianisation
    ``ab``; their letter counts, ``letters`` in move order, lie in
    [``lo``, ``hi``]. ``tails`` maps each signed base (``_signed``) to
    the moves whose tail it is, as (position, size of the last run)
    pairs.
    """

    __slots__ = ("ab", "lo", "hi", "moves", "letters", "tails")

    def __init__(self, ab, lo, hi, moves, letters, tails):
        _set(self, "ab", ab)
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "moves", moves)
        _set(self, "letters", letters)
        _set(self, "tails", tails)

    @classmethod
    def of(cls, moves: tuple[Move, ...]) -> "Family":
        letters = tuple(move.letters for move in moves)
        tails: dict[str, list[tuple[int, int]]] = {}
        for i, move in enumerate(moves):
            tails.setdefault(move.tail, []).append((i, abs(move.exp)))
        return cls(
            moves[0].ab,
            min(letters),
            max(letters),
            moves,
            letters,
            {tail: tuple(ix) for tail, ix in tails.items()},
        )

    def floor(self, key: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
        """The floor key of the family's children of a state with ``key``:
        their common abelianisation, and a lower bound on their letter
        counts.

        A child is x r with |x| in [lo, hi], so it has at least
        ||x| - |r|| >= max(lo - |r|, |r| - hi) letters, and at least the
        l1 norm of its abelianisation, as each letter moves it by a unit
        vector. The floor is the largest of the three, so it is at least
        that l1 norm too.
        """
        na, nb, nc, slen = key
        da, db, dc = self.ab
        na, nb, nc = na + da, nb + db, nc + dc
        least = max(abs(na) + abs(nb) + abs(nc), self.lo - slen, slen - self.hi)
        return (na, nb, nc, least)


class MoveSet(ValueRecord):
    """The moves of a search: ``moves`` holds the letters, then each
    family in index order; ``families`` the indices of the indexed
    generators, ascending; ``goals`` maps an expansion's runs to its
    generator; ``groups`` holds the listed families, in the order of
    ``families``; ``base`` is the base of the parameters it was listed
    for. A ``Family`` compares by identity, so two move sets with indexed
    families are equal only when they hold the same listed ones."""

    __slots__ = ("moves", "families", "goals", "groups", "base")

    def __init__(self, moves, families, goals, groups, base):
        _set(self, "moves", moves)
        _set(self, "families", families)
        _set(self, "goals", goals)
        _set(self, "groups", groups)
        _set(self, "base", base)

    def _fields(self) -> tuple:
        return self.moves, self.families, self.goals, self.groups, self.base


# The images of a, b and c, as permutations i -> p[i], of the finite
# quotient that best-first uses at each base that has one (``quotient``).
# The base-2 one was picked among 24 random candidates, involutions for a
# and b, by the best-first nodes it saves on base-2 block words.
_QUOTIENT_IMAGES = {
    2: {"a": (6, 1, 2, 3, 4, 5, 0), "b": (5, 1, 2, 6, 4, 0, 3), "c": (0, 6, 5, 2, 1, 4, 3)},
}


class Quotient:
    """A homomorphism phi from F_3 onto a finite group G, with the word
    length d_G on G over the images of the letters and their inverses.

    If phi sends every expansion of the move set to 1, then d_G(phi(r))
    is a lower bound on the length of r over the move set: a
    factorization of r into n symbols maps to a product of its letters'
    images, the expansions dropping out, so it spells phi(r) with at most
    n images of letters. At base 2, phi(a) and phi(b) are involutions and
    an index-j expansion v b^(2^(2j-1)) v^-1 a^(2^(2j)) b^(2^(2j)) has
    even exponents on b and a for every j >= 1, so it maps to
    phi(v) phi(v)^-1 = 1 whatever v and ``jmin`` are. Its phi(c) has
    order 6, and the three images generate the symmetric group on 7
    points: 5,040 elements, diameter 10.

    G is held by element index, the identity 0: ``rows[base][k]`` maps
    each index g to that of phi(base)^k g, for k below the order of
    phi(base), and ``dist`` holds d_G at each index. It is a plain
    ``__slots__`` class, not a ``words.Record``: ``quotient`` builds one
    per base, and it is never compared, copied or pickled.
    """

    __slots__ = ("rows", "dist", "diameter")

    def __init__(self, rows: dict[str, tuple[array, ...]], dist: bytes):
        self.rows, self.dist, self.diameter = rows, dist, max(dist)

    def distance(self, runs: Runs) -> int:
        """d_G(phi(r)) for the reduced runs of r: one row lookup per run,
        from the last run to the first."""
        g = 0
        rows = self.rows
        for base, exp in reversed(runs):
            powers = rows[base]
            g = powers[exp % len(powers)][g]
        return self.dist[g]


@lru_cache(maxsize=None)
def quotient(base: int) -> Quotient | None:
    """The quotient that best-first uses at ``base``, or None if it has
    none. Built on first use by one breadth-first search over G from the
    identity, which numbers the elements and gives d_G and the left
    multiplication by each letter's image; a row for phi(x)^k is k of
    them in turn."""
    images = _QUOTIENT_IMAGES.get(base)
    if images is None:
        return None
    steps = {}  # each letter's image and its inverse -> left multiplication
    for image in images.values():
        inverse = tuple(sorted(range(len(image)), key=image.__getitem__))
        for s in (image, inverse):
            steps.setdefault(s, array("H"))
    elements = [tuple(range(len(image)))]
    index = {elements[0]: 0}
    dist = bytearray(1)
    for i, g in enumerate(elements):  # the list grows as it is read
        after_g = itemgetter(*g)
        for s, row in steps.items():
            x = after_g(s)  # s g, acting as g first, then s
            j = index.get(x)
            if j is None:
                j = index[x] = len(elements)
                elements.append(x)
                dist.append(dist[i] + 1)
            row.append(j)
    one = array("H", range(len(elements)))
    rows = {}
    for letter, image in images.items():
        step, powers = steps[image], [one]
        while (power := array("H", map(step.__getitem__, powers[-1]))) != one:
            powers.append(power)
        rows[letter] = tuple(powers)
    return Quotient(rows, bytes(dist))


class Outcome(ValueRecord):
    """What a search engine found: ``cost`` is the optimal cost, None when
    not proven optimal; ``path`` the factorization, with cost None the
    best found so far; ``lower_bound`` is proven even when no
    factorization was found."""

    __slots__ = ("cost", "path", "nodes", "lower_bound")

    def __init__(self, cost, path, nodes, lower_bound):
        _set(self, "cost", cost)
        _set(self, "path", path)
        _set(self, "nodes", nodes)
        _set(self, "lower_bound", lower_bound)

    def _fields(self) -> tuple:
        return self.cost, self.path, self.nodes, self.lower_bound


_LETTER_MOVES = tuple(Move.of(letter, letter.word()) for letter in LETTERS)
# what ``_children`` reads of each letter move, flat, keyed by the signed
# base that cancels the state's first run, which is one of the letters'
# tails: the move and its key step, the letter count falling by one for
# the letter whose tail it is and rising by one for the others
_LETTER_STEPS = {
    anti: tuple(
        (move, *move.ab, -1 if move.tail == anti else 1) for move in _LETTER_MOVES
    )
    for anti in (move.tail for move in _LETTER_MOVES)
}


# Move sets listed, at most ``_MOVE_SET_LIMIT``; the oldest goes first.
_move_sets: dict[tuple[GenSetParams, tuple[int, ...]], MoveSet] = {}
_move_sets_lock = threading.Lock()
_MOVE_SET_LIMIT = 16


def build_moves(
    u: Word,
    upper_bound: int,
    params: GenSetParams,
    budget: SearchBudget,
    t0: float | None = None,
) -> MoveSet:
    """Letters plus every indexed generator below the sound cutoff.

    Raises BudgetExhausted, before listing anything, if some index family
    below the cutoff has more generators than the node budget (its size
    is known in closed form, ``family_size``), so paper-scale bases fail
    at once. A move set depends on (params, families) alone, so it is
    listed once per process and every later call with the same families
    returns that one frozen value, which no caller mutates. Its goal
    table maps the runs of each expansion to its generator; distinct
    generators have distinct expansions (``family_size``), so no entry is
    lost. While listing, the call checks before each generator whether
    ``budget.max_millis`` has passed since ``t0`` (by default, this
    call's start) and raises BudgetExhausted once it has. Nothing is kept
    then, so a later call, with or without a deadline, lists the move set
    again.
    """
    cutoff = max_usable_index(u, upper_bound, params)
    families = () if cutoff is None else tuple(range(params.jmin, cutoff + 1))
    for j in families:
        check_family_size(params, j, budget.max_nodes)
    key = (params, families)
    moves = _move_sets.get(key)
    if moves is not None:
        return moves
    deadline = _deadline(budget, time.perf_counter() if t0 is None else t0)
    goals = {letter.word().runs: letter for letter in LETTERS}
    groups = []
    for j in families:
        family = []
        for gen in enumerate_generators(params, j):
            if deadline is not None and time.perf_counter() > deadline:
                raise BudgetExhausted(f"index-{j} family not listed before the deadline")
            expansion = expand_generator(gen, params)
            goals[expansion.runs] = gen
            family.append(Move.of(gen, expansion))
        groups.append(Family.of(tuple(family)))
    moves = chain(_LETTER_MOVES, *(fam.moves for fam in groups))
    moves = MoveSet(tuple(moves), families, goals, tuple(groups), params.base)
    with _move_sets_lock:
        _move_sets[key] = moves
        while len(_move_sets) > _MOVE_SET_LIMIT:
            del _move_sets[next(iter(_move_sets))]
    return moves


def state_key(r: Word) -> tuple[int, int, int, int]:
    """The heuristic's argument for remainder r: (*ab(r), |r|)."""
    return (*r.abelianize(), r.s_length)


@lru_cache(maxsize=16)
def make_heuristic(params: GenSetParams, families: tuple[int, ...]):
    """Admissible lower bound on the word length of a remainder over the
    letters and the indexed ``families`` (ascending): the exact abelian
    relaxation, found in O(log |r|) steps. It is a function of the
    remainder's ``state_key`` (ab(r), |r|) alone, which it takes as its
    one argument. It needs only closed-form family data, so it never
    lists a family.

    Sharing. One heuristic is built per process for each
    ``(params, families)``, and its values are kept in one memo that every
    search with those families reads. This is sound because a value
    depends only on the base, d_jmin, d_J and E below and on the key, all
    fixed by the arguments of this call and of the lookup, and never on
    the search, the target or an earlier lookup: a shared memo returns
    what a fresh one would, so no bracket, witness, node count or report
    depends on which searches ran before. The memo holds at most
    ``_MEMO_LIMIT`` keys, evicting the least recently used.

    Soundness. Let B be the base, g = (B, B+1, 0), and let the families
    be the indices j in [jmin, J]. Whatever its conjugator, an index-j
    generator abelianizes to d_j g with d_j = B^(2j-1). Take a
    factorization of r, with ab(r) = (na, nb, nc), into n symbols, M of
    them indexed. Their images add up to t g with M d_jmin <= t <= M d_J,
    and the n - M letters are unit vectors, so

        n - M >= |nc| + R(t),   R(t) = |na - B t| + |nb - (B+1) t|.

    The n - M letters and M expansions of at most
    E = 2 B^J + B^(2J-1) + 2 B^(2J) letters (``longest_expansion``, which
    grows with j) spell r, so also n >= |r| - M (E - 1). Hence n >= H(M),
    where

        H(M) = max(M + |nc| + min of R over [M d_jmin, M d_J], |r| - M (E - 1)).

    R(t) = B |na/B - t| + (B+1) |nb/(B+1) - t| is convex and smallest at
    nb/(B+1), the point of larger weight, so over an interval it is
    smallest at the clamp of nb/(B+1) into it. The first term of H is R
    minimized over the slice at M of the convex cone
    {(M, t) : M d_jmin <= t <= M d_J}, hence convex in M; the second term
    is linear, so H is convex, and h(r) = ceil(min of H(M) over integers
    M >= 0) is found by a binary search for the first M with
    H(M+1) >= H(M). As H(0) = |r| and H(M) >= M, that M lies in [0, |r|],
    and h >= 1 on every key but the identity's, which both engines use.
    With one family t = M d_jmin is forced, and the bound is the integer
    relaxation itself. Without indexed moves only the letters remain and
    h is the letter count, which is exact.

    Monotone in the letter count. At a fixed abelianisation, h does not
    decrease as |r| grows, on keys whose |r| is at least the l1 norm
    |na| + |nb| + |nc|, as every real remainder's is. Each H(M) is
    nondecreasing in |r|, and so is their minimum over all M >= 0; on such
    keys H(0) = |r| while H(M) >= M > |r| for M > |r|, so the search over
    [0, |r|] finds that minimum. Off them it need not: the search range
    shrinks with |r|. ``Family.floor`` keys and every child's key stay on
    them, which is what the engines' family scoring
    (``_family_children``) relies on.

    Dominance. h is at least the earlier heuristic, the larger of the
    best certificate pool bound and the counting bound
    min over m >= 0 of max(m (T+1) - theta(r), |r| - m (E-1), m), with
    T = theta_value(jmin) and theta = na + nb; so it prunes at least as
    much:
      * R(t) >= (B t - na) + ((B+1) t - nb) = (2B+1) t - theta, and
        t >= M d_jmin with (2B+1) d_jmin = T, give
        M + R >= M (T+1) - theta: H(M) is at least the counting term at
        m = M;
      * every pool row psi (a negated LOWER certificate) has psi(g) <= 0
        and coefficients of size at most cap, so for t >= 0
        psi(ab) = psi(ab - t g) + t psi(g) <= cap (|nc| + R(t)), and the
        row's bound ceil(psi(ab) / cap) is at most h.
    """
    if not families:
        return lambda key: key[3]
    base = params.base
    w = base + 1  # H is computed scaled by w, in integers
    d_lo = params.inner_exp(families[0])
    d_hi = params.inner_exp(families[-1])
    grow = longest_expansion(params, families[-1]) - 1

    def relaxation(key: tuple[int, int, int, int]) -> int:
        na, nb, nc, slen = key
        fixed = w * abs(nc)
        balanced = abs(w * na - base * nb)  # w R(nb / w)

        def scaled_h(m: int) -> int:  # w H(m)
            lo, hi = m * d_lo, m * d_hi
            if nb < w * lo:
                rest = w * (abs(na - base * lo) + w * lo - nb)
            elif nb > w * hi:
                rest = w * (abs(na - base * hi) + nb - w * hi)
            else:
                rest = balanced
            return max(w * m + fixed + rest, w * (slen - m * grow))

        lo, hi = 0, slen
        while lo < hi:
            mid = (lo + hi) // 2
            if scaled_h(mid + 1) >= scaled_h(mid):
                hi = mid
            else:
                lo = mid + 1
        return -(-scaled_h(lo) // w)

    # a cache hit, the common case, runs no Python frame
    return lru_cache(maxsize=_MEMO_LIMIT)(relaxation)


# Keys one memo may hold; past it the least recently used key goes. An
# entry costs at most about 375 bytes (CPython 3.11, 64-bit) while the
# key's four integers and the value are all below 2^30 in size, so a full
# memo takes about 12 MB, and the 16 that ``make_heuristic`` keeps at most
# 200 MB. The largest memo one search is known to need holds 1,989 keys
# (best-first on a^16 b^16 at base 2, 5,546 nodes).
_MEMO_LIMIT = 1 << 15


def _deadline(budget: SearchBudget, t0: float) -> float | None:
    if budget.max_millis is None:
        return None
    return t0 + budget.max_millis / 1000.0


def _family_children(
    fam: Family,
    h,
    key: tuple[int, int, int, int],
    runs: tuple,
    anti: str,
    ncost: int,
    limit: float,
    overshoot: float,
):
    """Score one family's children of a state with ``key`` and ``runs``.
    The children cost ``ncost``, and one passes when f = ncost + h is at
    most ``limit``; ``anti`` is the signed base of a tail that cancels
    the state's first run (``_signed``).

    Returns ``(passing, over)``: the passing children as (h, move, key)
    in move order, an iterable that a consumer may stop early, and the
    least f of the failing ones, or infinity if none fails. A family
    whose floor fails and is no lower than ``overshoot`` is left out
    whole, with no child scored and ``over`` infinity, as every child's f
    is at least the floor's.

    One cutoff decides every child. The children share the floor key's
    abelianisation, and each one's letter count is at least the floor's,
    which is at least that abelianisation's l1 norm (``Family.floor``).
    From there h does not decrease as the letter count grows
    (``make_heuristic``), so the children that pass are exactly those
    with fewer letters than the least letter count at which a child
    fails, the cutoff. Reading h at the children's distinct letter counts
    in ascending order, up to the first that fails, finds it; when the
    least already fails, that one call decides the family, and no other
    count is listed.

    The overshoot needs one value. By the same monotonicity, f over the
    failing children is smallest at the least letter count among them,
    the cutoff, and h was read there.

    Letter counts. A child x r has |x| + |r| letters less what cancels
    where the last run of x meets the first of r, and nothing does
    unless x's tail is ``anti``: the same base, the opposite sign. Then
    runs of different sizes cancel the shorter into the longer, twice
    its size in letters, and only runs of one size cancel whole and let
    the walk go on (``words.seam``). So only the moves with tail
    ``anti`` need their counts adjusted, and the least count is the least
    of theirs and ``lo`` + |r|: every other move has at least ``lo``
    letters and keeps its count, and a move with ``lo`` letters and tail
    ``anti`` has a count of at most ``lo`` + |r| among theirs.
    """
    floor = fam.floor(key)
    f = ncost + h(floor)
    if f > limit and f >= overshoot:
        return (), _INF
    ab, slen = floor[:3], key[3]
    head = abs(runs[0][1])  # the size of the state's first run
    letters = fam.letters
    least = fam.lo + slen
    cut = []  # (position, letter count) of each child with letters cancelled
    for i, size in fam.tails.get(anti, ()):
        if size != head:
            n = letters[i] + slen - 2 * min(size, head)
        else:
            n = letters[i] + slen - seam(fam.moves[i].runs, runs)[2]
        cut.append((i, n))
        if n < least:
            least = n
    value = h(ab + (least,))
    if ncost + value > limit:  # no child passes
        return (), ncost + value
    counts = [n + slen for n in letters]
    for i, n in cut:
        counts[i] = n
    hs = {least: value}  # h at each letter count that passes
    children = zip(fam.moves, counts)
    for level in sorted(set(counts))[1:]:
        value = h(ab + (level,))
        if ncost + value > limit:  # the cutoff
            passing = [(hs[n], move, ab + (n,)) for move, n in children if n < level]
            return passing, ncost + value
        hs[level] = value
    return ((hs[n], move, ab + (n,)) for move, n in children), _INF


def _children(groups, h, key, runs, ncost, limit, over):
    """The scan of a state with ``key`` and ``runs`` that both engines
    consume: it yields the children that cost ``ncost`` and pass,
    f <= ``limit``, as (h, move, key) in move order, the letters first
    and then each family of ``groups`` (``_family_children``).

    A child is scored only when the scan reaches it: a letter one at a
    time, a family whole. So a consumer that stops after a child scores
    nothing past it. The least f of the failing children is folded into
    the one-cell list ``over``, whose value is also each family's
    overshoot: a family whose floor fails and is no lower than
    ``over[0]`` is left out. Deepening passes one cell per pass, and
    best-first one per search, reset before each scan.

    A letter child has one letter more than its parent, or one less when
    the letter cancels the parent's first run; ``anti`` is
    ``_signed(base, -exp)`` of that first run, written out, and it picks
    the letters' key steps from one table (``_LETTER_STEPS``).
    """
    na, nb, nc, slen = key
    base, exp = runs[0]
    anti = base if exp < 0 else base.upper()
    for move, dna, dnb, dnc, dlen in _LETTER_STEPS[anti]:
        nkey = (na + dna, nb + dnb, nc + dnc, slen + dlen)
        value = h(nkey)
        f = ncost + value
        if f <= limit:
            yield value, move, nkey
        elif f < over[0]:
            over[0] = f
    for fam in groups:
        passing, f = _family_children(fam, h, key, runs, anti, ncost, limit, over[0])
        if f < over[0]:
            over[0] = f
        yield from passing


def best_first(
    u: Word,
    moves: MoveSet,
    cap: int,
    h,
    budget: SearchBudget,
    t0: float,
) -> Outcome:
    """Optimal factorization cost within ``cap``, or a proven lower bound.
    ``u`` is not the identity: ``xlength`` answers the identity with the
    bracket [0, 0] before it searches.

    Every heap entry is (f, letters, number, runs, cost, key, done): a
    state's runs and key ride with it. One dict, ``best``, keyed by runs,
    holds for each state pushed its least cost g so far, its parent and
    the generator between them, as (g, parent, generator); the root's
    parent is None. An entry popped at a cost above ``best``'s is stale
    and skipped.

    Enhanced partial expansion (EPEA*, Felner et al. 2012). A state's own
    entry has ``number`` and ``done`` 0. Popped at f, the state is
    expanded: it takes the node count as its ``number`` and builds
    (``Move.apply``) and pushes its children with f or less, each unless
    ``best`` holds it at no greater cost. The node is then pushed back
    once, as (f', 0, number, runs, cost, key, f), at f' the least f of
    the children left, the overshoot of its scan (``_children``), unless
    f' is above the limit, min(cap, incumbent - 1). Popped there, it
    scans again, pushes the children with f in (done, f'] and is pushed
    back at the next overshoot. So one node builds no child twice, and
    builds a child only when the search reaches its f. The node count
    and ``max_nodes`` count first expansions, and only they pass the
    quotient gate below; the deadline is read before every scan.

    The quotient bound, read lazily. At base 2 (``quotient``) a state's
    own entry, with runs r, key and cost g, has h = f - g. If
    h < min(|r|, diam G), d = d_G(phi(r)) is read, and if g + d > f the
    entry is pushed back at f' = g + d, or dropped when f' > cap, and not
    expanded (lazy A*: the costly heuristic is read only when a state
    reaches the top). The gate loses nothing: h <= |r| always
    (H(0) = |r|, ``make_heuristic``), h = |r| makes h the length itself,
    as the letters spell r, and d_G <= diam G, so d exceeds h only inside
    the gate. d is admissible, as phi sends every expansion to 1, and
    consistent, as a move changes phi(r) by one letter's image or not at
    all. So the search is the one that scores every child by
    h' = max(h, d) when it pushes it (the eager scan), each state's entry
    keyed below or at its eager f.

    Each child is scored before it is built: its key is the parent's
    abelianisation plus the move's, and the two letter counts less the
    letters cancelled at the seam, so f = cost + h(key) needs no product.
    The children come from the scan both engines share (``_children``),
    whose limit is the popped entry's f, never above the search's limit:
    a letter is scored when the scan reaches it, and a family's children
    together (``_family_children``): they pass exactly below one cutoff
    letter count, so h is read once for each distinct letter count up to
    it, and a family whose floor fails, and is no lower than the
    overshoot so far, is left out after one call.

    The expansions are those of the eager scan, which pushed every child
    that passed when its parent was expanded. A pushed-back entry stands
    for the children its node has left: its f is at most theirs, and its
    letters, 0, sort it before every state's entry at that f, as only the
    identity, which is never pushed, has no letters. So a state's entry
    reaches the top only when every child left has a greater f, and it
    is then also the least of the eager heap, which holds the same
    states' entries and those children; a lifted entry is pushed back at
    its f', and the gate lets it through when it is popped there.
    Pushed-back entries at one f come back in ``number`` order, the order
    of first expansions, and each pushes its children at that f in move
    order, as the eager scan pushed them: a state reached twice at one
    cost keeps the parent the eager scan gave it, and the later push is
    dropped, as its eager push was. A child whose f the limit has fallen
    below before its node came back, or an entry lifted to or above the
    incumbent, lay in the eager heap at f >= incumbent, where the search
    ends; one lifted above the cap was never pushed. So the states
    expanded, their order and parents, the incumbent, the node count,
    cost and path are those of the eager scan. Entries go stale as their
    eager entries did: no target tried over this package's move sets
    reaches a state more cheaply after pushing it, but a move set with a
    shortcut does (``tests/test_search.py``,
    ``test_lifted_entry_goes_stale``).

    Goal test. The root is looked up in the goal table before the loop,
    and a child when it is pushed with h = 1; as h is admissible, a child
    with h > 1 is more than one move from the identity, so it is no
    expansion. A hit on a state X pushed at cost g is a factorization
    with g + 1 symbols: the path to X, then the generator the table
    names. X passed f <= limit with h(X) = 1 (h >= 1 off the identity,
    and h <= 1 one move from it), so g + 1 is below the incumbent and
    replaces it, and the limit drops to g. Every other child of X's
    parent then has f > g: f >= g + 1 off the identity, and the identity
    is a child only of an expansion, which set an incumbent of at most g
    when it was pushed. So the scan stops, the node is not pushed back,
    and a node whose children cost g is not scanned at all once
    limit <= g.

    Optimality, and the lower end at the budget. Take a factorization of
    c* <= cap symbols, with states s_0 = u, ..., s_c* = 1, while the
    incumbent stays above c* or unset. Every limit is then at least c*,
    and s_i, at its least cost i, has f <= f' <= c*. Some entry in the
    heap has f <= c*. Take the last s_i pushed at cost i (s_0 is the
    root); i < c* - 1, as pushing the expansion s_(c*-1) sets an
    incumbent of at most c*. Its entry at its least cost is never stale.
    If it has not been expanded, it is in the heap, lifted at most to
    f' <= c*. If it has, no scan of it has reached s_(i+1), or that
    child would have been pushed at cost i + 1 or found there already,
    and no scan of it stopped at a goal, which would have set an
    incumbent of i + 2 <= c*; so its pushed-back entry is in the heap at
    f at most s_(i+1)'s. Hence the search neither runs dry nor returns at
    f >= incumbent while such a factorization is left, and as it pushes
    each state at most once per cost below the cap, and a node back at a
    higher f each time, it ends with an incumbent of at most c*. When
    the budget runs out instead, the entry just popped was the least in
    the heap, so every factorization not yet found has at least its f
    symbols: f is a proven lower end, below the incumbent and at most
    ``cap``, as nothing above the cap is pushed.

    The heap never runs dry with an incumbent. One is set before the
    loop when the root is an expansion, and the root's entry then has
    f = h(u) = 1 = incumbent (h >= 1 off the identity, h <= 1 one move
    from it); later ones are set as an expansion is pushed, at
    f = ncost + 1 = incumbent. Entries leave the heap only by the pop at
    the top of the loop, and the incumbent only falls, so that entry
    stays until it is popped at f >= incumbent, and the test there
    returns. So the loop runs out only without an incumbent.

    The incumbent is a real path with exactly that many symbols. It is
    recorded as (X, generator), X the runs of a state, with incumbent =
    g(X) + 1, and g(X) drops only with a push of X at h(X) = 1, which
    looks X up again and lowers the incumbent with it. Runs are reduced,
    so equal runs are one state, and a key by runs names the state a
    Word key named. Parent links point to states of smaller g, so
    ``_rebuild`` walks from X back to the runs of u in at most g(X)
    steps: a real factorization of at most incumbent symbols. A proven
    incumbent is optimal, so the walk has exactly g(X) steps. When the
    budget runs out, the walk is returned unproven and its own length is
    used. ``xlength`` re-multiplies every path and raises on a mismatch.
    """
    root = state_key(u)
    start_h = h(root)
    if start_h > cap:
        return Outcome(None, None, 0, start_h)
    deadline = _deadline(budget, t0)
    goals, groups = moves.goals, moves.groups
    start = u.runs
    best: dict[Runs, tuple[int, Runs | None, Gen | None]] = {start: (0, None, None)}
    unseen = (_INF,)  # what ``best`` holds for a state never pushed
    heap: list[tuple] = [(start_h, root[3], 0, start, 0, root, 0)]
    incumbent: int | None = None
    last: tuple[Runs, Gen] | None = None  # the incumbent's expansion state
    gen = goals.get(start)
    if gen is not None:
        incumbent, last = 1, (start, gen)
    nodes = 0
    over = [_INF]  # the least f of the children a scan leaves unpushed
    quot = quotient(moves.base)
    reach = quot.diameter if quot else 0  # d_G is at most this
    while heap:
        f, letters, number, runs, cost, key, done = heappop(heap)
        if incumbent is not None and f >= incumbent:
            return Outcome(incumbent, _rebuild(best, start, last), nodes, incumbent)
        if cost > best[runs][0]:
            continue  # stale entry
        if not number:  # the state's own entry: its first expansion
            if (h_now := f - cost) < reach and h_now < letters:
                lifted = cost + quot.distance(runs)
                if lifted > f:
                    if lifted <= cap:
                        heappush(heap, (lifted, letters, 0, runs, cost, key, 0))
                    continue
            nodes += 1
            if nodes > budget.max_nodes:
                break
            number = nodes
        ncost = cost + 1
        limit = cap if incumbent is None else min(cap, incumbent - 1)
        if limit <= ncost:
            continue  # every child has f >= ncost + 1
        if deadline is not None and time.perf_counter() > deadline:
            break
        over[0] = _INF
        for value, move, nkey in _children(groups, h, key, runs, ncost, f, over):
            if ncost + value <= done:
                continue  # pushed by an earlier scan of this node
            nxt = move.apply(runs)
            if ncost < best.get(nxt, unseen)[0]:
                best[nxt] = (ncost, runs, move.gen)
                heappush(heap, (ncost + value, nkey[3], 0, nxt, ncost, nkey, 0))
                if value == 1 and (gen := goals.get(nxt)) is not None:
                    incumbent, last = ncost + 1, (nxt, gen)
                    break  # the limit is now ncost
        else:
            if over[0] <= limit:
                heappush(heap, (over[0], 0, number, runs, cost, key, f))
    else:
        # Whole graph below the cap explored without reaching the target.
        return Outcome(None, None, nodes, cap + 1)
    # The budget ran out. An incumbent is still a valid witness, just not
    # proven optimal, and no path is shorter than the f just popped.
    partial = _rebuild(best, start, last) if incumbent is not None else None
    return Outcome(None, partial, nodes, f)


def _rebuild(parents: dict, start: Runs, last: tuple[Runs, Gen]) -> list[Gen]:
    """The path from ``start`` to ``last``'s state, then ``last``'s
    generator; ``parents`` maps each state but ``start`` to an entry
    whose last two fields are its parent and the generator between them
    (best-first's ``best`` holds its cost before them)."""
    state, gen = last
    path = [gen]
    while state != start:
        state, gen = parents[state][-2:]
        path.append(gen)
    path.reverse()
    return path


def deepening(
    u: Word,
    moves: MoveSet,
    cap: int,
    h,
    budget: SearchBudget,
    t0: float,
) -> Outcome:
    """Iterative deepening on cost plus heuristic; the bound advances by
    the exact minimal overshoot, so the first factorization found is
    optimal for an admissible heuristic. ``u`` is not the identity:
    ``xlength`` answers the identity with the bracket [0, 0] before it
    searches.

    A pass visits the cycle-free paths from u whose states all have
    f <= bound. Each child is scored from its parent's key before it is
    built, as in ``best_first``; a child with f > bound enters the
    overshoot and is skipped unbuilt, and only a child that passes is
    built, as runs (``Move.apply``), and checked against the path,
    a set of runs. A frame holds its state's runs and the rest of its
    child scan (``_children``), which carries the children's keys. Nodes,
    the unit of ``max_nodes``, are the states visited, each checked
    against the deadline. A visited
    state is looked up in the goal table first, and a hit ends the
    search: the path so far and the generator the table names. The walk
    keeps its own stack of frames instead of recursing, so a path may be
    longer than Python's recursion limit.

    The first factorization found is optimal. The visited state has
    f = cost + h <= bound and h >= 1, so the factorization has
    cost + 1 <= bound symbols, while bound is a proven lower end (below);
    so it has exactly bound symbols. The identity is a child only of an
    expansion, whose lookup hits first, so it is never visited.

    The pass bound is a proven lower end, also when the budget runs out
    mid-pass. In the first pass it is h(u). After a completed pass with
    bound b, take any factorization; dropping its cycles gives a
    cycle-free path of some cost c no larger, with states s_0 = u, ...,
    s_c = 1. Some s_i with i < c has f > b, or the pass would have
    reached s_(c-1) and found it. The first such s_i is a child of a
    visited state, so the minimal overshoot, the new bound, is at most
    its f; and f(s_i) <= c, as h is admissible. So c >= bound. The scan
    scores a child before the path check, which reads only the children
    that pass: a child that fails the bound enters the overshoot whether
    or not it is on the current path, and a passing child on the path is
    skipped. The extra candidates are each above b, so the bound still
    grows and stays at most c.

    The same argument shows that a completed pass ends with a finite
    overshoot: u has a factorization, its letters, so such an s_i exists
    (i >= 1, as f(u) = h(u) <= b) and enters it. So the next bound is an
    integer, and the search ends only at a goal, at the budget, or once
    the bound passes ``cap``.

    The scan. A node's children come from the scan both engines share
    (``_children``, with the bound as limit and one overshoot cell per
    pass), which the walk resumes after each child's subtree. The letters
    are scored one at a time as the scan reaches them, and a family is
    scored whole when the scan reaches it, after the subtrees of the
    moves before it (``_family_children``); its passing children are
    then tried in move order. Its failing children enter the overshoot
    through one value, the least f among them, which is all a minimum
    needs. A family whose floor fails the bound and is no lower than the
    overshoot so far is left out unscored: each child's f is at least
    the floor's, so it fails the bound and, as the overshoot only falls
    during a pass, could not lower it. So the visits, the overshoot and
    every pass bound are those of a full scan, and with them the node
    count and the path.
    """
    deadline = _deadline(budget, t0)
    goals, groups = moves.goals, moves.groups
    nodes = 0
    root_key = state_key(u)
    bound = h(root_key)
    while bound <= cap:
        over = [_INF]  # the least f above the bound seen in this pass
        path: list[Gen] = []  # the moves from u to the last state reached
        on_path = {u.runs}
        # one frame per state on the path: its runs and the rest of its
        # child scan
        frames = []
        runs, key = u.runs, root_key  # the state to visit next
        while runs is not None:
            nodes += 1
            if nodes > budget.max_nodes or (
                deadline is not None and time.perf_counter() > deadline
            ):
                return Outcome(None, None, nodes, bound)
            gen = goals.get(runs)
            if gen is not None:
                path.append(gen)
                return Outcome(len(path), path, nodes, len(path))
            ncost = len(frames) + 1
            frames.append((runs, _children(groups, h, key, runs, ncost, bound, over)))
            runs = None
            while runs is None and frames:
                parent, children = frames[-1]
                for _, move, nkey in children:
                    nxt = move.apply(parent)
                    if nxt not in on_path:
                        on_path.add(nxt)
                        path.append(move.gen)
                        runs, key = nxt, nkey
                        break
                else:  # every child tried: back up one step
                    frames.pop()
                    on_path.discard(parent)
                    del path[-1:]  # the move into parent; the root has none
        bound = int(over[0])
    return Outcome(None, None, nodes, bound)

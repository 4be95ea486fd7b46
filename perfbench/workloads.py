"""The four workloads: seeded corpora, the timed library calls, and the
benchmark's own checks of every answer.

Each workload turns a ``random.Random`` into a list of items during set-up.
``run`` is the only part that is timed; it returns an ``Answer`` that
``check`` then verifies with arithmetic done here, not by trusting the
result. ``lib`` is the namespace of freshly imported library modules built
by ``run.load_library``; every library call goes through a module
attribute so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Item:
    kind: str
    word: object = None  # target Word, when the item asks for one length
    bracket: tuple[int, int] = (0, 0)  # library bracket before any search
    known_upper: int | None = None  # symbol count of a witness built here
    spec: dict = field(default_factory=dict)  # per-kind parameters

    @property
    def gap(self) -> int:
        return self.bracket[1] - self.bracket[0]


@dataclass
class Answer:
    brackets: list[tuple[int, int]]  # (lower, upper) of every length verdict
    signature: tuple  # repeatable part of the output, compared across passes
    payload: object = None  # what check() needs beyond the above


# --- shared helpers -------------------------------------------------------------


def random_letter_sequence(lib, rng, n: int) -> list:
    """n letters, no letter next to its inverse."""
    letters = []
    while len(letters) < n:
        letter = rng.choice(lib.words.LETTERS)
        if not letters or letter != lib.words.Letter(letters[-1].base, -letters[-1].sign):
            letters.append(letter)
    return letters


def random_letters(lib, rng, n: int):
    """A reduced word of exactly n letters."""
    letters = random_letter_sequence(lib, rng, n)
    return lib.words.Word.from_runs((l.base, l.sign) for l in letters)


def bracket_of(lib, u, params) -> tuple[int, int]:
    result = lib.lengths.xlength(u, params, mode="bracket")
    return result.lower, result.upper


def certificate_bound(cert, u, base: int) -> int:
    """Lower bound of a certificate, evaluated here from its definition."""
    if cert is None:
        return 0
    ca, cb, cc = cert.coeffs
    slope = ca * base + cb * (base + 1)
    lower_dir = cert.direction.value == "lower"
    if (slope < 0) if lower_dir else (slope > 0):
        raise AssertionError(f"certificate {cert.coeffs} is not capped")
    na, nb, nc = u.abelianize()
    value = ca * na + cb * nb + cc * nc
    if lower_dir:
        value = -value
    cap = max(abs(ca), abs(cb), abs(cc))
    return -(-value // cap) if value > 0 else 0


def check_length(lib, params, u, r, bracket, known_upper=None) -> list[str]:
    """Checks shared by every length verdict."""
    errors = []
    if r.lower > r.upper or r.exact != (r.lower == r.upper):
        errors.append(f"inconsistent bracket [{r.lower}, {r.upper}]")
    if r.witness is None:
        return errors + ["no witness"]
    product, count = lib.lengths.verify_factorization(r.witness, params)
    if product != u:
        errors.append("witness does not multiply back to the target")
    if count != r.upper:
        errors.append(f"witness has {count} symbols, upper is {r.upper}")
    if certificate_bound(r.certificate, u, params.base) > r.lower:
        errors.append("lower end below the certificate bound")
    if not bracket[0] <= r.lower <= r.upper <= bracket[1]:
        errors.append(f"[{r.lower}, {r.upper}] outside pre-search {bracket}")
    if known_upper is not None and r.lower > known_upper:
        errors.append(f"lower {r.lower} above a known witness of {known_upper}")
    return errors


def length_signature(r) -> tuple:
    witness = tuple(r.witness.symbol_strings()) if r.witness else None
    return (r.lower, r.upper, r.method, r.nodes_expanded, witness)


# --- letters_b2 -------------------------------------------------------------------


class LettersB2:
    """Random reduced letter words at base 2 on the threshold where the
    index-1 generators become usable: a+b count plus length equal to 11.

    Below the threshold the move set is the six letters and the heuristic
    is the letter count; further above it single targets take seconds and
    one of them can dominate a run. Search time grows with the word length
    and with the width of the bracket before search, so each period holds
    one word of every length for a narrow (at most 3) and a wide bracket.
    The same number of words of each length is bracketed for every seed,
    so set-up does the same work; the corpus size then depends on the seed.
    """

    name = "letters_b2"
    draws = 200  # words bracketed per length
    trace_items = 60
    lengths = (6, 7, 8)
    narrow = 3
    strata = tuple(itertools.product(lengths, (True, False)))  # (length, narrow)
    period = len(strata)
    threshold = 11

    def params(self, lib):
        return lib.genset.GenSetParams(base=2, jmin=1, jmax_cap=None)

    def make(self, lib, rng):
        params = self.params(lib)
        drawn = {stratum: [] for stratum in self.strata}
        for n in self.lengths:
            for _ in range(self.draws):
                item = self._draw(lib, params, rng, n)
                if item is not None:
                    drawn[(n, item.gap <= self.narrow)].append(item)
        return [item for group in zip(*drawn.values()) for item in group]

    def _draw(self, lib, params, rng, n):
        """A word of n letters on the threshold, or None if its bracket
        collapses or its index-1 generators are not usable."""
        while True:
            letters = random_letter_sequence(lib, rng, n)
            if sum(l.sign for l in letters if l.base != "c") + n == self.threshold:
                break
        u = lib.words.Word.from_runs((l.base, l.sign) for l in letters)
        bracket = bracket_of(lib, u, params)
        if bracket[0] == bracket[1]:
            return None  # collapsed: no search
        if lib.genset.max_usable_index(u, bracket[1], params) is None:
            return None
        return Item("letters", u, bracket, known_upper=n)

    def run(self, lib, item):
        params = self.params(lib)
        budget = lib.lengths.SearchBudget(
            max_nodes=1_000_000, max_cost=None, max_millis=None
        )
        r = lib.lengths.xlength(
            item.word, params, budget=budget, mode="exact", algorithm="dual"
        )
        return Answer([(r.lower, r.upper)], length_signature(r), r)

    def check(self, lib, item, answer):
        r = answer.payload
        errors = check_length(lib, self.params(lib), item.word, r, item.bracket,
                              item.known_upper)
        if not (r.exact and r.exhaustive) or r.method != "dual" or r.budget_exhausted:
            errors.append(f"expected a dual-checked exact length, got {r.method}")
        return errors


# --- blocks_b2 -------------------------------------------------------------------


class BlocksB2:
    """Block-shaped words at base 2 under one node budget.

    The budget must exceed the index-2 family (656 generators), or
    ``build_moves`` gives up while listing it and the target reports
    ``budget`` with 0 nodes, which measures nothing; ``check`` refuses
    that outcome.
    """

    name = "blocks_b2"
    corpus_size = 480
    trace_items = 48
    max_nodes = 700
    # One period of the corpus. Chains spend the whole node budget (~1.5 s
    # each), so they are the rarest kind. Within each kind the parameters
    # that set the cost are cycled through strata and only the rest is
    # drawn at random, so that runs with different seeds do equal work.
    pattern = (
        "block", "perturbed", "index2", "block", "perturbed", "block",
        "index2", "perturbed", "block", "perturbed", "index2", "block",
    ) * 4
    pattern = pattern[:-1] + ("chain",)
    period = len(pattern)

    def params(self, lib):
        return lib.genset.GenSetParams(base=2, jmin=1, jmax_cap=None)

    def make(self, lib, rng):
        params = self.params(lib)
        items = []
        made = dict.fromkeys(self.pattern, 0)
        while len(items) < self.corpus_size:
            kind = self.pattern[len(items) % self.period]
            item = getattr(self, "_" + kind)(lib, params, rng, made[kind])
            item.bracket = bracket_of(lib, item.word, params)
            cutoff = lib.genset.max_usable_index(item.word, item.bracket[1], params)
            # index-1 kinds must stay index 1: an index-2 move set costs
            # ~55 ms a node, which only the one-generator targets can afford
            wanted = 2 if kind == "index2" else 1
            if item.bracket[0] < item.bracket[1] and cutoff == wanted:
                items.append(item)
                made[kind] += 1
        return items

    @staticmethod
    def _block_word(lib, rng, k_sum):
        """c^k0 a^4 b^4 c^k1 with k0 + k1 = k_sum, and its witness count."""
        k0 = rng.randint(0, k_sum)
        runs = [("c", k0), ("a", 4), ("b", 4), ("c", k_sum - k0)]
        return lib.words.Word.from_runs(runs), k_sum + 2 + 1

    def _block(self, lib, params, rng, stratum):
        u, count = self._block_word(lib, rng, stratum % 9)
        return Item("block", u, known_upper=count)

    def _perturbed(self, lib, params, rng, stratum):
        """A block word with 1-3 letters added at its ends."""
        extra = 1 + stratum % 3
        core, count = self._block_word(lib, rng, stratum // 3 % 4)
        left = rng.randint(0, extra)
        u = random_letters(lib, rng, left) * core * random_letters(lib, rng, extra - left)
        return Item("perturbed", u, known_upper=count + extra)

    def _chain(self, lib, params, rng, stratum):
        """Two index-1 blocks with an admissible separator (>= 13)."""
        blocks = [(1, rng.randint(13, 16)), (1, rng.randint(1, 2))]
        u = lib.lengths.chain_word(blocks, params)
        count = sum(params.inner_exp(n) + 1 + k for n, k in blocks)
        return Item("chain", u, known_upper=count)

    def _index2(self, lib, params, rng, stratum):
        """One index-2 generator, possibly with a letter at one end."""
        conj = random_letters(lib, rng, stratum % 3)
        gen = lib.genset.normalize_conjugator(conj, 2, params)
        expansion = lib.genset.expand_generator(gen, params)
        extra = random_letters(lib, rng, stratum // 3 % 2)
        u = extra * expansion if rng.random() < 0.5 else expansion * extra
        return Item("index2", u, known_upper=1 + extra.s_length)

    def run(self, lib, item):
        budget = lib.lengths.SearchBudget(
            max_nodes=self.max_nodes, max_cost=None, max_millis=None
        )
        r = lib.lengths.xlength(item.word, self.params(lib), budget=budget, mode="exact")
        return Answer([(r.lower, r.upper)], length_signature(r), r)

    def check(self, lib, item, answer):
        r = answer.payload
        errors = check_length(lib, self.params(lib), item.word, r, item.bracket,
                              item.known_upper)
        if r.method not in ("search", "budget"):
            errors.append(f"unexpected method {r.method}")
        if r.method == "budget" and r.nodes_expanded == 0:
            errors.append("node budget too small to list the moves")
        return errors


# --- canonical_b5 ------------------------------------------------------------------


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items() if k not in ("timestamp", "ms")}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


class CanonicalB5:
    """Closed forms, witness checks, algebra and CLI reports at base 5.

    One item is a case: three family-mode lengths, two bracket-mode
    lengths, a block and a chain witness verification, a unit-vector
    norm and sandwich bound, a chain pairing with its spectral probe, and
    the four CLI reports (``verify-family`` block, chain and explicit
    chains, ``radical-demo``). No call searches.
    """

    name = "canonical_b5"
    corpus_size = 2000
    trace_items = 200
    period = 8  # sets of CLI arguments, used in turn so that reports repeat

    def __init__(self):
        self.reports: dict[tuple, str] = {}  # argv -> first stripped report

    def params(self, lib):
        return lib.genset.GenSetParams(base=5, jmin=2, jmax_cap=None)

    # closed forms, computed here and compared with the library
    @staticmethod
    def block_length(n, k0, k1):
        return k0 + 5 ** (2 * n - 1) + 1 + k1

    @staticmethod
    def chain_length(blocks):
        return sum(5 ** (2 * n - 1) + 1 + k for n, k in blocks)

    def _admissible_chain(self, rng, r):
        """r blocks; each separator exceeds 3 * 5^(2n) of the next block."""
        ns = [rng.choice([2, 3]) for _ in range(r)]
        ks = [3 * 5 ** (2 * n) + rng.randint(1, 50) for n in ns[1:]]
        return list(zip(ns, ks + [rng.randint(1, 50)]))

    def make(self, lib, rng):
        params = self.params(lib)
        Word = lib.words.Word
        cli_sets = [self._cli_argvs(rng) for _ in range(self.period)]
        items = []
        for i in range(self.corpus_size):
            k = rng.randint(1, 10**4)
            n, k0, k1 = rng.choice([2, 3]), rng.randint(0, 60), rng.randint(0, 60)
            block = Word.from_runs([("c", k0), ("a", 5 ** (2 * n)), ("b", 5 ** (2 * n)), ("c", k1)])
            chain = self._admissible_chain(rng, rng.choice([2, 3]))
            family = [
                (Word((("c", k),)), k),
                (block, self.block_length(n, k0, k1)),
                (lib.lengths.chain_word(chain, params), self.chain_length(chain)),
            ]
            perturbed = []
            for u, closed in family[1:]:
                extra = rng.randint(1, 2)
                v = u * random_letters(lib, rng, extra)
                perturbed.append((v, closed + extra))
            probe_n = rng.choice([2, 3])
            probe_k = 3 * 5 ** (2 * probe_n) + rng.randint(1, 50)
            spec = {
                "family": family,
                "perturbed": perturbed,
                "block_witness": (rng.choice([2, 3, 4]), rng.randint(0, 100)),
                "chain_witness": self._admissible_chain(rng, rng.choice([1, 2, 3])),
                "vector": self._unit_vector_spec(rng, family),
                "probe": ([(probe_n, probe_k)] * rng.choice([1, 2]), rng.choice([2, 3])),
                "argvs": cli_sets[i % self.period],
            }
            items.append(Item("case", spec=spec))
        return items

    def _unit_vector_spec(self, rng, family):
        """Criterion-8 style: 1-4 family words, coefficients of total mass
        at most 1 after dividing by their weights."""
        size = rng.randint(1, 4)
        weights = [Fraction(rng.randint(1, 9)) for _ in range(size)]
        total = sum(weights) + rng.randint(0, 3)
        terms = []
        for m in weights:
            u, length = rng.choice(family)
            sign = rng.choice([1, -1])
            terms.append((u, sign * m / total, -length - rng.randint(0, 2)))
        return terms, rng.choice([2, 3]), rng.randint(0, 1)

    def _cli_argvs(self, rng):
        """One argument list per report kind, with seeded parameters."""
        blocks = ";".join(
            ",".join(f"{n}:{k}" for n, k in self._admissible_chain(rng, r))
            for r in (1, 2)
        )
        ks = ",".join(str(rng.randint(0, 40)) for _ in range(3))
        js = rng.choice(["2,3", "2,4", "3,4"])
        return [
            ["verify-family", "--family", "block", "--n", "2,3", "--k", ks],
            ["verify-family", "--family", "chain", "--n", str(rng.choice([2, 3])), "--r", "1,2,3"],
            ["verify-family", "--family", "chain", "--blocks", blocks],
            ["radical-demo", "--j", js, "--r", "2", "--kmax", "3"],
        ]

    def run(self, lib, item):
        spec = item.spec
        params = self.params(lib)
        L, A = lib.lengths, lib.algebra
        family = [L.xlength(u, params, mode="family") for u, _ in spec["family"]]
        bracketed = [L.xlength(u, params, mode="bracket") for u, _ in spec["perturbed"]]
        n, k = spec["block_witness"]
        block_check = L.verify_factorization(L.block_witness(n, k, params), params)
        chain_check = L.verify_factorization(
            L.chain_witness(spec["chain_witness"], params), params
        )

        provider = A.WeightProvider(params, mode="family")
        terms, j, slack = spec["vector"]
        entries = {}
        for u, mantissa, exponent in terms:
            term = A.ExpSum.of(A.ExpScalar(mantissa, exponent))
            entries[u] = entries.get(u, A.ExpSum()) + term
        vector = A.WeightedVector(provider, entries)
        norm_ok = bound_ok = True
        if vector.entries:
            norm_ok = A.omega_norm(vector) <= 1
            tail = max(A.min_tail_index(j, u, params) for u in vector.entries) + slack
            limit = A.ExpScalar(Fraction(1), -1 - 5 ** (2 * j - 1))
            bound_ok = A.sandwich_norm_bound(j, vector, tail) <= limit
        chain_blocks, depth = spec["probe"]
        chain = A.chain_product(chain_blocks, provider)
        pairing = A.pair_omega(chain)
        roots = A.spectral_probe(chain, depth)

        reports = []
        for argv in spec["argvs"]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = lib.cli.main(list(argv))
            text = json.dumps(_strip_timing(json.loads(out.getvalue())), sort_keys=True)
            reports.append((code, text))

        results = family + bracketed
        signature = (
            tuple(length_signature(r) for r in results),
            block_check, chain_check, norm_ok, bound_ok, str(pairing),
            tuple((str(r.mantissa), str(r.exponent)) for r in roots),
            tuple(reports),
        )
        payload = {
            "family": family, "bracketed": bracketed,
            "block_check": block_check, "chain_check": chain_check,
            "norm_ok": norm_ok, "bound_ok": bound_ok, "pairing": pairing,
            "roots": roots, "reports": reports,
        }
        return Answer([(r.lower, r.upper) for r in results], signature, payload)

    def check(self, lib, item, answer):
        spec, p = item.spec, answer.payload
        params = self.params(lib)
        L = lib.lengths
        errors = []
        for (u, closed), r in zip(spec["family"], p["family"]):
            if not (r.exact and r.lower == closed and r.method == "family"):
                errors.append(f"family length of {u} is {r.lower}, closed form {closed}")
            errors += check_length(lib, params, u, r, (0, closed))
        for (u, known), r in zip(spec["perturbed"], p["bracketed"]):
            bracket = (1, u.s_length)
            errors += check_length(lib, params, u, r, bracket, known)

        n, k = spec["block_witness"]
        target = lib.words.Word.from_runs([("c", k), ("a", 5 ** (2 * n)), ("b", 5 ** (2 * n))])
        if p["block_check"] != (target, self.block_length(n, k, 0)):
            errors.append(f"block witness ({n}, {k}) failed")
        blocks = spec["chain_witness"]
        if p["chain_check"] != (L.chain_word(blocks, params), self.chain_length(blocks)):
            errors.append(f"chain witness {blocks} failed")

        if not (p["norm_ok"] and p["bound_ok"]):
            errors.append("unit vector norm or sandwich bound failed")
        if not p["pairing"].equals(1):
            errors.append(f"chain pairing is {p['pairing']}, not exactly 1")
        if not all(root.is_one() for root in p["roots"]):
            errors.append("spectral probe root is not exactly one")

        for argv, (code, text) in zip(spec["argvs"], p["reports"]):
            errors += self._check_report(argv, code, text)
        return errors

    def _check_report(self, argv, code, text):
        report = json.loads(text)
        errors = [] if code == 0 and report.get("all_ok") else [f"{argv}: exit {code}"]
        if self.reports.setdefault(tuple(argv), text) != text:
            errors.append(f"{argv}: report not byte-identical to its first run")
        for row in report.get("rows", []):
            if row.get("family") == "block":
                expected = self.block_length(row["n"], row["k"], 0)
            elif row.get("family") == "chain":
                expected = self.chain_length([tuple(b) for b in row["blocks"]])
            else:
                continue
            if row["witness_count"] != expected or not row["product_ok"]:
                errors.append(f"{argv}: row {row['target'][:40]} wrong")
        for row in report.get("pairings", []):
            if row["pairing"] != "1":
                errors.append(f"{argv}: pairing {row['pairing']}")
        return errors


# --- budget_b5 ---------------------------------------------------------------------


class BudgetB5:
    """Exact mode at base 5 on near-block words whose index-2 family is
    far too large to list, under explicit node and time budgets.

    Every call ends when ``build_moves`` has listed ``max_nodes``
    generators and gives up, before any search starts. Enumeration never
    looks at ``max_ms``, so the ratio of wall time to ``max_ms`` measures how
    far enumeration overruns the time budget; the search deadline itself is
    not reached here.
    """

    name = "budget_b5"
    corpus_size = 300
    trace_items = 40
    max_nodes = 2000
    max_ms = 50.0
    period = 6

    def params(self, lib):
        return lib.genset.GenSetParams(base=5, jmin=2, jmax_cap=None)

    def make(self, lib, rng):
        params = self.params(lib)
        Word = lib.words.Word
        items = []
        while len(items) < self.corpus_size:
            stratum = len(items) % self.period
            n, extra = 2 + stratum % 2, 1 + stratum // 2
            k0, k1 = rng.randint(0, 20), rng.randint(0, 20)
            outer = 5 ** (2 * n)
            core = Word.from_runs([("c", k0), ("a", outer), ("b", outer), ("c", k1)])
            left = rng.randint(0, extra)
            u = random_letters(lib, rng, left) * core * random_letters(lib, rng, extra - left)
            bracket = bracket_of(lib, u, params)
            cutoff = lib.genset.max_usable_index(u, bracket[1], params)
            if bracket[0] == bracket[1] or cutoff is None or cutoff < 2:
                continue
            known = k0 + 5 ** (2 * n - 1) + 1 + k1 + extra
            items.append(Item("near_block", u, bracket, known_upper=known))
        return items

    def run(self, lib, item):
        budget = lib.lengths.SearchBudget(
            max_nodes=self.max_nodes, max_cost=None, max_millis=self.max_ms
        )
        r = lib.lengths.xlength(item.word, self.params(lib), budget=budget, mode="exact")
        return Answer([(r.lower, r.upper)], length_signature(r), r)

    def check(self, lib, item, answer):
        r = answer.payload
        errors = check_length(lib, self.params(lib), item.word, r, item.bracket,
                              item.known_upper)
        if not r.budget_exhausted or r.method != "budget":
            errors.append(f"expected an honest budget bracket, got {r.method}")
        if r.exact and r.witness is None:
            errors.append("exact without a witness")
        return errors


WORKLOADS = {w.name: w for w in (LettersB2(), BlocksB2(), CanonicalB5(), BudgetB5())}

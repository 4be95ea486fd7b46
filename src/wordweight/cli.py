"""Command-line front end emitting machine-readable verification reports.

Exit codes: 0 all checks pass, 1 a verification row failed, 2 bad input
or configuration, 3 a budget ran out before every engine proved the
reported lower end. Reports embed the full run configuration so results
at scaled bases can never be mistaken for canonical-base results;
byte-identical output is guaranteed for identical inputs apart from the
timestamp and ms fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from functools import lru_cache

from .algebra import (
    WeightProvider,
    chain_prefixes,
    min_tail_index,
    pair_omega,
    sandwich_decay_bound,
    spectral_probe,
    vector_to_literal,
)
from .errors import UnknownLength
from .genset import GenSetParams, _check_index
from .lengths import (
    LengthResult,
    SearchBudget,
    _blocks_length,
    _blocks_word,
    _min_separator,
    _require_canonical,
    best_certificate_bound,
    block_witness,
    chain_witness,
    verify_factorization,
    xlength,
)
from .words import Record, Word, _set

DECAY_TEST_WORDS = ["", "a", "b a b^-1", "c^2 a^-1"]


class RunConfig(Record):
    """A command's settings: GenSetParams ``params``, the length ``mode``,
    the SearchBudget ``budget``, the report format ``fmt`` and the output
    path ``out`` (None for stdout)."""

    __slots__ = ("params", "mode", "budget", "fmt", "out")

    def __init__(self, params, mode, budget, fmt, out):
        _set(self, "params", params)
        _set(self, "mode", mode)
        _set(self, "budget", budget)
        _set(self, "fmt", fmt)
        _set(self, "out", out)

    def as_dict(self) -> dict:
        return {
            "base": self.params.base,
            "jmin": self.params.jmin,
            "jmax_cap": self.params.jmax_cap,
            "mode": self.mode,
            "max_nodes": self.budget.max_nodes,
            "max_ms": self.budget.max_millis,
        }


def _parse_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return json.loads(text)
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _coerce_int(value, name: str) -> int:
    # int() would truncate a JSON float and accept a JSON bool
    if isinstance(value, (bool, float)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, got {value!r}")


CONFIG_KEYS = ("base", "jmin", "jmax_cap", "mode", "max_nodes", "max_ms", "format")


def build_run_config(args, default_mode: str) -> RunConfig:
    file_values = _parse_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in CONFIG_KEYS:
            raise ValueError(
                f"unknown config key {key!r} (known: {', '.join(CONFIG_KEYS)})"
            )

    def pick(flag, key, default):
        if flag is not None:
            return flag
        if key in file_values and file_values[key] is not None:
            return file_values[key]
        return default

    base = _coerce_int(pick(args.base, "base", 5), "base")
    jmin = _coerce_int(pick(args.jmin, "jmin", 2), "jmin")
    jmax = pick(args.jmax, "jmax_cap", None)
    jmax = _coerce_int(jmax, "jmax") if jmax is not None else None
    mode = pick(args.mode, "mode", default_mode)
    if mode not in ("exact", "bracket", "family"):
        raise ValueError(f"unknown mode {mode!r}")
    max_nodes = _coerce_int(pick(args.max_nodes, "max_nodes", 500_000), "max_nodes")
    max_ms = pick(args.max_ms, "max_ms", None)
    if max_ms is not None:
        # float() would read a JSON bool as 0 or 1
        if isinstance(max_ms, bool):
            raise ValueError(f"max_ms must be a number, got {max_ms!r}")
        try:
            max_ms = float(max_ms)
        except (TypeError, ValueError):
            raise ValueError(f"max_ms must be a number, got {max_ms!r}")
        # an infinite budget would be written to the report as Infinity,
        # which is not JSON; nan fails the comparison too
        if not 0 < max_ms < math.inf:
            raise ValueError(f"max_ms must be a finite number > 0, got {max_ms}")
    fmt = pick(args.format, "format", "json")
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    return RunConfig(
        params=GenSetParams(base=base, jmin=jmin, jmax_cap=jmax),
        mode=mode,
        budget=SearchBudget(max_nodes=max_nodes, max_millis=max_ms),
        fmt=fmt,
        out=args.out,
    )


def _result_payload(result: LengthResult) -> dict:
    cert = result.certificate
    return {
        "lower": result.lower,
        "upper": result.upper,
        "exact": result.exact,
        "method": result.method,
        "witness": result.witness.symbol_strings() if result.witness else None,
        "certificate": (
            {"coeffs": list(cert.coeffs), "direction": cert.direction.value}
            if cert
            else None
        ),
        "nodes_expanded": result.nodes_expanded,
        "ms": round(result.ms, 3),
        "budget_exhausted": result.budget_exhausted,
    }


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(obj, out: list[str], pad: str) -> None:
    """Append the JSON text of ``obj``, nested at indent ``pad``, to ``out``.

    The joined text equals ``json.dumps(obj, indent=2, sort_keys=True)``
    for every value whose dict keys are all str; a dict with any other
    key raises TypeError rather than have its key written as a string.
    Types are tested with isinstance in the order ``json`` tests them, so
    a subclass of str, int, dict, list or tuple is written as its base
    type; floats (nan and infinities included) and anything else go to
    ``json.dumps``, which raises TypeError for what it cannot write.

    It exists because ``json`` drops its C encoder whenever ``indent``
    is set (before Python 3.14) and falls back to a pure-Python one,
    which takes about 1.7 times as long as this writer on a CLI report.
    """
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _encode_str(key) + ": ")
            _write_json(obj[key], out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        out.append(json.dumps(obj))


def _emit(report: dict, cfg: RunConfig) -> None:
    if cfg.fmt == "json":
        out: list[str] = []
        _write_json(report, out, "")
        out.append("\n")
        text = "".join(out)
    else:
        rows = report.get("rows")
        if rows is None:
            rows = [
                {
                    k: v
                    for k, v in report.items()
                    if not isinstance(v, (dict, list))
                }
            ]
        buf = io.StringIO()
        fields = sorted({key for row in rows for key in row})
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    k: json.dumps(v) if isinstance(v, (dict, list)) else v
                    for k, v in row.items()
                }
            )
        text = buf.getvalue()
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_skeleton(command: str, cfg: RunConfig) -> dict:
    return {
        "command": command,
        "params": {
            "base": cfg.params.base,
            "jmin": cfg.params.jmin,
            "jmax_cap": cfg.params.jmax_cap,
        },
        "config": cfg.as_dict(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _parse_int_list(text: str, name: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated integer list")


# --- subcommands ---------------------------------------------------------------


def cmd_xlen(args) -> int:
    cfg = build_run_config(args, default_mode="exact")
    u = Word.parse(args.word)
    result = xlength(
        u, cfg.params, budget=cfg.budget, mode=cfg.mode, algorithm=args.algorithm
    )
    report = _report_skeleton("xlen", cfg)
    report["target"] = str(u)
    report["algorithm"] = args.algorithm
    report.update(_result_payload(result))
    _emit(report, cfg)
    return 3 if result.budget_exhausted else 0


def _family_row(
    cfg: RunConfig, row: dict, witness, k0: int, blocks, with_oracle: bool
) -> dict:
    """Fill a verify-family row for the word c^(k0) [block c^k]*: the
    re-multiplied witness, the closed-form symbol count, the certificate
    bound and, on request, the exact-search oracle."""
    params = cfg.params
    target = _blocks_word(k0, blocks, params)
    expected = _blocks_length(k0, blocks, params)
    product, count = verify_factorization(witness, params)
    cert_lower, _ = best_certificate_bound(target, params)
    row.update(
        target=str(target),
        witness_count=count,
        expected_count=expected,
        product_ok=product == target,
        certificate_lower=cert_lower,
    )
    ok = row["product_ok"] and cert_lower <= count == expected
    if with_oracle:
        oracle = xlength(target, params, budget=cfg.budget, mode="exact")
        row["oracle_value"] = oracle.lower if oracle.exact else None
        row["oracle_exact"] = oracle.exact
        if oracle.exact:
            ok = ok and cert_lower <= oracle.lower <= count
    row["sandwich_ok"] = ok
    return row


def cmd_verify_family(args) -> int:
    cfg = build_run_config(args, default_mode="bracket")
    params = cfg.params
    if args.family == "block":
        ns = _parse_int_list(args.n, "--n")
        ks = _parse_int_list(args.k, "--k")
        if not ns or not ks:
            raise ValueError("--n and --k must be non-empty")
        rows = [
            _family_row(cfg, {"family": "block", "n": n, "k": k},
                        block_witness(n, k, params), k, [(n, 0)], args.oracle)
            for n in ns
            for k in ks
        ]
    else:
        if args.blocks:
            specs = []
            for spec in args.blocks.split(";"):
                blocks = []
                for piece in spec.split(","):
                    n_txt, _, k_txt = piece.partition(":")
                    blocks.append(
                        (_coerce_int(n_txt, "n"), _coerce_int(k_txt, "k"))
                    )
                specs.append(blocks)
        else:
            rs = _parse_int_list("1" if args.r is None else args.r, "--r")
            if not rs:
                raise ValueError("--r must be non-empty")
            ns = _parse_int_list(args.n, "--n")
            if len(ns) != 1:
                raise ValueError("chain ranges take a single --n")
            if any(r < 1 for r in rs):
                raise ValueError("--r must be >= 1")
            # the smallest admissible separators; the last needs only >= 1
            n = ns[0]
            specs = [[(n, _min_separator(n, params))] * (r - 1) + [(n, 1)] for r in rs]
        rows = [
            _family_row(cfg, {"family": "chain", "blocks": [list(b) for b in blocks],
                              "r": len(blocks)},
                        chain_witness(blocks, params), 0, blocks, args.oracle)
            for blocks in specs
        ]
    report = _report_skeleton("verify-family", cfg)
    report["rows"] = rows
    report["all_ok"] = all(row["sandwich_ok"] for row in rows)
    _emit(report, cfg)
    return 0 if report["all_ok"] else 1


def cmd_radical_demo(args) -> int:
    cfg = build_run_config(args, default_mode="family")
    params = cfg.params
    js = _parse_int_list(args.j, "--j")
    if not js:
        raise ValueError("--j must be non-empty")
    _require_canonical(params)
    for j in js:
        _check_index(j, params)
    if args.r < 1 or args.kmax < 1:
        raise ValueError("--r and --kmax must be >= 1")
    provider = WeightProvider(params, mode="family")

    decay_rows = []
    for j in js:
        for text in DECAY_TEST_WORDS:
            u = Word.parse(text)
            n, exponent = sandwich_decay_bound(
                j, u, min_tail_index(j, u, params), provider
            )
            decay_rows.append(
                {
                    "j": j,
                    "u": text,
                    "tail_index": n,
                    "bound_exponent": exponent,
                    "ok": exponent == -1 - params.inner_exp(j),
                }
            )

    cyclic_k = _min_separator(2, params)
    # one walk along the longest chain; its prefixes are the shorter ones
    chains = list(chain_prefixes([(2, cyclic_k)] * max(args.kmax, args.r), provider))
    pairing_rows = []
    for t, vec in enumerate(chains[: args.kmax], start=1):
        pairing = pair_omega(vec)
        pairing_rows.append(
            {"chain_blocks": t, "pairing": str(pairing), "ok": pairing.equals(1)}
        )
    probe_vec = chains[args.r - 1]
    probe_vector_literal = vector_to_literal(probe_vec)
    probe_rows = []
    for k, root in enumerate(spectral_probe(probe_vec, args.kmax), start=1):
        probe_rows.append(
            {
                "k": k,
                "mantissa": str(root.mantissa),
                "exponent": str(root.exponent),
                "ok": root.is_one(),
            }
        )

    rows = decay_rows + pairing_rows + probe_rows
    report = _report_skeleton("radical-demo", cfg)
    report["decay"] = decay_rows
    report["pairings"] = pairing_rows
    report["probe"] = probe_rows
    report["probe_vector"] = probe_vector_literal
    report["rows"] = rows
    report["all_ok"] = all(row["ok"] for row in rows)
    _emit(report, cfg)
    return 0 if report["all_ok"] else 1


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    ``parse_args`` keeps no state between calls: each call fills a new
    namespace from the defaults, so a flag given once never leaks into a
    later call.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--base", type=int, help="generating-set base (default 5)")
    common.add_argument("--jmin", type=int, help="first generator index (default 2)")
    common.add_argument("--jmax", type=int, help="optional index cap")
    common.add_argument(
        "--mode", choices=["exact", "bracket", "family"], help="length engine mode"
    )
    common.add_argument("--max-nodes", type=int, dest="max_nodes")
    common.add_argument("--max-ms", type=float, dest="max_ms")
    common.add_argument("--format", choices=["json", "csv"])
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--config", help="key=value or JSON config file")

    parser = argparse.ArgumentParser(
        prog="wordweight",
        description="word-length and weighted-algebra verification scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("xlen", parents=[common], help="length of one word")
    p.add_argument("word", help="word text, e.g. 'c^3 a^625 b^625'")
    p.add_argument(
        "--algorithm",
        choices=["best-first", "deepening", "dual"],
        default="best-first",
    )
    p.set_defaults(func=cmd_xlen)

    p = sub.add_parser(
        "verify-family", parents=[common], help="witness/certificate tables"
    )
    p.add_argument("--family", choices=["block", "chain"], required=True)
    p.add_argument("--n", default="2", help="block index list, e.g. 2,3")
    p.add_argument("--k", default="0", help="separator power list (block family)")
    p.add_argument("--r", help="chain length list (chain family)")
    p.add_argument("--blocks", help="explicit chains 'n:k,n:k;n:k,...'")
    p.add_argument("--oracle", action="store_true", help="also run exact search")
    p.set_defaults(func=cmd_verify_family)

    p = sub.add_parser(
        "radical-demo", parents=[common], help="decay table and chain probe"
    )
    p.add_argument("--j", default="2,3", help="left sandwich indices")
    p.add_argument("--r", type=int, default=2, help="blocks in the probe chain")
    p.add_argument("--kmax", type=int, default=3, help="probe depth")
    p.set_defaults(func=cmd_radical_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, UnknownLength, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

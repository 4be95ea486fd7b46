import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from wordweight.cli import _write_json, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout (stderr: {err})"
    return code, json.loads(out)


def strip_timing(report):
    return {k: v for k, v in report.items() if k not in ("timestamp", "ms")}


class TestXlen:
    def test_family_block(self, capsys):
        code, report = run_json(
            capsys, "xlen", "--base", "5", "--jmin", "2", "--mode", "family",
            "c^3 a^625 b^625",
        )
        assert code == 0
        assert report["exact"] and report["lower"] == report["upper"] == 129

    def test_exact_small_base_with_witness(self, capsys):
        code, report = run_json(
            capsys, "xlen", "--base", "2", "--jmin", "1", "--mode", "exact",
            "--algorithm", "dual", "a^4 b^4",
        )
        assert code == 0
        assert report["exact"] and report["lower"] == 3
        assert report["witness"] == ["b^-1 *2", "x(1, 1)"]

    def test_identity(self, capsys):
        code, report = run_json(capsys, "xlen", "c^0")
        assert code == 0
        assert report["exact"] and report["lower"] == 0

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run(capsys, "xlen", "a^2 d")
        assert code == 2 and "error" in err

    def test_family_miss_exit_2(self, capsys):
        code, out, err = run(capsys, "xlen", "--mode", "family", "a b")
        assert code == 2

    def test_budget_exhausted_exit_3(self, capsys):
        code, report = run_json(
            capsys, "xlen", "--mode", "exact", "--max-nodes", "500",
            "a^625 b^625",
        )
        assert code == 3
        assert report["budget_exhausted"] and not report["exact"]
        assert report["lower"] <= 126 <= report["upper"]

    def test_paper_scale_budget_is_immediate(self, capsys):
        # the index-2 family at base 5 has 5^25 generators; listing the
        # first 500,000 of them before giving up once took 34 s
        codes = []
        worker = threading.Thread(
            target=lambda: codes.append(
                main(["xlen", "--max-ms", "2000", "a^625 b^625 c a^-1"])
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and codes == [3]
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "budget" and report["nodes_expanded"] == 0

    def test_bracket_mode_completes_with_zero(self, capsys):
        code, report = run_json(
            capsys, "xlen", "--mode", "bracket", "a^625 b^625"
        )
        assert code == 0
        assert not report["exact"] and report["upper"] == 126

    def test_reports_reproducible_modulo_timing(self, capsys):
        argv = ["xlen", "--base", "2", "--jmin", "1", "--mode", "exact", "b^2 a^4"]
        _, first = run_json(capsys, *argv)
        _, second = run_json(capsys, *argv)
        assert strip_timing(first) == strip_timing(second)


    def test_deepening_budget_reports_last_pass_bound(self, capsys):
        # the pass that runs out of budget has bound 11, one above the
        # last completed pass, and every factorization costs at least it
        code, report = run_json(
            capsys, "xlen", "--base", "2", "--jmin", "1", "--max-nodes", "150",
            "--algorithm", "deepening", "a c b^-1 a^-1 c b^-1 c^-2 a^4",
        )
        assert code == 3 and report["method"] == "budget"
        assert (report["lower"], report["upper"]) == (11, 12)
        assert report["nodes_expanded"] == 151


class TestParserReuse:
    CALLS = [
        ("xlen", "--base", "2", "--jmin", "1", "--max-nodes", "60",
         "c a c^-2 b a c^-1 b c^-2 b^-1 c"),
        ("xlen", "--base", "2", "--jmin", "1", "c a c^-2 b a c^-1 b c^-2 b^-1 c"),
        ("verify-family", "--family", "block", "--n", "2", "--k", "0,1"),
    ]

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_no_flag_leaks_between_calls(self, capsys):
        shared = [run_json(capsys, *argv) for argv in self.CALLS]
        fresh = []
        for argv in self.CALLS:
            build_parser.cache_clear()
            fresh.append(run_json(capsys, *argv))
        assert [code for code, _ in shared] == [3, 0, 0]
        assert [(c, strip_timing(r)) for c, r in shared] == [
            (c, strip_timing(r)) for c, r in fresh
        ]
        assert shared[0][1]["config"]["max_nodes"] == 60
        assert shared[1][1]["config"]["max_nodes"] != 60
        assert shared[1][1]["exact"] and shared[1][1]["lower"] == 12


class TestVerifyFamily:
    def test_block_table(self, capsys):
        code, report = run_json(
            capsys, "verify-family", "--family", "block", "--n", "2,3",
            "--k", "0,5",
        )
        assert code == 0 and report["all_ok"]
        counts = [row["witness_count"] for row in report["rows"]]
        assert counts == [126, 131, 3126, 3131]

    def test_chain_minimal_admissible(self, capsys):
        code, report = run_json(
            capsys, "verify-family", "--family", "chain", "--r", "2", "--n", "2"
        )
        assert code == 0
        (row,) = report["rows"]
        assert row["witness_count"] == 2129
        assert row["blocks"] == [[2, 1876], [2, 1]]

    def test_chain_explicit_blocks_violation_is_config_error(self, capsys):
        code, out, err = run(
            capsys, "verify-family", "--family", "chain", "--blocks", "2:100,2:1"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags,n,threshold", [([], 2, 1875), (["--base", "2", "--jmin", "1"], 1, 12)]
    )
    def test_chain_separator_boundary(self, capsys, flags, n, threshold):
        code, out, err = run(
            capsys, "verify-family", "--family", "chain", *flags,
            "--blocks", f"{n}:{threshold},{n}:1",
        )
        assert code == 2 and not out
        assert err == (
            f"error: separator k_1 = {threshold} is not greater than "
            f"3*B^(2*{n}) = {threshold}\n"
        )
        code, report = run_json(
            capsys, "verify-family", "--family", "chain", *flags,
            "--blocks", f"{n}:{threshold + 1},{n}:1",
        )
        assert code == 0 and report["all_ok"]

    def test_block_oracle_small_base(self, capsys):
        code, report = run_json(
            capsys, "verify-family", "--family", "block", "--base", "2",
            "--jmin", "1", "--n", "1", "--k", "0,1,2,3", "--oracle",
        )
        assert code == 0
        for row, k in zip(report["rows"], [0, 1, 2, 3]):
            assert row["oracle_exact"]
            assert row["certificate_lower"] <= row["oracle_value"] <= row["witness_count"]
            assert row["witness_count"] == k + 3

    def test_bad_ranges_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify-family", "--family", "block", "--n", "x")
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--family", "block", "--n", ""], "--n and --k must be non-empty"),
            (["--family", "chain", "--n", "2,3"], "chain ranges take a single --n"),
        ],
        ids=["empty-block-n", "chain-two-n"],
    )
    def test_bad_family_ranges_name_the_flag(self, capsys, flags, message):
        code, out, err = run(capsys, "verify-family", *flags)
        assert code == 2 and not out
        assert err == f"error: {message}\n"

    def test_chain_length_below_one_exit_2(self, capsys):
        code, out, err = run(
            capsys, "verify-family", "--family", "chain", "--n", "2", "--r", "0,-3,1"
        )
        assert code == 2 and not out
        assert err == "error: --r must be >= 1\n"

    def test_empty_chain_lengths_exit_2(self, capsys):
        # an explicitly empty --r used to mean r = 1
        code, out, err = run(
            capsys, "verify-family", "--family", "chain", "--n", "2", "--r", ""
        )
        assert code == 2 and not out
        assert err == "error: --r must be non-empty\n"


class TestRadicalDemo:
    def test_default_run(self, capsys):
        code, report = run_json(capsys, "radical-demo", "--j", "2", "--r", "2",
                                "--kmax", "3")
        assert code == 0 and report["all_ok"]
        assert {row["bound_exponent"] for row in report["decay"]} == {-126}
        assert all(row["pairing"] == "1" for row in report["pairings"])
        assert all(row["ok"] for row in report["probe"])

    def test_j_below_jmin_exit_2(self, capsys):
        code, _, err = run(capsys, "radical-demo", "--j", "1")
        assert code == 2

    def test_empty_j_exit_2(self, capsys):
        # an empty --j gave an empty decay table and still all_ok
        code, out, err = run(capsys, "radical-demo", "--j", "")
        assert code == 2 and not out
        assert err == "error: --j must be non-empty\n"

    def test_r_below_one_exit_2(self, capsys):
        code, out, err = run(capsys, "radical-demo", "--r", "0")
        assert code == 2 and not out
        assert err == "error: --r and --kmax must be >= 1\n"

    def test_index_above_cap_exit_2(self, capsys):
        # the decay rows for --j 2 use the tail index 4, above the cap
        code, out, err = run(capsys, "radical-demo", "--jmax", "3", "--j", "2")
        assert code == 2 and not out
        assert err == "error: index 4 above jmax_cap=3\n"

    def test_wrong_base_exit_2(self, capsys):
        code, out, err = run(capsys, "radical-demo", "--base", "2", "--jmin", "1")
        assert code == 2 and not out
        assert err == (
            "error: the proven closed forms require base 5 and jmin 2 "
            "(got base 2, jmin 1)\n"
        )


class TestConfig:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-nodes", "0"],
            ["--max-nodes", "-5"],
            ["--max-ms", "0"],
            ["--max-ms", "-1"],
            ["--max-ms", "inf"],
            ["--max-ms=-inf"],
            ["--max-ms", "nan"],
        ],
    )
    def test_impossible_budget_exit_2(self, capsys, flags):
        code, out, err = run(capsys, "xlen", *flags, "a^4 b^4")
        assert code == 2 and not out and "error" in err

    # an infinite max_ms would reach the report as Infinity, which is not JSON
    @pytest.mark.parametrize(
        "line",
        ["max_nodes=0", "max_ms=0", "max_ms=inf", "max_ms=1e999", '{"max_ms": 1e999}'],
    )
    def test_impossible_budget_in_config_exit_2(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "xlen", "--config", str(cfg), "a^4 b^4")
        assert code == 2 and not out and "error" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("max_ms=abc", "max_ms must be a number, got 'abc'"),
            ("max_ms=inf", "max_ms must be a finite number > 0, got inf"),
        ],
        ids=["not-a-number", "inf"],
    )
    def test_bad_max_ms_in_config_names_the_key(self, capsys, tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "xlen", "--config", str(cfg), "a^4 b^4")
        assert code == 2 and not out
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            # the comment line is skipped, and still counted
            ("# budget\nmax_nodes 5\n", "{cfg}:2: expected key=value"),
            ("base=abc\n", "base must be an integer, got 'abc'"),
            ("mode=fast\n", "unknown mode 'fast'"),
            ("format=xml\n", "unknown format 'xml'"),
        ],
        ids=["no-equals-after-comment", "base-not-int", "unknown-mode", "unknown-format"],
    )
    def test_bad_config_line_exit_2(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "xlen", "--config", str(cfg), "a^4 b^4")
        assert code == 2 and not out
        assert err == f"error: {message.format(cfg=cfg)}\n"

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("base=2\njmin=1\nmode=bracket\n")
        code, report = run_json(
            capsys, "xlen", "--config", str(cfg), "c^4"
        )
        assert code == 0 and report["config"]["base"] == 2
        code, report = run_json(
            capsys, "xlen", "--config", str(cfg), "--base", "5", "--jmin", "2", "c^4"
        )
        assert report["config"]["base"] == 5

    def test_json_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"base": 2, "jmin": 1, "max_nodes": 777}))
        code, report = run_json(capsys, "xlen", "--config", str(cfg), "a b")
        assert code == 0
        assert report["config"]["max_nodes"] == 777

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("base", 2.9, "base must be an integer, got 2.9"),
            ("base", 2.0, "base must be an integer, got 2.0"),
            ("base", True, "base must be an integer, got True"),
            ("max_nodes", 777.5, "max_nodes must be an integer, got 777.5"),
            ("max_ms", True, "max_ms must be a number, got True"),
            ("max_ms", [1], "max_ms must be a number, got [1]"),
            ("max_ms", {}, "max_ms must be a number, got {}"),
        ],
        ids=[
            "base-float", "base-whole-float", "base-bool", "max_nodes-float",
            "max_ms-bool", "max_ms-list", "max_ms-object",
        ],
    )
    def test_json_config_wrong_type_exit_2(
        self, capsys, tmp_path, key, value, message
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, "xlen", "--config", str(cfg), "c^4")
        assert code == 2 and not out
        assert err == f"error: {message}\n"

    # a mistyped key, and the old alias of jmax_cap, are refused rather
    # than dropped (max_node=5 used to run under the 500k default budget)
    @pytest.mark.parametrize(
        "name, text",
        [
            ("run.cfg", "base=2\njmin=1\nmax_node=5\n"),
            ("run.json", json.dumps({"base": 2, "max_node": 5})),
            ("run.cfg", "jmax=2\n"),
        ],
        ids=["mistyped-key", "mistyped-key-json", "jmax-alias"],
    )
    def test_unknown_config_key_exit_2(self, capsys, tmp_path, name, text):
        cfg = tmp_path / name
        cfg.write_text(text)
        code, out, err = run(capsys, "xlen", "--config", str(cfg), "a b")
        key = "jmax" if "jmax" in text else "max_node"
        assert code == 2 and not out
        assert err.startswith(f"error: unknown config key {key!r} (known: base,")

    def test_csv_output_to_file(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            ["verify-family", "--family", "block", "--n", "2", "--k", "0",
             "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        assert "witness_count" in header
        assert "126" in row


def _written(obj) -> str:
    out = []
    _write_json(obj, out, "")
    return "".join(out)


json_strings = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from(["\x00", "\x1f", "\x7f", '"', "\\", "\u2028", "\U0001f600"])
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats()
    | json_strings,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    @given(json_values)
    @settings(max_examples=300, deadline=None)
    def test_matches_indented_dumps(self, obj):
        assert _written(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "obj",
        [{1: "x"}, {"a": {None: 1}}, [{("k",): 1}], object(), {"a": [object()]}, {1, 2}],
        ids=["int-key", "none-key", "tuple-key", "object", "nested-object", "set"],
    )
    def test_refuses_what_it_cannot_write(self, obj):
        with pytest.raises(TypeError):
            _written(obj)

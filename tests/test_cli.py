import csv
import hashlib
import itertools
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import cafreq
from cafreq import cli, interval_swap
from cafreq.cli import build_parser, main
from cafreq.correlation import (
    check_high_domination,
    check_prefix_sum_conjecture,
    conserves_symbols,
    correlation,
    histogram_matches_identity,
    identity_correlation,
    proper_subsets,
)
from cafreq.rules import LocalRule, parse_rule

import test_readme


def ternary_example_descriptor():
    table = []
    for a, b, c in itertools.product(range(3), repeat=3):
        table.append(2 if b == c else (1 if a == 0 else 0))
    return LocalRule(3, 2, tuple(table)).format()


class TestRuleCommands:
    def test_rule_info(self, capsys):
        assert main(["rule", "info", "2 1 0110"]) == 0
        out = capsys.readouterr().out
        assert "surjective: True" in out
        assert "histogram=(0, 2, 0)" in out

    def test_rule_info_reports_correlations(self, capsys):
        assert main(["rule", "info", ternary_example_descriptor()]) == 0
        out = capsys.readouterr().out
        assert "balanced" in out

    def test_rule_surjective_args(self, capsys):
        assert main(["rule", "surjective", "2 1 0110", "2 1 0001"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith("True") and lines[1].endswith("False")

    def test_rule_surjective_file(self, tmp_path, capsys):
        path = tmp_path / "rules.txt"
        path.write_text("2 1 0110\n# comment\n2 0 01\n")
        assert main(["rule", "surjective", "--file", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_radius_five(self, capsys, tmp_path):
        # x0 xor x5: 2^5 de Bruijn words, past the old subset-construction cap
        text = "2 5 " + "".join(str((w >> 5) ^ (w & 1)) for w in range(64))
        assert main(["rule", "info", text]) == 0
        assert "surjective: True" in capsys.readouterr().out
        assert main(["rule", "surjective", text]) == 0
        assert capsys.readouterr().out == f"{text}\tTrue\n"
        path = tmp_path / "rules.txt"
        path.write_text(text + "\n")
        out_path = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--r", "5", "--check", "prefix_sums", "--rules-file", str(path),
             "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.read_text().splitlines()[1] == f"{text},2,5,True,"

    def test_rule_info_refuses_large_alphabet_before_output(self, capsys):
        # q = 36 passes the surjectivity cap, but 2^36 - 2 symbol sets do not
        assert main(["rule", "info", LocalRule.shift(36).format()]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "proper symbol sets exceeds" in captured.err

    def test_bad_rule_is_usage_error(self, capsys):
        assert main(["rule", "info", "2 1 01"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rule", "info", "2 10 " + "0" * 2048],
             "q^(2r) = 1048576 pair-graph vertices exceeds limit 262144"),
            (["rule", "surjective", "2 1 0110", "2 x 01"],
             "bad alphabet size or radius in '2 x 01'"),
            (["rule", "surjective", "2 1 0110", "2 10 " + "0" * 2048],
             "q^(2r) = 1048576 pair-graph vertices exceeds limit 262144"),
        ],
        ids=["info-pair-graph", "surjective-bad-second", "surjective-oversize-second"],
    )
    def test_refused_before_the_first_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["rule"])
        assert exc.value.code == 2


class TestCorrelate:
    def test_golden_values(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        code = main(
            [
                "correlate",
                ternary_example_descriptor(),
                "--A",
                "0",
                "--B",
                "{0,2}",
                "--m",
                "1",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(8, 10, 2, 1)" in out
        assert "C=17" in out.replace("order 1: ", "")
        rows = out_path.read_text().splitlines()
        assert rows[0].startswith("rule,")
        assert rows[-1].split(",")[5] == "17"
        assert "1/3" in rows[-1]


    @staticmethod
    def _correlate_digests(flags, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        argv = ["correlate", "2 2 01101001", "--A", "1", *flags, "--out", str(out_path)]
        start = time.perf_counter()
        assert main(argv) == 0
        elapsed = time.perf_counter() - start
        stdout = capsys.readouterr().out
        csv_digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        return csv_digest, hashlib.sha256(stdout.encode()).hexdigest(), elapsed

    def test_all_orders_pinned_and_quick(self, capsys, tmp_path):
        # one division serves every order up to m
        flags = ["--m", "60"]
        csv_digest, stdout_digest, elapsed = self._correlate_digests(flags, capsys, tmp_path)
        assert csv_digest == "5a82d42dd56b43f5dafce89cf35819fc9317ca4747f04e552705fd6f530b85ad"
        assert stdout_digest == "7a12fa681f6211f737dccef3013b5b73695869c1423d652f54519c918cedb672"
        assert elapsed < 1.0

    def test_float_overflow_written_as_inf(self, capsys, tmp_path):
        # orders 0..217 as pinned before order 218's normalized value
        # overflowed a float; from there the float column holds +-inf
        out_path = tmp_path / "c.csv"
        argv = ["correlate", "2 2 01101001", "--A", "1", "--m", "250", "--out", str(out_path)]
        assert main(argv) == 0
        rows = out_path.read_bytes().splitlines(keepends=True)
        stdout = capsys.readouterr().out.splitlines(keepends=True)
        assert len(rows) == 1 + 251 and len(stdout) == 1 + 251
        assert hashlib.sha256(b"".join(rows[:219])).hexdigest() == (
            "b2d7d4041231686eeb945a76f9106007517141c0d8049af2459f9f220cc6f6c9"
        )
        assert hashlib.sha256("".join(stdout[:219]).encode()).hexdigest() == (
            "3d64cc04a24a7375f275fcdd8ce279f18ae70f8eca616f4361cb6563a7486284"
        )
        assert b"inf" not in rows[218]
        tail = [row.split(b",") for row in rows[219:]]
        assert all(cols[-1] in (b"inf\n", b"-inf\n") for cols in tail)
        assert all((cols[-1] == b"inf\n") == (cols[-2][0:1] != b"-") for cols in tail)

    def test_high_orders_at_a_large_radius_pinned(self, capsys, tmp_path):
        # digests recorded with the exact cell division and the radius recursion
        flags = ["--m", "200", "--r-eff", "22"]
        csv_digest, stdout_digest, elapsed = self._correlate_digests(flags, capsys, tmp_path)
        assert csv_digest == "c31f5ca5d19ce249bacb5e2f19325db6d66c87829e5c18cc686c85a3001b5d82"
        assert stdout_digest == "e204a5dcdbe305944e2bf79afd71ef093e5a92bccaa5dd9e10f6a33f2aef237f"
        assert elapsed < 5.0


class TestSweep:
    def test_prefix_sums_small(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--q", "2", "--r", "1", "--check", "prefix_sums", "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 violations / 8 surjective rules" in out
        lines = out_path.read_text().splitlines()
        assert len(lines) == 1 + 8

    def test_one_domination_small(self, capsys):
        assert main(["sweep", "--q", "2", "--r", "1", "--check", "one_domination"]) == 0

    def test_averages(self, capsys):
        code = main(
            ["sweep", "--q", "3", "--r", "0", "--check", "averages", "--A", "0", "--B", "02"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "average=2/3" in out and "equal=True" in out

    def test_averages_empty_B_is_the_empty_set(self, capsys):
        argv = ["sweep", "--q", "2", "--r", "1", "--check", "averages", "--A", "1", "--B", ""]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("expected=0 equal=True") == 2

    def test_conservation_small(self, capsys):
        assert main(["sweep", "--q", "2", "--r", "1", "--check", "conservation"]) == 0

    # SHA-256 of (CSV bytes, stdout) for each check, recorded before the sweep
    # checks became a registry; any change to a header, row or summary line
    # shows up here
    SURJECTIVE_SUMMARY = "832c472878440dea9087c27cce14fa4d55f0b6472c02722bfdbc108e9313e24c"
    DIGESTS = {
        "one_domination": (
            ["--q", "2", "--r", "2"],
            "f0ce4ff0cf1e303d80a0e8538d6a522ddd5096be546aea457855e432e6b06de7",
            SURJECTIVE_SUMMARY,
        ),
        "high_domination": (
            ["--q", "2", "--r", "2"],
            "3c9bf9ee983a055e3bb9046cbf35b4c017a98393b1deadc4cd2cb5bef3450dcb",
            SURJECTIVE_SUMMARY,
        ),
        "prefix_sums": (
            ["--q", "2", "--r", "2"],
            "970deb04ec519458e5b17076042e50ab1ec703e33b676e3e2ea0bfdf52fdd412",
            SURJECTIVE_SUMMARY,
        ),
        "conservation": (
            ["--q", "2", "--r", "2"],
            "c826bdeec723175d1ad9298441ea6367c2308762ec75d7ba2cf980e5484eec03",
            SURJECTIVE_SUMMARY,
        ),
        "averages": (
            ["--q", "3", "--r", "0", "--A", "0", "--B", "02"],
            "ee8a68b24da982aee04df5dff538da9bd76804c36b099a2a9da96e3232fb3dae",
            "d7e39926e867f78f7e66a2ac18ee30ebfc18371757efca2c663f5a8fa2c9d9f7",
        ),
    }

    @pytest.mark.parametrize("check", sorted(DIGESTS))
    def test_output_digests(self, check, capsys, tmp_path):
        flags, csv_digest, stdout_digest = self.DIGESTS[check]
        out_path = tmp_path / "sweep.csv"
        code = main(["sweep", "--check", check, *flags, "--out", str(out_path)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_digest

    def test_ternary_conservation_digests(self, capsys, tmp_path):
        # recorded while every conserving pair still ran the full periodic
        # search to period 12, which took minutes
        out_path = tmp_path / "sweep.csv"
        argv = ["sweep", "--q", "3", "--r", "1", "--check", "conservation", "--out", str(out_path)]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "63569240b2a8e40eb0a09c03fc2d5d988a2bf123ae8007123acf6787ed1953dc"
        )
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "07cd2184f5317bb4e07a4cb1b7c025365f446a901688b26033b4c57dc1129b86"
        )

    # two spaces interleaved with a third: a sweep groups rules by (q, r)
    # but must write its rows in file order
    INTERLEAVED = ["2 1 0110", "3 0 120", "2 2 00011110", "2 1 0101", "3 0 210"]

    @staticmethod
    def expected_rows(check, rule):
        """The check's CSV rows for one rule, from the library's per-rule functions."""
        q, r = rule.q, rule.r
        if check == "prefix_sums":
            rep = check_prefix_sum_conjecture(rule)
            rows = [(rep.holds, rep.witness_n)]
        elif check == "one_domination":
            rows = []
            for A in proper_subsets(q):
                c1, ident = correlation(rule, A, A), identity_correlation(q, len(A), r)
                rows.append((A, A, c1, ident, ident - c1, c1 <= ident))
        elif check == "high_domination":
            reports = [(A, check_high_domination(rule, A)) for A in proper_subsets(q)]
            rows = [(A, rep.k0, rep.strict_at_k0, rep.m_star) for A, rep in reports]
        else:
            rows = []
            for A in proper_subsets(q):
                by_histogram = histogram_matches_identity(rule, A)
                witness = conserves_symbols(rule, A, 5).witness or ("", "")
                by_search = witness == ("", "")
                rows.append((A, by_histogram, by_search, by_histogram == by_search, *witness))

        def text(v):
            if isinstance(v, frozenset):
                return "".join(str(s) for s in sorted(v))
            return "" if v is None else str(v)

        return [[rule.format(), str(q), str(r), *map(text, row)] for row in rows]

    @pytest.mark.parametrize(
        "check", ["one_domination", "high_domination", "prefix_sums", "conservation"]
    )
    def test_interleaved_rules_file_rows_in_file_order(self, check, capsys, tmp_path):
        descriptors = [
            d for d in self.INTERLEAVED if check != "prefix_sums" or d.startswith("2 ")
        ]
        path = tmp_path / "rules.txt"
        path.write_text("\n".join(descriptors) + "\n")
        out_path = tmp_path / "sweep.csv"
        argv = ["sweep", "--check", check, "--r", "0", "--max-period", "5",
                "--rules-file", str(path), "--out", str(out_path)]
        assert main(argv) in (0, 1)
        with open(out_path, newline="") as fh:
            got = list(csv.reader(fh))[1:]
        want = [row for d in descriptors for row in self.expected_rows(check, parse_rule(d))]
        assert got == want
        assert f"{len(descriptors)} rules from file" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "check, per_rule",
        [("one_domination", 0), ("high_domination", 0), ("conservation", 0), ("prefix_sums", 1)],
    )
    def test_sweep_counts_each_space_as_one_array(self, check, per_rule, capsys, monkeypatch):
        module = cli.correlation
        calls = Counter()

        def spy(name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy("histogram")
        spy("check_high_domination")
        assert main(["sweep", "--q", "2", "--r", "2", "--check", check]) == 0
        assert "38 surjective rules" in capsys.readouterr().out  # 2 + 6 + 30
        assert calls["histogram"] == 38 * per_rule
        assert calls["check_high_domination"] == 0

    @pytest.mark.parametrize(
        "check, calls",
        [("one_domination", 6), ("high_domination", 6), ("conservation", 6), ("prefix_sums", 0)],
    )
    def test_enumerated_sweep_counts_one_array_per_radius_and_set(
        self, check, calls, capsys, monkeypatch
    ):
        original = cli.correlation.histograms
        spaces = []

        def counted(q, r, *args):
            spaces.append((q, r))
            return original(q, r, *args)

        monkeypatch.setattr(cli.correlation, "histograms", counted)
        assert main(["sweep", "--q", "2", "--r", "2", "--check", check]) == 0
        # each radius is one run of rules; q=2 has the two proper sets {0} and {1}
        assert spaces == [(2, r) for r in range(3) for _ in range(2)][:calls]

    @pytest.mark.parametrize("check", cli.SWEEP_CHECKS)
    def test_rows_have_one_field_per_column(self, check, capsys, tmp_path):
        # a record that gained a field would widen its rows past the header
        columns = cli.SWEEP_CHECKS[check][0]
        out_path = tmp_path / "sweep.csv"
        argv = ["sweep", "--q", "2", "--r", "1", "--check", check, "--out", str(out_path)]
        assert main(argv) == 0
        with open(out_path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["rule", "q", "r", *columns]
        assert rows and all(len(row) == 3 + len(columns) for row in rows)

    @pytest.mark.parametrize("check", cli.SWEEP_CHECKS)
    def test_empty_rules_file_refused_before_output(self, check, capsys, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("# only comments and blank lines\n\n  \n\t# note\n")
        out_path = tmp_path / "sweep.csv"
        argv = ["sweep", "--r", "0", "--check", check, "--rules-file", str(path),
                "--out", str(out_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no rules in --rules-file {path}\n"
        assert captured.out == ""
        assert not out_path.exists()
        # `rule surjective` refuses the same file in the same form
        assert main(["rule", "surjective", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no rules given\n"
        assert captured.out == ""

    def test_default_max_period_refuses_only_conservation(self, capsys):
        # 5^12 periodic configurations exceed the scan limit; no other check scans
        for check in ("one_domination", "high_domination"):
            assert main(["sweep", "--q", "5", "--r", "0", "--check", check]) == 0
            assert "0 violations / 120 surjective rules" in capsys.readouterr().out
        assert main(["sweep", "--q", "5", "--r", "0", "--check", "conservation"]) == 2
        assert "q^max_period = 5^12 exceeds limit" in capsys.readouterr().err


class TestMeasureCommands:
    def test_pushforward_trajectory(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        code = main(
            [
                "measure",
                "pushforward",
                "2 1 0110",
                "--measure",
                "bernoulli:1/4",
                "--word",
                "1",
                "--t-max",
                "2",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,word,value_numerator,value_denominator,value_float"
        assert lines[1] == "0,1,1,4,0.25"
        assert lines[2] == "1,1,3,8,0.375"
        assert lines[3] == "2,1,3,8,0.375"

    def test_contraction_holds(self, capsys):
        code = main(
            [
                "measure",
                "contraction",
                "2 1 0110",
                "--measure",
                "bernoulli:3/10",
                "--n",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2/25" in out and "1/5" in out and "holds: True" in out

    def test_contraction_violation_exits_1(self, capsys):
        # the AND rule concentrates uniform mass away from uniform
        code = main(
            ["measure", "contraction", "2 1 0001", "--measure", "uniform", "--n", "1"]
        )
        assert code == 1
        assert "holds: False" in capsys.readouterr().out

    # (exit code, SHA-256 of CSV bytes, of stdout), recorded while product
    # measures walked a transfer matrix depth first and others summed preimages
    CONTRACTION_DIGESTS = {
        "r2-n10": (
            ["2 2 01101001", "--measure", "bernoulli:1/3", "--n", "10"], 0,
            "26fb2fd99ff5f453b12c8d51b242c428ea0f2c6a20b8afe3eb9170dfcefb6850",
            "d20afa76111eb5edb3755a66ce2e036c3b9e0c07c5214df45539e6041dd95338",
        ),
        "q3-zero-weight": (
            ["3 1 012120201", "--measure", "product:1/5,0,4/5", "--n", "4"], 0,
            "d6cd6b07ecfbff156922d9907567ebedb3a2f44fd735e6a61a2b6a9a7d5e4243",
            "ac68284b1176cdfff835684d8706787fba8e117717271b9223509d276087b084",
        ),
        "violated": (
            ["2 1 0001", "--measure", "bernoulli:1/3", "--n", "5"], 1,
            "bd0ba27eba3e2e8d9ad454f22020c20f909879fac2764446ec9b91501d89d273",
            "7974c37c453d744d980cf67d86c3f635bb2312e6c659dcb171d533801873e353",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONTRACTION_DIGESTS))
    def test_contraction_digests(self, name, capsys, tmp_path):
        argv, code, csv_digest, stdout_digest = self.CONTRACTION_DIGESTS[name]
        out_path = tmp_path / "contraction.csv"
        assert main(["measure", "contraction", *argv, "--out", str(out_path)]) == code
        stdout = capsys.readouterr().out
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_digest

    def test_contraction_vector_refused_before_output(self, capsys, tmp_path):
        # 2^24 cylinder-vector cells: over the default of 2^23, under the old 2^26
        out_path = tmp_path / "out.csv"
        argv = ["measure", "contraction", "2 2 01101001", "--measure", "bernoulli:1/3",
                "--n", "22", "--out", str(out_path)]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert "preimage enumeration q^24 = 16777216 exceeds limit 8388608" in captured.err
        assert captured.out == ""
        assert not out_path.exists()

    # SHA-256 of (CSV bytes, stdout), recorded while cylinder
    # values were still sums of Fraction products over enumerated preimages
    DIGESTS = {
        "pushforward-r2-a": (
            ["pushforward", "2 2 01101001", "--measure", "bernoulli:1/3", "--word", "101",
             "--t-max", "6"],
            "8b68f7e1966f9e608adeb4dfe98bf0e4df68630b7f8e9091f07e21dbc4a0d7db",
            "97da4a1638df85fbf88284e28c53b0d9b5516bbb8340399022ea28d0d3f3f809",
        ),
        "pushforward-r2-b": (
            ["pushforward", "2 2 10110100", "--measure", "bernoulli:2/7", "--word", "0110",
             "--t-max", "6"],
            "b63c9928a622f0dfc926a188fde82568495ec6103ef904113e45449320315779",
            "0e7e68d97643ee3ce51e0071586f725a7d2249063919e1f878b1ff8ff82456a6",
        ),
        "pushforward-q3": (
            ["pushforward", ternary_example_descriptor(), "--measure", "product:1/2,1/3,1/6",
             "--word", "021", "--t-max", "3"],
            "caf4ca92b5133f5f41de46b80b31c09b2992a47e0aeb3bbc794331f29f13ec58",
            "a17e30c01b752003124cdc272ef3e8e5c9b4474f564ec58c129db17fc27fdfa2",
        ),
        "pushforward-dirac": (
            ["pushforward", "2 2 10010110", "--measure", "dirac:0", "--word", "11",
             "--t-max", "4"],
            "2cd6212a15b6379a45db2d17c5dc78cdeeaf2ea4f299801dbc44926320bbc196",
            "715dfc37fb6201ec389e807d65978bfd63b7c43264b5d389851925db536ea45a",
        ),
        "contraction-n6": (
            ["contraction", "2 2 01101001", "--measure", "bernoulli:1/3", "--n", "6"],
            "8384231c56336af53be8a951f07211f8e02fb60ac8c89776768a0838347bb5c6",
            "b02c1e46d15351c54a2d0233647d7ab91d9b3e2146943ced3b8f8b97ff754d72",
        ),
        "contraction-n8": (
            ["contraction", "2 2 00011110", "--measure", "bernoulli:2/5", "--n", "8"],
            "b8d06c92237d292c0991ee3c3abdbf893ed92b29a4ed80522620dedad1e417ea",
            "1e473a9e9a8c8269d908edabd2fbf9d526fcd4158ba390e897a9b8833edeeff7",
        ),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_output_digests(self, name, capsys, tmp_path):
        argv, csv_digest, stdout_digest = self.DIGESTS[name]
        out_path = tmp_path / "measure.csv"
        assert main(["measure", *argv, "--out", str(out_path)]) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_digest

    def test_ten_step_pushforward(self, capsys):
        # a radius-20 composed rule: 2^21 table cells, 2^23 preimages of 101
        code = main(
            ["measure", "pushforward", "2 2 01101001", "--measure", "bernoulli:1/3",
             "--word", "101", "--t", "10"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "t=10: measure([101]) = 48491534/387420489 ~ 0.125165\n"
        )

    def test_guard_limit_is_usage_error(self, capsys):
        code = main(
            [
                "measure",
                "pushforward",
                "2 1 0110",
                "--measure",
                "uniform",
                "--word",
                "0" * 30,
                "--limit",
                "1024",
            ]
        )
        assert code == 2
        assert "exceeds" in capsys.readouterr().err


class TestConstructionCommands:
    def test_fn_check_invalid(self, capsys):
        assert main(["fn", "check", "--n", "2", "--p", "1/5"]) == 1
        assert "valid: False" in capsys.readouterr().out

    def test_fn_check_vacuous(self, capsys):
        assert main(["fn", "check", "--n", "1", "--p", "1/50"]) == 0
        out = capsys.readouterr().out
        assert "valid: True" in out and "vacuous: True" in out

    def test_fn_check_oversize_table_exits_2(self, capsys):
        # the count table would need 31.7M cells; refused before it is built
        assert main(["fn", "check", "--n", "2", "--p", "1/100"]) == 2
        assert "cells" in capsys.readouterr().err
        params = interval_swap.SwapParams(2, Fraction(1, 100))
        cap = interval_swap.weight_bounds(params.max_free_length, params.p)[1]
        assert (params.marker, cap) not in interval_swap._ENGINES

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_fn_check_canonical_peak_rss(self):
        # the canonical count table: 375 MB peak RSS with a row per automaton
        # state and length, about 111 MB with one row per length.  The peak is
        # VmHWM, the high-water mark of the fresh interpreter's own memory:
        # Linux starts ru_maxrss of an exec'd child at the RSS of the process
        # that spawned it, here the pytest process.
        script = (
            "from cafreq.cli import main\n"
            "assert main(['fn', 'check', '--n', '2', '--p', '1/50']) == 0\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
        )
        src = str(Path(cafreq.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True
        )
        assert "valid: True" in done.stdout
        peak_kb = int(done.stdout.split()[-1])
        assert peak_kb < 200 * 1024

    def test_fn_apply_small(self, capsys, tmp_path):
        out_path = tmp_path / "fn.csv"
        code = main(
            [
                "fn",
                "apply",
                "--n",
                "2",
                "--p",
                "1/50",
                "--windows",
                "3",
                "--window-length",
                "1100",
                "--seed",
                "4",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("index,occurrences")

    # SHA-256 of the CSV, recorded while rank and unrank still stepped one
    # bit at a time
    FN_APPLY_DIGESTS = {
        "canonical": (
            ["--n", "2", "--p", "1/50", "--windows", "20", "--seed", "4"],
            "99e90d1a4249c36a70797b2894ab55d5e8650d7863a7b89c06b898adca136222",
        ),
        "p36-short-windows": (
            ["--n", "2", "--p", "1/36", "--window-length", "4000", "--windows", "6",
             "--seed", "3"],
            "9ea375101e8494dbc9b51a89ad3b5115a9537ea92f8dac6472b3852f09277f50",
        ),
    }

    @pytest.mark.parametrize("name", sorted(FN_APPLY_DIGESTS))
    def test_fn_apply_digests(self, name, capsys, tmp_path):
        argv, digest = self.FN_APPLY_DIGESTS[name]
        out_path = tmp_path / "fn.csv"
        assert main(["fn", "apply", *argv, "--jobs", "1", "--out", str(out_path)]) == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_sweep_rules_file(self, capsys, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("2 1 0110\n2 1 0101\n")
        code = main(
            ["sweep", "--q", "2", "--r", "1", "--check", "prefix_sums",
             "--rules-file", str(path)]
        )
        assert code == 0
        assert "2 rules from file" in capsys.readouterr().out

    def test_sweep_rules_file_indented_comment(self, capsys, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("  # two XOR-like rules\n2 1 0110\n\t# note\n2 1 0101\n")
        code = main(
            ["sweep", "--q", "2", "--r", "1", "--check", "prefix_sums",
             "--rules-file", str(path)]
        )
        assert code == 0
        assert "2 rules from file" in capsys.readouterr().out

    def test_jobs_env_var_default(self, monkeypatch):
        monkeypatch.setenv("CAFREQ_JOBS", "3")
        args = build_parser().parse_args(
            ["xor-limit", "--levels", "2", "--samples", "1"]
        )
        assert args.jobs == 3

    def test_domination_violation_exits_1(self, capsys, tmp_path):
        # a rules file with a non-surjective rule makes the domination sweep
        # report a violation and flip the exit code
        path = tmp_path / "rules.txt"
        path.write_text("2 1 1111\n")
        code = main(
            ["sweep", "--q", "2", "--r", "1", "--check", "one_domination",
             "--rules-file", str(path)]
        )
        assert code == 1
        assert "1 violations" in capsys.readouterr().out

    def test_xor_limit_small(self, capsys, tmp_path):
        out_path = tmp_path / "xl.csv"
        code = main(
            [
                "xor-limit",
                "--levels",
                "3",
                "--alpha",
                "1",
                "--samples",
                "200",
                "--seed",
                "6",
                "--n-values",
                "1,2",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "n,t,alpha,samples,estimate,stderr,seed"
        assert len(lines) == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["correlate", "2 1 0110", "--A", "1", "--r-eff", "40"], "q^(r_eff+1) = 2^41"),
        (
            ["sweep", "--q", "2", "--r", "1", "--check", "conservation", "--max-period", "40"],
            "q^max_period = 2^40",
        ),
        (["correlate", "2 1 0110", "--A", "1", "--m", "513"],
         "correlation order 513 exceeds limit 512"),
        (["xor-limit", "--levels", "7", "--samples", "2", "--n-values", "1"], "7 levels"),
        (["xor-limit", "--levels", "2", "--samples", "2", "--word", "0000000",
          "--n-values", "0,1"], "word of length 7 exceeds sampler capacity 6"),
    ],
    ids=["correlate", "conservation", "correlate-m", "xor-limit", "xor-limit-capacity"],
)
def test_unbounded_scan_refused_before_output(argv, message, capsys, tmp_path):
    out_path = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("steps", [["--t", "12"], ["--t-max", "12"]], ids=["t", "t-max"])
def test_composed_table_refused_before_output(steps, capsys, tmp_path):
    # radius 24: 2^25 composed-table cells, though only 2^25 preimages of 1
    out_path = tmp_path / "out.csv"
    argv = ["measure", "pushforward", "2 2 01101001", "--measure", "bernoulli:1/3",
            "--word", "1", *steps, "--out", str(out_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "composed rule table of 2^25 cells exceeds limit 8388608" in captured.err
    assert captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("n_value", ["40", "4", "-1"])
def test_xor_limit_level_out_of_range_refused_before_output(n_value, capsys, tmp_path):
    out_path = tmp_path / "out.csv"
    argv = ["xor-limit", "--levels", "4", "--samples", "2", "--n-values", n_value]
    assert main([*argv, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert f"--n-values entry {n_value} is outside 0..3 for --levels 4" in captured.err
    assert captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("word", ["12", "", "1a0"], ids=["digit", "empty", "letter"])
def test_xor_limit_bad_word_refused_before_output(word, capsys, tmp_path):
    out_path = tmp_path / "out.csv"
    argv = ["xor-limit", "--levels", "3", "--samples", "2", "--word", word]
    assert main([*argv, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert f"--word must be a nonempty binary word, got {word!r}" in captured.err
    assert captured.out == ""
    assert not out_path.exists()


# CSV digests recorded with the scalar block sampler, one next64 call per
# draw; the chunked sampler must consume the same draws in the same order
XOR_LIMIT_DIGESTS = {
    "levels5": (
        ["--levels", "5", "--alpha", "1/2", "--samples", "150", "--seed", "7"],
        "63959a03a68c34e04dc44702e60b04ebfc84d4e2c0c951870beccc0410286c0b",
    ),
    "alpha-beyond-64-bits": (
        ["--levels", "4", "--alpha", "1/18446744073709551617", "--samples", "50",
         "--seed", "3", "--n-values", "1,3", "--word", "10"],
        "477a1d695392b940e3dfb8f290055549ddf8300f9e876fd7d605121a417ff080",
    ),
    "levels6": (
        ["--levels", "6", "--alpha", "1/3", "--samples", "4", "--seed", "11",
         "--n-values", "5"],
        "e619915ac058989f2cb9793007a4e560cf493fdde196061e1375dff1162b544c",
    ),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(XOR_LIMIT_DIGESTS))
def test_xor_limit_stream_is_pinned(name, jobs, capsys, tmp_path):
    argv, digest = XOR_LIMIT_DIGESTS[name]
    out_path = tmp_path / "xl.csv"
    assert main(["xor-limit", *argv, "--jobs", jobs, "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_xor_limit_alpha_beyond_64_bits(capsys):
    # alpha's denominator 2^64 + 1 needs two 64-bit draws per uniform index
    argv = ["xor-limit", "--levels", "3", "--alpha", "1/18446744073709551617",
            "--samples", "2", "--n-values", "1"]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 1.0
    assert "n=1 (t=2)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value, message",
    [("--windows", "-2", "window count -2 is negative"),
     ("--window-length", "-5", "window length -5 is negative")],
    ids=["windows", "window-length"],
)
def test_fn_apply_negative_size_refused_before_output(flag, value, message, capsys, tmp_path):
    out_path = tmp_path / "out.csv"
    argv = ["fn", "apply", "--n", "2", "--p", "1/36", flag, value, "--jobs", "1"]
    assert main([*argv, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out_path.exists()


def test_fn_apply_runs_on_vacuous_parameters(capsys):
    # valid but vacuous: no medium free-part length, so nothing is rewritten
    argv = ["fn", "apply", "--n", "1", "--p", "1/50", "--windows", "2", "--jobs", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "2 windows, 0 rewrites, 0 failures (seed=0, length=177)\n"


def test_fn_apply_reports_the_window_length_used(capsys):
    argv = ["fn", "apply", "--n", "2", "--p", "1/36", "--windows", "2", "--jobs", "1"]
    assert main([*argv, "--window-length", "0"]) == 0
    assert capsys.readouterr().out.endswith("(seed=0, length=0)\n")
    assert main([*argv, "--window-length", "500"]) == 0
    assert capsys.readouterr().out.endswith("(seed=0, length=500)\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--r", "-1", "--check", "one_domination"], "--r must be at least 0, got -1"),
        (["--r", "1", "--check", "conservation", "--max-period", "0"],
         "--max-period must be at least 1, got 0"),
        (["--r", "1", "--check", "conservation", "--max-period", "-3"],
         "--max-period must be at least 1, got -3"),
        (["--r", "1", "--check", "high_domination", "--m-max", "-1"],
         "--m-max must be at least 0, got -1"),
        # averages cover every rule of every radius; the file would go unread
        (["--r", "1", "--check", "averages", "--rules-file", "rules.txt"],
         "--check averages averages over every rule and reads no --rules-file"),
    ],
    ids=["r", "max-period-0", "max-period-negative", "m-max", "averages-rules-file"],
)
def test_sweep_vacuous_arguments_refused_before_output(argv, message, capsys, tmp_path):
    out_path = tmp_path / "out.csv"
    assert main(["sweep", "--q", "2", *argv, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["correlate", "2 1 0110", "--A", "1", "--m", "-1"], "--m must be at least 0, got -1"),
        (["measure", "pushforward", "2 1 0110", "--measure", "uniform", "--word", "1",
          "--t-max", "-1"], "--t-max must be at least 0, got -1"),
        # a trajectory 0..t_max would leave --t unread
        (["measure", "pushforward", "2 1 0110", "--measure", "uniform", "--word", "1",
          "--t", "10", "--t-max", "2"], "--t and --t-max cannot be combined"),
        (["xor-limit", "--levels", "1", "--samples", "2"],
         "no n-values to estimate: the default 1..0 is empty for --levels 1"),
    ],
    ids=["correlate-m", "pushforward-t-max", "pushforward-t-and-t-max", "xor-limit-levels-1"],
)
def test_vacuous_arguments_refused_before_output(argv, message, capsys, tmp_path):
    out_path = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize(
    "descriptor", ["bernoulli:1/0", "product:1/0,1", "subset:1:1/0", "dirac:", "dirac:01"]
)
@pytest.mark.parametrize(
    "command",
    [["pushforward", "--word", "1"], ["contraction", "--n", "2"]],
    ids=["pushforward", "contraction"],
)
def test_bad_measure_descriptor_is_usage_error(descriptor, command, capsys, tmp_path):
    out_path = tmp_path / "out.csv"
    argv = ["measure", command[0], "2 1 0110", "--measure", descriptor, *command[1:]]
    assert main([*argv, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--word", "", "--t-max", "2"], "pushforward needs a nonempty word"),
        (["--word", "01", "--t-max", "3", "--limit", "8"],
         "preimage enumeration q^5 = 32 exceeds limit 8"),
        # a later --measure replaces the base's uniform measure
        (["--measure", "product:1/3,1/3,1/3", "--word", "2", "--t-max", "1"],
         "measure and rule alphabets differ"),
        (["--measure", "product:1/3,1/3,1/3", "--word", "2", "--t", "0"],
         "measure and rule alphabets differ"),
        (["--measure", "bernoulli:1/3", "--word", "", "--t", "0"],
         "pushforward needs a nonempty word"),
        (["--word", "012", "--t", "0"], "symbol '2' out of range for alphabet size 2"),
    ],
    ids=["empty-word", "preimages", "alphabets-t-max", "alphabets-t0", "empty-word-t0",
         "symbol-t0"],
)
def test_pushforward_trajectory_refused_before_output(argv, message, capsys, tmp_path):
    out_path = tmp_path / "out.csv"
    base = ["measure", "pushforward", "2 1 0110", "--measure", "uniform"]
    assert main([*base, *argv, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--q", "2", "--r", "5", "--limit", str(1 << 70)],
         "q^(q^(r+1)) = 18446744073709551616 has 2^63 or more tables"),
        (["--q", "2", "--r", "5"], "q^(q^(r+1)) = 4294967296 exceeds limit 67108864"),
        (["--q", "1", "--r", "0"], "alphabet size must be in [2, 36]"),
        (["--q", "0", "--r", "1"], "alphabet size must be in [2, 36]"),
        (["--q", "37", "--r", "0"], "exceeds limit 67108864"),
        (["--q", "2", "--r", "14", "--check", "averages"],
         "q^(q^(r+1)) = 4294967296 exceeds limit 67108864"),
        (["--q", "2", "--r", "2", "--check", "high_domination", "--m-max", "100000"],
         "correlation order 100000 exceeds limit 512"),
        (["--q", "2", "--r", "3", "--check", "conservation", "--max-period", "25"],
         "q^max_period = 2^25 exceeds limit 16777216"),
        (["--q", "3", "--r", "1", "--check", "prefix_sums"],
         "prefix-sum check is defined for binary rules"),
    ],
    ids=["index-space", "limit", "q1", "q0", "q37", "averages", "m-max", "max-period",
         "prefix-sums-q3"],
)
def test_sweep_rule_space_refused_before_enumeration(argv, message, capsys, tmp_path, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("a rule space was enumerated before the refusal")

    monkeypatch.setattr(cafreq.rules, "map_ranges", no_enumeration)
    if "--check" not in argv:
        argv = [*argv, "--check", "one_domination"]
    out_path = tmp_path / "out.csv"
    assert main(["sweep", *argv, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out_path.exists()


SPAWN_SCRIPT = """
import multiprocessing
import sys
import time

from cafreq.cli import main

RUNS = {
    "sweep": ["sweep", "--q", "2", "--r", "3", "--check", "prefix_sums"],
    "fn": ["fn", "apply", "--n", "2", "--p", "1/36", "--windows", "6",
           "--window-length", "4000", "--seed", "3"],
}

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    for name, argv in RUNS.items():
        for jobs in ("1", "2"):
            out = f"{sys.argv[1]}/{name}-{jobs}.csv"
            assert main([*argv, "--jobs", jobs, "--out", out]) == 0
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for a pool")
def test_spawned_workers_match_serial_run(tmp_path):
    script = tmp_path / "spawn_runs.py"
    script.write_text(SPAWN_SCRIPT)
    src = str(Path(cafreq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run(
        [sys.executable, str(script), str(tmp_path)], env=env, check=True, capture_output=True
    )
    for name in ("sweep", "fn"):
        serial = (tmp_path / f"{name}-1.csv").read_bytes()
        assert serial.count(b"\n") > 1
        assert (tmp_path / f"{name}-2.csv").read_bytes() == serial


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rule", "info", "2 1000000000 01"],
         "table must have q^(r+1) = 2^1000000001 entries, got 2"),
        (["sweep", "--q", "3000", "--r", "0", "--check", "one_domination"],
         "rule space of size q^(q^(r+1)) = 3000^3000 exceeds limit 67108864"),
        (["sweep", "--q", "1000", "--r", "0", "--check", "one_domination"],
         "rule space of size q^(q^(r+1)) = 1000^1000 exceeds limit 67108864"),
        (["measure", "pushforward", "2 1 0110", "--measure", "uniform", "--word", "0" * 20000],
         "preimage enumeration q^20001 = 2^20001 exceeds limit 67108864"),
        (["measure", "contraction", "2 1 0110", "--measure", "uniform", "--n", "20000"],
         "preimage enumeration q^20001 = 2^20001 exceeds limit 67108864"),
        # (cap + 1)(length + 1) cells: cap + 1 columns of every length
        (["fn", "check", "--n", "5000", "--p", "1/2"],
         "swap count table of 2^20026+ cells exceeds limit 1677721"),
        (["fn", "apply", "--n", "5000", "--p", "1/2", "--windows", "1"],
         "swap count table of 2^20026+ cells exceeds limit 1677721"),
    ],
    ids=["rule-info", "sweep-q3000", "sweep-q1000", "pushforward", "contraction",
         "fn-check", "fn-apply"],
)
def test_oversize_refused_at_once_with_a_bounded_message(argv, message, capsys, tmp_path):
    # each size is thousands of digits long: the refusal names it as a power
    out_path = tmp_path / "out.csv"
    if argv[0] != "rule" and argv[:2] != ["fn", "check"]:
        argv = [*argv, "--out", str(out_path)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert message in captured.err
    assert "integer string conversion" not in captured.err
    assert len(captured.err) < 200
    assert captured.out == ""
    assert not out_path.exists()


# every command the parser dispatches to, as its words
LEAVES = ["rule info", "rule surjective", "correlate", "sweep", "measure pushforward",
          "measure contraction", "fn check", "fn apply", "xor-limit"]


def exit_output(parser, argv, capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a parse that exits (help or refusal)."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParserPerCommand:
    """build_parser(argv) adds arguments only to the command argv names."""

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_help_at_every_level_matches_the_whole_parser(self, leaf, capsys):
        words = leaf.split()
        lazy = build_parser([*words, "--out", "x.csv"])
        for level in range(len(words) + 1):
            argv = [*words[:level], "-h"]
            whole = exit_output(build_parser(), argv, capsys)
            assert whole[0] == 0 and whole[1].startswith("usage: cafreq")
            assert exit_output(lazy, argv, capsys) == whole, argv

    def test_other_commands_get_no_arguments(self, capsys):
        lazy = build_parser(["sweep", "--r", "1"])
        code, _, err = exit_output(lazy, ["correlate", "2 1 0110", "--A", "1"], capsys)
        assert code == 2 and "unrecognized arguments" in err

    def test_readme_lines_parse_to_equal_namespaces(self):
        examples = test_readme.cli_examples()
        assert len(examples) == 10
        for argv in examples:
            assert build_parser(argv).parse_args(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "argv", [["bogus"], ["measure"], ["measure", "bogus"], ["sweep", "--bogus"]]
    )
    def test_refusals_match_the_whole_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert (exc.value.code, "", err) == exit_output(build_parser(), argv, capsys)
        assert exc.value.code == 2 and err.startswith("usage: cafreq")

    def test_main_builds_the_parser_for_its_argv(self, monkeypatch):
        seen = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda argv=None: seen.append(argv) or build(argv))
        argv = ["fn", "check", "--n", "1", "--p", "1/50"]
        monkeypatch.setattr(sys, "argv", ["cafreq", *argv])
        assert main() == 0 and main(argv) == 0
        assert seen == [argv, argv]

    def test_module_run_reads_sys_argv(self):
        src = str(Path(cafreq.__file__).resolve().parent.parent)
        argv = ["measure", "pushforward", "2 1 0110", "--measure", "bernoulli:1/4",
                "--word", "1", "--t", "1"]
        done = subprocess.run(
            [sys.executable, "-m", "cafreq.cli", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout, done.stderr) == (
            0, "t=1: measure([1]) = 3/8 ~ 0.375\n", ""
        )

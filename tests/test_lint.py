"""Tests for the ``repro lint`` engine, rules, and reporters.

The fixture corpus in ``tests/lint_fixtures/`` holds one seeded-violation
file plus one clean twin per rule (``<rule>_bad.py`` / ``<rule>_clean.py``;
underscores in file names, dashes in rule names). Fixtures live outside
the ``repro`` package, so rule tests pass ``respect_scopes=False``.
"""

import json
import pathlib

import pytest

from repro.errors import LintError
from repro.lint import (
    Finding,
    LintReport,
    lint_file,
    lint_paths,
    parse_diff_lines,
    resolve_rules,
    rule_descriptions,
    rule_names,
)
from repro.lint.engine import BAD_SUPPRESSION

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: rule name -> expected number of findings in its ``_bad.py`` fixture.
EXPECTED_BAD_FINDINGS = {
    "unseeded-random": 5,
    "wallclock": 6,
    "unsorted-set-iteration": 4,
    "id-ordering": 2,
    "reset-contract": 2,
    "slots-hot-class": 2,
    "json-symmetry": 2,
    "mutable-default": 4,
    "module-mutable-state": 3,
    "unpicklable-worker-payload": 2,
    "swallowed-exception": 3,
}


def _fixture(rule: str, kind: str) -> str:
    return str(FIXTURES / f"{rule.replace('-', '_')}_{kind}.py")


def _run_rule(rule: str, kind: str):
    findings, parse_error = lint_file(
        _fixture(rule, kind), resolve_rules([rule]), respect_scopes=False
    )
    assert parse_error is None
    return findings


# -- per-rule fixture corpus --------------------------------------------------

class TestRuleFixtures:
    @pytest.mark.parametrize("rule", sorted(EXPECTED_BAD_FINDINGS))
    def test_bad_fixture_fires(self, rule):
        findings = _run_rule(rule, "bad")
        assert len(findings) == EXPECTED_BAD_FINDINGS[rule]
        assert {f.rule for f in findings} == {rule}
        assert not any(f.suppressed for f in findings)
        for f in findings:
            assert f.line > 0 and f.col > 0 and f.message

    @pytest.mark.parametrize("rule", sorted(EXPECTED_BAD_FINDINGS))
    def test_clean_twin_is_silent(self, rule):
        assert _run_rule(rule, "clean") == []

    def test_every_registered_rule_has_a_fixture_pair(self):
        registered = set(rule_names()) - {BAD_SUPPRESSION}
        assert registered == set(EXPECTED_BAD_FINDINGS)
        for rule in registered:
            assert pathlib.Path(_fixture(rule, "bad")).is_file()
            assert pathlib.Path(_fixture(rule, "clean")).is_file()

    def test_rule_descriptions_cover_all_names(self):
        descriptions = rule_descriptions()
        assert set(descriptions) | {BAD_SUPPRESSION} == set(rule_names())
        assert all(descriptions.values())

    def test_resolve_rules_rejects_unknown_names(self):
        with pytest.raises(LintError, match="unknown lint rule"):
            resolve_rules(["no-such-rule"])


# -- suppressions -------------------------------------------------------------

class TestSuppressions:
    def test_justified_suppression_marks_but_keeps_finding(self):
        findings, _ = lint_file(
            str(FIXTURES / "suppression_ok.py"),
            resolve_rules(["id-ordering"]),
            respect_scopes=False,
        )
        # Three id() calls: one suppressed same-line, two by the line above.
        assert len(findings) == 3
        assert all(f.suppressed for f in findings)
        assert all(f.justification for f in findings)

    def test_suppressed_findings_do_not_fail_the_gate(self):
        report = lint_paths(
            [str(FIXTURES / "suppression_ok.py")],
            rules=["id-ordering"],
            respect_scopes=False,
        )
        assert report.active == []
        assert report.exit_code == 0
        assert len(report.findings) == 3

    def test_missing_justification_is_reported_and_inert(self):
        findings, _ = lint_file(
            str(FIXTURES / "suppression_missing_justification.py"),
            resolve_rules(["id-ordering"]),
            respect_scopes=False,
        )
        by_rule = {f.rule for f in findings}
        assert by_rule == {"id-ordering", BAD_SUPPRESSION}
        id_finding = next(f for f in findings if f.rule == "id-ordering")
        assert not id_finding.suppressed  # the bad comment suppressed nothing
        bad = next(f for f in findings if f.rule == BAD_SUPPRESSION)
        assert "justification" in bad.message

    def test_unknown_rule_in_suppression_is_reported(self):
        findings, _ = lint_file(
            str(FIXTURES / "suppression_unknown_rule.py"),
            resolve_rules(None),
            respect_scopes=False,
        )
        assert [f.rule for f in findings] == [BAD_SUPPRESSION]
        assert "no-such-rule" in findings[0].message


# -- reporters ----------------------------------------------------------------

class TestReport:
    def _corpus_report(self):
        return lint_paths([str(FIXTURES)], respect_scopes=False)

    def test_json_round_trip_is_lossless(self):
        report = self._corpus_report()
        assert report.findings  # the corpus is intentionally dirty
        restored = LintReport.from_json(report.to_json(indent=2))
        assert restored == report

    def test_json_summary_keys_are_derived(self):
        report = self._corpus_report()
        data = json.loads(report.to_json())
        assert data["clean"] is False
        assert data["summary"]["active"] == len(report.active)
        assert data["summary"]["suppressed"] == 3
        total_by_rule = sum(data["summary"]["by_rule"].values())
        assert total_by_rule == len(report.active)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(LintError, match="unknown LintReport fields"):
            LintReport.from_dict({"findings": [], "bogus": 1})
        with pytest.raises(LintError, match="unknown Finding fields"):
            Finding.from_dict({
                "rule": "x", "path": "p", "line": 1, "col": 1,
                "message": "m", "bogus": True,
            })

    def test_exit_code_and_text_format(self):
        report = self._corpus_report()
        assert report.exit_code == 1
        text = report.format_text()
        assert "finding(s)" in text.splitlines()[-1]
        assert "(suppressed)" not in text  # hidden unless show_suppressed
        shown = report.format_text(show_suppressed=True)
        assert "(suppressed)" in shown

    def test_parse_error_fails_the_gate(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        report = lint_paths([str(broken)])
        assert report.findings == []
        assert len(report.parse_errors) == 1
        assert report.parse_errors[0].rule == "parse-error"
        assert report.exit_code == 1

    def test_collect_rejects_missing_paths(self):
        with pytest.raises(LintError, match="no such file"):
            lint_paths(["definitely/not/a/path"])


# -- --diff mode --------------------------------------------------------------

DIFF_TEXT = """\
diff --git a/pkg/mod.py b/pkg/mod.py
--- a/pkg/mod.py
+++ b/pkg/mod.py
@@ -4,0 +5,2 @@ def f():
+    x = 1
+    y = 2
@@ -20 +22 @@ def g():
+    z = 3
diff --git a/pkg/gone.py b/pkg/gone.py
--- a/pkg/gone.py
+++ /dev/null
@@ -1,3 +0,0 @@
-removed
"""


class TestDiffMode:
    def test_parse_diff_lines(self):
        lines = parse_diff_lines(DIFF_TEXT)
        assert lines == {"pkg/mod.py": {5, 6, 22}}

    def test_restrict_to_lines_keeps_only_changed(self):
        report = lint_paths(
            [_fixture("mutable-default", "bad")],
            rules=["mutable-default"],
            respect_scopes=False,
        )
        assert len(report.findings) == 4
        path = report.findings[0].path
        keep = {report.findings[0].line}
        narrowed = report.restrict_to_lines({path: keep})
        assert [f.line for f in narrowed.findings] == [report.findings[0].line]
        assert narrowed.files_checked == report.files_checked
        assert narrowed.rules_run == report.rules_run

    def test_restrict_to_lines_keeps_parse_errors(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        report = lint_paths([str(broken)])
        narrowed = report.restrict_to_lines({})
        assert len(narrowed.parse_errors) == 1
        assert narrowed.exit_code == 1


# -- the CLI ------------------------------------------------------------------

class TestLintCli:
    def test_clean_tree_prints_clean_and_exits_zero(self, capsys):
        from repro.cli import main

        main(["lint", str(SRC)])  # returning without SystemExit == exit 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_and_out_matches_stdout(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "lint_report.json"
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(FIXTURES), "--json", "--out", str(out_path)])
        assert exc.value.code == 1
        written = LintReport.from_json(out_path.read_text())
        printed = LintReport.from_json(capsys.readouterr().out)
        assert printed == written
        assert written.exit_code == 1

    def test_list_rules_mentions_every_rule(self, capsys):
        from repro.cli import main

        main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        for name in rule_names():
            assert name in out

    def test_rules_accept_commas_and_repeats(self, capsys):
        from repro.cli import main

        main(["lint", "--rules", "wallclock,id-ordering",
              "--rules", "mutable-default", str(SRC / "repro" / "sim")])
        assert "3 rule(s): clean" in capsys.readouterr().out

    def test_diff_mode_runs_against_git(self, capsys):
        from repro.cli import main

        main(["lint", "--diff", "HEAD", str(SRC)])
        assert "clean" in capsys.readouterr().out


# -- the wallclock scoped exemption -------------------------------------------

CLOCKY_SOURCE = "import time\n\ndef stamp():\n    return time.time()\n"
ENTROPY_SOURCE = "import os\n\ndef token():\n    return os.urandom(8)\n"


class TestWallClockScopedExemption:
    """repro.store/obs/net may read clocks; entropy stays banned.

    The same source is linted from two package locations — only the
    module path decides, so the rule's scope list is what's under test.
    """

    def _lint_as(self, tmp_path, package, source):
        mod = tmp_path / "repro" / package / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(source)
        return lint_paths([str(mod)], rules=["wallclock"])

    @pytest.mark.parametrize("package", ["sim", "mediator"])
    def test_sim_path_clock_reads_still_flag(self, tmp_path, package):
        report = self._lint_as(tmp_path, package, CLOCKY_SOURCE)
        assert len(report.active) == 1
        assert "simulation path" in report.active[0].message

    @pytest.mark.parametrize("package", ["store", "obs", "net"])
    def test_service_layer_clock_reads_are_exempt(self, tmp_path, package):
        report = self._lint_as(tmp_path, package, CLOCKY_SOURCE)
        assert report.active == []

    @pytest.mark.parametrize("package", ["store", "obs", "net"])
    def test_service_layer_entropy_still_flags(self, tmp_path, package):
        report = self._lint_as(tmp_path, package, ENTROPY_SOURCE)
        assert len(report.active) == 1
        assert f"repro.{package}" in report.active[0].message

    def test_outside_scanned_packages_is_silent(self, tmp_path):
        report = self._lint_as(tmp_path, "experiments", CLOCKY_SOURCE)
        assert report.active == []


# -- the repo gate ------------------------------------------------------------

class TestRepoIsClean:
    def test_src_tree_is_lint_clean_at_head(self):
        report = lint_paths([str(SRC)])
        assert report.files_checked > 50
        assert report.active == [], "\n" + report.format_text()


# -- regression for a fix the linter forced -----------------------------------

class TestTypeSpaceRoundTrip:
    def test_to_dict_feeds_from_dict(self):
        from repro.games.bayesian import TypeSpace

        ts = TypeSpace.from_dict(2, {("H", "L"): 0.25, ("L", "H"): 0.75})
        again = TypeSpace.from_dict(ts.n, ts.to_dict())
        assert again == ts

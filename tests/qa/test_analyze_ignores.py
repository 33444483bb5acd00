"""Tests for the shared ``# qa: ignore[...]`` comment parsing.

This is the one suppression syntax used by both the per-file syntactic
rules and the semantic ones; the comma-separated list form and the
rule-aware handling of line-1 comments (QA103) regressed before, so
both are pinned here.
"""

from repro.qa.analyze import analyze_paths
from repro.qa.analyze.ignores import is_suppressed, suppressed_rules
from repro.qa.analyze.rules_syntax import SYNTAX_RULE_IDS


class TestSuppressedRules:
    def test_no_comment_means_no_suppression(self):
        assert suppressed_rules("x = np.interp(a, b, c)") is None

    def test_unrelated_comment_means_no_suppression(self):
        assert suppressed_rules("x = 1  # tuned by hand") is None

    def test_blanket_ignore_is_empty_set(self):
        assert suppressed_rules("x = 1  # qa: ignore") == frozenset()

    def test_single_rule(self):
        assert suppressed_rules("x  # qa: ignore[QA101]") == {"QA101"}

    def test_comma_separated_list(self):
        assert suppressed_rules(
            "x  # qa: ignore[QA101,QA106]"
        ) == {"QA101", "QA106"}

    def test_spaces_after_commas_are_fine(self):
        assert suppressed_rules(
            "x  # qa: ignore[QA101, QA203, QA204]"
        ) == {"QA101", "QA203", "QA204"}

    def test_flexible_comment_spacing(self):
        assert suppressed_rules("x #qa:ignore[QA102]") == {"QA102"}

    def test_trailing_prose_after_the_bracket_is_fine(self):
        assert suppressed_rules(
            "x  # qa: ignore[QA203] -- initializer idiom, fork-safe"
        ) == {"QA203"}

    def test_empty_brackets_do_not_become_a_blanket_waiver(self):
        assert suppressed_rules("x  # qa: ignore[]") is None

    def test_garbage_payload_does_not_become_a_blanket_waiver(self):
        assert suppressed_rules("x  # qa: ignore[???]") is None
        assert suppressed_rules("x  # qa: ignore[QA101, !!]") is None

    def test_rule_ids_are_case_sensitive(self):
        rules = suppressed_rules("x  # qa: ignore[qa101]")
        assert rules == {"qa101"}
        assert "QA101" not in rules


class TestIsSuppressed:
    def test_blanket_suppresses_every_rule(self):
        assert is_suppressed("QA101", "x  # qa: ignore")
        assert is_suppressed("QA206", "x  # qa: ignore")

    def test_listed_rule_is_suppressed_others_are_not(self):
        line = "x  # qa: ignore[QA101,QA106]"
        assert is_suppressed("QA101", line)
        assert is_suppressed("QA106", line)
        assert not is_suppressed("QA104", line)

    def test_no_comment_suppresses_nothing(self):
        assert not is_suppressed("QA101", "x = 1")


class TestAstlintLineOneSuppression:
    """QA103 fires on line 1 of an ``__init__.py``; the suppression
    lookup there must be rule-aware, not any-comment-wins (the old
    ``_check_init_all`` treated *any* ignore comment as silencing
    QA103)."""

    BODY = "from repro.qa import erc\n"

    def _lint_init(self, tmp_path, first_line):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        init = pkg / "__init__.py"
        init.write_text(first_line + "\n" + self.BODY, encoding="utf-8")
        result = analyze_paths([init], rules=SYNTAX_RULE_IDS)
        return [d.rule for d in result.report]

    def test_fires_without_a_comment(self, tmp_path):
        assert "QA103" in self._lint_init(tmp_path, "# package")

    def test_blanket_ignore_suppresses(self, tmp_path):
        assert "QA103" not in self._lint_init(tmp_path, "# qa: ignore")

    def test_matching_rule_suppresses(self, tmp_path):
        assert "QA103" not in self._lint_init(
            tmp_path, "# qa: ignore[QA103]"
        )

    def test_unrelated_rule_does_not_suppress(self, tmp_path):
        assert "QA103" in self._lint_init(
            tmp_path, "# qa: ignore[QA101]"
        )

    def test_comma_list_containing_qa103_suppresses(self, tmp_path):
        assert "QA103" not in self._lint_init(
            tmp_path, "# qa: ignore[QA101, QA103]"
        )

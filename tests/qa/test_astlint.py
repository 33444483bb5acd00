"""The per-file syntactic rules (QA101-QA107): one fixture file per rule.

They run alone through the analyzer, ``analyze_paths(paths,
rules=SYNTAX_RULE_IDS)``; ``tests/qa/test_analyze_cli.py`` covers the
``repro analyze`` command line and the shipped tree.
"""

from repro.qa.analyze import analyze_paths
from repro.qa.analyze.rules_syntax import SYNTAX_RULE_IDS


def lint_paths(paths, suppress=()):
    return analyze_paths(
        paths, rules=SYNTAX_RULE_IDS, suppress=suppress
    ).report


def lint_file(path):
    return list(lint_paths([path]))


def lint_source(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return lint_file(path)


def rules_fired(findings):
    return {d.rule for d in findings}


class TestQA101ExplicitInverse:
    def test_np_linalg_inv(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import numpy as np\n"
            "x = np.linalg.inv(m)\n"
        ))
        assert rules_fired(findings) == {"QA101"}
        assert ":2:" in findings[0].location

    def test_from_import_alias(self, tmp_path):
        findings = lint_source(tmp_path, (
            "from numpy.linalg import inv as matinv\n"
            "x = matinv(m)\n"
        ))
        assert rules_fired(findings) == {"QA101"}

    def test_scipy_linalg_module_alias(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import scipy.linalg as sla\n"
            "x = sla.inv(m)\n"
        ))
        assert rules_fired(findings) == {"QA101"}

    def test_factor_and_solve_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import scipy.linalg as sla\n"
            "lu = sla.lu_factor(m)\n"
            "x = sla.lu_solve(lu, b)\n"
        ))
        assert findings == []

    def test_unrelated_inv_name_is_clean(self, tmp_path):
        # A method merely *called* inv on an unknown object is not flagged.
        findings = lint_source(tmp_path, "x = transform.inv(m)\n")
        assert findings == []

    def test_suppression_comment(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import numpy as np\n"
            "x = np.linalg.inv(m)  # qa: ignore[QA101]\n"
        ))
        assert findings == []

    def test_blanket_suppression(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import numpy as np\n"
            "x = np.linalg.inv(m)  # qa: ignore\n"
        ))
        assert findings == []

    def test_suppressing_a_different_rule_does_not_silence(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import numpy as np\n"
            "x = np.linalg.inv(m)  # qa: ignore[QA104]\n"
        ))
        assert rules_fired(findings) == {"QA101"}


class TestQA102MutableDefault:
    def test_list_literal_default(self, tmp_path):
        findings = lint_source(tmp_path, "def f(x=[]):\n    return x\n")
        assert rules_fired(findings) == {"QA102"}

    def test_dict_constructor_default(self, tmp_path):
        findings = lint_source(tmp_path, "def f(*, x=dict()):\n    return x\n")
        assert rules_fired(findings) == {"QA102"}

    def test_none_default_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, (
            "def f(x=None):\n"
            "    return [] if x is None else x\n"
        ))
        assert findings == []

    def test_tuple_default_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, "def f(x=()):\n    return x\n")
        assert findings == []


class TestQA103InitAll:
    def test_init_with_imports_and_no_all(self, tmp_path):
        findings = lint_source(
            tmp_path, "from pkg.mod import thing\n", name="__init__.py"
        )
        assert rules_fired(findings) == {"QA103"}

    def test_init_with_all_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from pkg.mod import thing\n__all__ = ['thing']\n",
            name="__init__.py",
        )
        assert findings == []

    def test_empty_init_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, "", name="__init__.py")
        assert findings == []

    def test_non_init_module_needs_no_all(self, tmp_path):
        findings = lint_source(tmp_path, "from pkg.mod import thing\n")
        assert findings == []


class TestQA104FloatOfComplex:
    def test_float_of_impedance(self, tmp_path):
        findings = lint_source(tmp_path, "x = float(res.impedance[0])\n")
        assert rules_fired(findings) == {"QA104"}

    def test_real_part_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, "x = float(res.impedance[0].real)\n")
        # .real is also an Attribute walk hit on .impedance -- the rule
        # still fires so the author writes `res.impedance[0].real` without
        # the redundant float(), or suppresses deliberately.
        assert rules_fired(findings) <= {"QA104"}

    def test_plain_float_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, "x = float(res.delay)\n")
        assert findings == []


class TestQA105SilentBroadExcept:
    def test_bare_except_pass(self, tmp_path):
        findings = lint_source(tmp_path, (
            "try:\n"
            "    risky()\n"
            "except:\n"
            "    pass\n"
        ))
        assert rules_fired(findings) == {"QA105"}

    def test_except_exception_pass(self, tmp_path):
        findings = lint_source(tmp_path, (
            "try:\n"
            "    risky()\n"
            "except Exception:\n"
            "    pass\n"
        ))
        assert rules_fired(findings) == {"QA105"}

    def test_except_base_exception_ellipsis(self, tmp_path):
        findings = lint_source(tmp_path, (
            "try:\n"
            "    risky()\n"
            "except BaseException:\n"
            "    ...\n"
        ))
        assert rules_fired(findings) == {"QA105"}

    def test_broad_type_in_tuple(self, tmp_path):
        findings = lint_source(tmp_path, (
            "try:\n"
            "    risky()\n"
            "except (ValueError, Exception):\n"
            "    pass\n"
        ))
        assert rules_fired(findings) == {"QA105"}

    def test_narrow_except_pass_is_clean(self, tmp_path):
        # Deliberately ignoring a *specific* exception is a judgment
        # call, not a lint error.
        findings = lint_source(tmp_path, (
            "try:\n"
            "    risky()\n"
            "except FileNotFoundError:\n"
            "    pass\n"
        ))
        assert findings == []

    def test_broad_except_with_handling_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, (
            "try:\n"
            "    risky()\n"
            "except Exception as exc:\n"
            "    log(exc)\n"
        ))
        assert findings == []

    def test_suppression_comment(self, tmp_path):
        findings = lint_source(tmp_path, (
            "try:\n"
            "    risky()\n"
            "except Exception:  # qa: ignore[QA105]\n"
            "    pass\n"
        ))
        assert findings == []


class TestQA106AdHocTiming:
    def test_time_module_call(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import time\n"
            "t0 = time.perf_counter()\n"
        ))
        assert rules_fired(findings) == {"QA106"}

    def test_from_import_alias(self, tmp_path):
        findings = lint_source(tmp_path, (
            "from time import perf_counter as pc\n"
            "t0 = pc()\n"
        ))
        assert rules_fired(findings) == {"QA106"}

    def test_module_alias(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import time as _t\n"
            "t0 = _t.monotonic()\n"
        ))
        assert rules_fired(findings) == {"QA106"}

    def test_sleep_is_clean(self, tmp_path):
        # Only the clock reads are flagged, not the rest of the module.
        findings = lint_source(tmp_path, (
            "import time\n"
            "time.sleep(0.1)\n"
        ))
        assert findings == []

    def test_unrelated_name_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, (
            "def perf_counter():\n"
            "    return 0\n"
            "t0 = perf_counter()\n"
        ))
        assert findings == []

    def test_obs_package_is_exempt(self, tmp_path):
        obs = tmp_path / "obs"
        obs.mkdir()
        path = obs / "trace.py"
        path.write_text("import time\nt0 = time.perf_counter()\n")
        assert lint_file(path) == []

    def test_bench_module_is_flagged(self, tmp_path):
        # Only the obs layer may read the clock; a benchmark module
        # times its stages through spans like everything else.
        perf = tmp_path / "perf"
        perf.mkdir()
        path = perf / "bench.py"
        path.write_text("import time\nt0 = time.perf_counter()\n")
        assert rules_fired(lint_file(path)) == {"QA106"}

    def test_suppression_comment(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import time\n"
            "t0 = time.perf_counter()  # qa: ignore[QA106]\n"
        ))
        assert findings == []


class TestDriver:
    def test_syntax_error_reports_qa000(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n")
        assert rules_fired(findings) == {"QA000"}

    def test_lint_paths_aggregates_and_suppresses(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "import numpy as np\nx = np.linalg.inv(m)\n"
        )
        (tmp_path / "b.py").write_text("def f(x=[]):\n    return x\n")
        report = lint_paths([tmp_path])
        assert rules_fired(report) == {"QA101", "QA102"}
        report = lint_paths([tmp_path], suppress=("QA102",))
        assert rules_fired(report) == {"QA101"}
        assert report.num_suppressed == 1


class TestQA107UnseededRng:
    def test_attribute_form_fires(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        ))
        assert rules_fired(findings) == {"QA107"}
        assert ":2:" in findings[0].location

    def test_from_import_form_fires(self, tmp_path):
        findings = lint_source(tmp_path, (
            "from numpy.random import default_rng\n"
            "rng = default_rng()\n"
        ))
        assert rules_fired(findings) == {"QA107"}

    def test_aliased_import_fires(self, tmp_path):
        findings = lint_source(tmp_path, (
            "from numpy.random import default_rng as make_rng\n"
            "rng = make_rng()\n"
        ))
        assert rules_fired(findings) == {"QA107"}

    def test_seeded_calls_are_clean(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import numpy as np\n"
            "a = np.random.default_rng(42)\n"
            "b = np.random.default_rng(seed=None)\n"  # explicit opt-in
        ))
        assert "QA107" not in rules_fired(findings)

    def test_unrelated_default_rng_name_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, (
            "def default_rng():\n"
            "    return 1\n"
            "x = default_rng()\n"
        ))
        assert "QA107" not in rules_fired(findings)

    def test_test_files_are_exempt(self, tmp_path):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        )
        assert "QA107" not in rules_fired(
            lint_source(tmp_path, source, name="test_fuzz.py")
        )
        assert "QA107" not in rules_fired(
            lint_source(tmp_path, source, name="conftest.py")
        )

    def test_suppression_comment(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # qa: ignore[QA107]\n"
        ))
        assert "QA107" not in rules_fired(findings)

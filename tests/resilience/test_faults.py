"""Deterministic fault injection: seeding, gating, env grammar."""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.resilience.faults import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
    active_injector,
    chaos_specs,
    corrupt_matrix,
    corrupt_solution,
    inject_faults,
    injector_from_env,
    maybe_disrupt,
    maybe_fail,
)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("x", "explode")

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec("x", "raise", probability=0.0)
        with pytest.raises(ValueError):
            FaultSpec("x", "raise", probability=1.5)

    def test_worker_process_kinds_are_valid(self):
        for kind in ("hang", "crash", "bigalloc"):
            assert FaultSpec("x", kind).kind == kind


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        spec = FaultSpec("site", "raise", probability=0.3, max_hits=None)
        a = FaultInjector((spec,), seed=42)
        b = FaultInjector((spec,), seed=42)
        pattern_a = [a.fires("site", ("raise",)) is not None for _ in range(200)]
        pattern_b = [b.fires("site", ("raise",)) is not None for _ in range(200)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)

    def test_different_seed_different_decisions(self):
        spec = FaultSpec("site", "raise", probability=0.3, max_hits=None)
        a = FaultInjector((spec,), seed=1)
        b = FaultInjector((spec,), seed=2)
        pattern_a = [a.fires("site", ("raise",)) is not None for _ in range(200)]
        pattern_b = [b.fires("site", ("raise",)) is not None for _ in range(200)]
        assert pattern_a != pattern_b


class TestGating:
    def test_max_hits(self):
        inj = FaultInjector((FaultSpec("s", "raise", max_hits=2),))
        hits = sum(inj.fires("s", ("raise",)) is not None for _ in range(10))
        assert hits == 2

    def test_after_skips_eligible_calls(self):
        inj = FaultInjector((FaultSpec("s", "raise", after=3),))
        fired_at = [
            k for k in range(10) if inj.fires("s", ("raise",)) is not None
        ]
        assert fired_at == [3]

    def test_fnmatch_site_patterns(self):
        inj = FaultInjector((FaultSpec("*.lu", "raise", max_hits=None),))
        assert inj.fires("transient.lu", ("raise",)) is not None
        assert inj.fires("dc.newton.lu", ("raise",)) is not None
        assert inj.fires("transient.gmin", ("raise",)) is None

    def test_kind_filter(self):
        inj = FaultInjector((FaultSpec("s", "nan"),))
        assert inj.fires("s", ("raise",)) is None
        assert inj.fires("s", ("nan",)) is not None

    def test_injection_log(self):
        inj = FaultInjector((FaultSpec("s", "singular"),))
        inj.fires("s", ("singular",))
        assert inj.injections == [("s", "singular")]


class TestContextManager:
    def test_hooks_fire_inside_context(self):
        with inject_faults(FaultSpec("here", "raise")):
            with pytest.raises(InjectedFault) as err:
                maybe_fail("here")
        assert err.value.site == "here"
        # Outside the context the hook is inert again.
        maybe_fail("here")

    def test_no_specs_suppresses_ambient(self):
        with inject_faults(FaultSpec("here", "raise", max_hits=None)):
            with inject_faults():  # suppression block
                maybe_fail("here")
            with pytest.raises(InjectedFault):
                maybe_fail("here")

    def test_corrupt_matrix_dense_and_sparse(self):
        a = np.eye(3)
        with inject_faults(FaultSpec("s", "singular", max_hits=None)):
            bad = corrupt_matrix("s", a)
            assert np.all(bad[0] == 0.0)
            assert a[0, 0] == 1.0  # original untouched
            bad_sp = corrupt_matrix("s", sp.csr_matrix(np.eye(3)))
            assert bad_sp.toarray()[0].sum() == 0.0

    def test_corrupt_solution(self):
        x = np.ones(3)
        with inject_faults(FaultSpec("s", "nan")):
            bad = corrupt_solution("s", x)
        assert np.isnan(bad[0])
        assert np.all(np.isfinite(x))


class TestEnvGrammar:
    def test_off_and_empty(self):
        assert injector_from_env("") is None
        assert injector_from_env("off") is None

    def test_chaos_default_seed(self):
        inj = injector_from_env("chaos")
        assert inj.seed == 0
        assert inj.specs == chaos_specs()

    def test_chaos_with_seed(self):
        assert injector_from_env("chaos-1234").seed == 1234

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            injector_from_env("chaos-xyz")
        with pytest.raises(ValueError):
            injector_from_env("mayhem")

    def test_active_injector_prefers_innermost(self):
        with inject_faults(FaultSpec("a", "raise")) as outer:
            with inject_faults(FaultSpec("b", "raise")) as inner:
                assert active_injector() is inner
            assert active_injector() is outer

    def test_chaos_includes_worker_process_faults(self):
        kinds = {s.kind for s in chaos_specs() if s.site == "*.worker"}
        assert kinds == {"hang", "crash", "bigalloc"}

    def test_deterministic_rule_list(self):
        inj = injector_from_env("*.worker=hang@0.5,loop.lu=raise")
        assert [(s.site, s.kind, s.probability) for s in inj.specs] == [
            ("*.worker", "hang", 0.5),
            ("loop.lu", "raise", 1.0),
        ]
        # Rules fire until further notice, not just once.
        assert all(s.max_hits is None for s in inj.specs)

    def test_rule_list_rejects_garbage(self):
        with pytest.raises(ValueError, match="site=kind"):
            injector_from_env("=hang")
        with pytest.raises(ValueError, match="probability"):
            injector_from_env("a.worker=hang@lots")
        with pytest.raises(ValueError, match="unknown fault kind"):
            injector_from_env("a.worker=explode")


class TestMaybeDisrupt:
    def test_noop_without_an_injector(self):
        with inject_faults():
            maybe_disrupt("anywhere")  # must not raise or sleep

    def test_hang_sleeps_for_the_configured_bound(self, monkeypatch):
        monkeypatch.setenv("REPRO_HANG_SECONDS", "0.05")
        with inject_faults(FaultSpec("s", "hang")):
            t0 = time.perf_counter()
            maybe_disrupt("s")
            elapsed = time.perf_counter() - t0
            assert elapsed >= 0.05
            # max_hits=1: the second call is inert.
            maybe_disrupt("s")

    def test_bigalloc_raises_memory_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_BIGALLOC_MB", "1")
        with inject_faults(FaultSpec("s", "bigalloc")):
            with pytest.raises(MemoryError, match="bigalloc"):
                maybe_disrupt("s")

    def test_kind_separation(self):
        # A "raise" rule never disrupts; a "hang" rule never raises.
        with inject_faults(FaultSpec("s", "raise", max_hits=None)):
            maybe_disrupt("s")
        with inject_faults(FaultSpec("s", "hang", max_hits=None)):
            maybe_fail("s")

    def test_bad_hang_bound_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_HANG_SECONDS", "forever")
        with inject_faults(FaultSpec("s", "hang")):
            with pytest.raises(ValueError, match="REPRO_HANG_SECONDS"):
                maybe_disrupt("s")

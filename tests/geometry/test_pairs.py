"""The segment table against the Python pair loops it replaced.

The ``ref_*`` functions are those loops, built from the scalar
``Segment`` helpers.  On the fixed corpus the vectorized scans must
reproduce them exactly: the same coupling list, bit-identical shell and
halo matrices, the same overlap list.  The one stated exception is
``np.hypot`` against ``math.hypot`` (one ulp apart on a small share of
inputs with two nonzero components), allowed only on the random
cross-layer layouts and only where it can act: a shell pair whose
distance lies within 4 ulp of the radius, a halo value whose radius moved
by one ulp.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extraction.capacitance import (
    CapacitanceModel,
    coupling_capacitance_per_length,
)
from repro.extraction.inductance import mutual_inductance_filaments
from repro.extraction.partial_matrix import (
    PartialInductanceResult,
    extract_partial_inductance,
)
from repro.flows import build_clock_testcase
from repro.geometry import build_signal_over_grid
from repro.geometry.layout import Layout, NetKind
from repro.geometry.pairs import BLOCK, SegmentTable
from repro.geometry.segment import Direction, Segment, default_layer_stack
from repro.scenarios.runner import MAX_SEGMENT_LENGTH, _inplane_segments
from repro.scenarios.variants import VARIANTS, build_variant
from repro.sparsify import HaloSparsifier, ShellSparsifier

# -- the loops the table replaced ------------------------------------------


def ref_pairs(segments, same_layer=False):
    out = []
    for i in range(len(segments)):
        si = segments[i]
        if si.direction == Direction.Z:
            continue
        for j in range(i + 1, len(segments)):
            sj = segments[j]
            if sj.direction == Direction.Z or not si.is_parallel(sj):
                continue
            if same_layer and si.layer != sj.layer:
                continue
            out.append((i, j))
    return out


def ref_coupling(segments, model):
    out = []
    for i, j in ref_pairs(segments, same_layer=True):
        si, sj = segments[i], segments[j]
        overlap = si.axial_overlap(sj)
        if overlap <= 0:
            continue
        gap = si.gap(sj)
        if gap <= 0 or gap > model.coupling_max_gap:
            continue
        c = coupling_capacitance_per_length(
            si.thickness, gap, si.origin[2], min(si.width, sj.width),
            model.eps_r,
        ) * overlap
        if c > 0:
            out.append((i, j, c))
    return out


def ref_shell(result, radius):
    segs = result.segments
    n = result.size
    matrix = result.matrix.copy()
    starts = np.array([s.axis_start for s in segs])
    ends = np.array([s.axis_end for s in segs])
    shell_self = np.asarray(mutual_inductance_filaments(
        starts, ends, starts, ends, np.full(n, radius)
    ))
    out = np.zeros_like(matrix)
    np.fill_diagonal(out, np.diagonal(matrix) - shell_self)
    for i, j in ref_pairs(segs):
        d = segs[i].transverse_distance(segs[j])
        if d >= radius:
            continue
        shift = mutual_inductance_filaments(
            segs[i].axis_start, segs[i].axis_end,
            segs[j].axis_start, segs[j].axis_end, radius,
        )
        out[i, j] = out[j, i] = matrix[i, j] - shift
    return out


def ref_halo(halo, result):
    """(matrix, radii, blocked pairs) of the halo loops, before the
    positive-definiteness check."""
    segs = result.segments
    n = result.size
    supply = [k for k, s in enumerate(segs) if s.net in halo.supply_nets]

    def radius_of(i):
        si = segs[i]
        best = math.inf
        for k in supply:
            sk = segs[k]
            if k == i or sk.direction.axis != si.direction.axis:
                continue
            if halo.same_layer_only and sk.layer != si.layer:
                continue
            if si.axial_overlap(sk) < halo.min_overlap_fraction * si.length:
                continue
            best = min(best, si.transverse_distance(sk))
        return best

    def blocked(i, j):
        si, sj = segs[i], segs[j]
        axis = si.direction.axis
        t_axis = 1 - axis
        lo_t, hi_t = sorted((si.center[t_axis], sj.center[t_axis]))
        if hi_t - lo_t <= 0:
            return False
        span_lo = max(si.axis_start, sj.axis_start)
        span_hi = min(si.axis_end, sj.axis_end)
        pair_overlap = max(span_hi - span_lo, 0.0)
        if pair_overlap <= 0:
            span_lo = min(si.axis_start, sj.axis_start)
            span_hi = max(si.axis_end, sj.axis_end)
            pair_overlap = span_hi - span_lo
        for k in supply:
            sk = segs[k]
            if k in (i, j) or sk.direction.axis != axis:
                continue
            if halo.same_layer_only and (
                sk.layer != si.layer and sk.layer != sj.layer
            ):
                continue
            if not lo_t < sk.center[t_axis] < hi_t:
                continue
            ov = min(sk.axis_end, span_hi) - max(sk.axis_start, span_lo)
            if ov >= halo.min_overlap_fraction * pair_overlap:
                return True
        return False

    matrix = result.matrix.copy()
    radii = [radius_of(i) for i in range(n)]
    if halo.shift:
        for i in range(n):
            if math.isfinite(radii[i]):
                matrix[i, i] -= mutual_inductance_filaments(
                    segs[i].axis_start, segs[i].axis_end,
                    segs[i].axis_start, segs[i].axis_end, radii[i],
                )
    screened = []
    for i, j in ref_pairs(segs):
        if matrix[i, j] == 0.0:
            continue
        if blocked(i, j):
            matrix[i, j] = matrix[j, i] = 0.0
            screened.append((i, j))
            continue
        radius = min(radii[i], radii[j])
        if halo.shift and math.isfinite(radius):
            matrix[i, j] = matrix[j, i] = (
                matrix[i, j] - mutual_inductance_filaments(
                    segs[i].axis_start, segs[i].axis_end,
                    segs[j].axis_start, segs[j].axis_end, radius,
                )
            )
    return matrix, np.array(radii), screened


def ref_overlaps(layout, net=None):
    out = []
    segs = layout.segments
    for i in range(len(segs)):
        a = segs[i]
        if net is not None and a.net != net:
            continue
        for j in range(len(segs)):
            if j <= i and (net is None or segs[j].net == net):
                continue
            b = segs[j]
            if a.net == b.net:
                continue
            if all(
                a.origin[axis] < b.end[axis] - 1e-12
                and b.origin[axis] < a.end[axis] - 1e-12
                for axis in range(3)
            ):
                out.append((a.name, b.name))
    return out


# -- what the vectorized code computes --------------------------------------


def table_pairs(segments, same_layer=False):
    table = SegmentTable.from_segments(segments)
    return [
        (a, b)
        for i, j in table.pairs(same_layer=same_layer)
        for a, b in zip(i.tolist(), j.tolist())
    ]


def shell_matrix(result, radius):
    table = SegmentTable.from_segments(result.segments)
    return ShellSparsifier(radius=radius)._shifted_matrix(
        result, table, radius
    )


def halo_matrix(halo, result):
    """(matrix, radii) of ``HaloSparsifier.apply`` with its
    positive-definiteness check passed, as the reference stops before it."""
    with mock.patch("repro.sparsify.halo.is_positive_definite",
                    return_value=True):
        matrix = halo.apply(result).blocks[0][1]
    table = SegmentTable.from_segments(result.segments)
    return matrix, halo._halo_radii(table, halo._supply_indices(result))


def outcome(fn, *args):
    """The call's value, or the ValueError it raised (the shifts refuse
    collinear overlapping filaments)."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


# -- the corpus ----------------------------------------------------------------


def fake_result(segments):
    """A partial-L stand-in: distinct nonzero values on parallel pairs,
    zeros elsewhere, as in the extracted matrix."""
    n = len(segments)
    matrix = np.zeros((n, n))
    np.fill_diagonal(matrix, 1e-9 + 1e-12 * np.arange(n))
    for i, j in ref_pairs(segments):
        matrix[i, j] = matrix[j, i] = 1e-11 / (1 + i + j)
    return PartialInductanceResult(segments=list(segments), matrix=matrix)


def clock_case(die, branches):
    return build_clock_testcase(
        die=die, num_branches=branches, branch_length=die / 4,
        stripe_pitch=die / 6,
    )


@pytest.fixture(scope="module")
def table1_case():
    return clock_case(800e-6, 8)


@pytest.fixture(scope="module")
def big_die():
    return clock_case(2000e-6, 8)


@pytest.fixture(scope="module")
def variants():
    """The 8 scenario variants at 3 lengths, segmented as the sweep does."""
    out = []
    for name in sorted(VARIANTS):
        for length in (150e-6, 250e-6, 400e-6):
            layout, _ = build_variant(name, length)
            out.append((f"{name}@{length * 1e6:.0f}", layout, _inplane_segments(
                layout, MAX_SEGMENT_LENGTH
            )))
    return out


@pytest.fixture(scope="module")
def ablation():
    """The Section-4 ablation structure at its 250 um segmentation."""
    layout, _ = build_signal_over_grid(
        length=2000e-6, signal_width=2e-6, return_width=1e-6,
        pitch=2e-6, returns_per_side=4,
    )
    return layout, _inplane_segments(layout, 250e-6)


def split80(layout):
    return _inplane_segments(layout, 80e-6)


# -- pair query ----------------------------------------------------------------


class TestPairQuery:
    def test_excludes_orthogonal_and_vias(self):
        layout = Layout(default_layer_stack(6), name="t")
        layout.add_net("sig", NetKind.SIGNAL)
        layout.add_wire("sig", "M6", Direction.X, (0.0, 0.0), 10e-6, 1e-6)
        layout.add_wire("sig", "M6", Direction.X, (0.0, 5e-6), 10e-6, 1e-6)
        layout.add_wire("sig", "M5", Direction.Y, (0.0, 0.0), 10e-6, 1e-6)
        via = Segment("sig", "M5", Direction.Z, (0.0, 0.0, 5e-6), 2e-6,
                      1e-6, 1e-6)
        assert table_pairs(layout.segments + [via, via]) == [(0, 1)]

    @pytest.mark.parametrize("same_layer", [False, True])
    def test_lexicographic_over_row_blocks(self, big_die, same_layer):
        segments = split80(big_die.layout)
        assert len(segments) > BLOCK
        assert table_pairs(segments, same_layer) == ref_pairs(
            segments, same_layer
        )

    def test_columns_match_segment_properties(self, table1_case):
        segments = table1_case.layout.segments
        table = SegmentTable.from_segments(segments)
        for k, s in enumerate(segments):
            assert tuple(table.lo[k]) == s.origin
            assert tuple(table.hi[k]) == s.end
            assert tuple(table.center[k]) == s.center
            assert (table.start[k], table.stop[k]) == (
                s.axis_start, s.axis_end
            )
            assert table.nets[table.net[k]] == s.net
        layers = [s.layer for s in segments]
        same = table.layer[:, None] == table.layer[None, :]
        assert same.tolist() == [[a == b for b in layers] for a in layers]

    @pytest.mark.parametrize("segments", [
        [],
        [Segment("a", "M6", Direction.X, (0.0, 0.0, 7e-6), 1e-6, 1e-6, 1e-6)],
        [Segment("a", "V", Direction.Z, (0.0, 0.0, 1e-6), 2e-6, 1e-6, 1e-6),
         Segment("b", "V", Direction.Z, (0.0, 0.0, 1e-6), 2e-6, 1e-6, 1e-6)],
    ], ids=["empty", "one", "vias-only"])
    def test_edge_cases(self, segments):
        table = SegmentTable.from_segments(segments)
        assert len(table) == len(segments)
        assert table_pairs(segments) == []
        assert CapacitanceModel().coupling_pairs(segments) == []
        if any(s.direction == Direction.Z for s in segments):
            return  # the sparsifiers see in-plane segments only
        result = fake_result(segments)
        assert ShellSparsifier.auto_radius(result) == 1e-6
        assert np.array_equal(shell_matrix(result, 1e-5),
                              ref_shell(result, 1e-5))
        halo = HaloSparsifier(supply_nets=("a",))
        assert np.all(np.isinf(
            halo._halo_radii(table, halo._supply_indices(result))
        ))


# -- exact equality on the fixed corpus ---------------------------------------


class TestCouplingScan:
    def test_table1_pieces_and_unsplit(self, table1_case):
        model = CapacitanceModel()
        for segments in (split80(table1_case.layout),
                         table1_case.layout.segments):
            got = model.coupling_pairs(segments)
            assert got == ref_coupling(segments, model)
        assert len(model.coupling_pairs(split80(table1_case.layout))) == 7

    def test_big_die(self, big_die):
        model = CapacitanceModel()
        segments = split80(big_die.layout)
        assert model.coupling_pairs(segments) == ref_coupling(segments, model)

    def test_variants_and_ablation(self, variants, ablation):
        model = CapacitanceModel()
        corpus = [(n, layout.segments) for n, layout, _ in variants]
        corpus += [(n, segs) for n, _, segs in variants]
        corpus += [("ablation", ablation[1])]
        found = 0
        for name, segments in corpus:
            got = model.coupling_pairs(segments)
            assert got == ref_coupling(segments, model), name
            found += len(got)
        assert found > 0


class TestShellScan:
    @pytest.mark.parametrize("radius", [5e-6, 12e-6, 30e-6])
    def test_variants_and_ablation(self, variants, ablation, radius):
        corpus = [(n, segs) for n, _, segs in variants]
        corpus.append(("ablation", ablation[1]))
        for name, segments in corpus:
            result = extract_partial_inductance(segments)
            assert np.array_equal(
                shell_matrix(result, radius), ref_shell(result, radius)
            ), name


class TestHaloScan:
    SETTINGS = [
        {},
        {"shift": False},
        {"same_layer_only": False},
        {"min_overlap_fraction": 0.2},
    ]

    @pytest.mark.parametrize("setting", SETTINGS, ids=str)
    def test_variants_and_ablation(self, variants, ablation, setting):
        corpus = [(n, segs) for n, _, segs in variants]
        corpus.append(("ablation", ablation[1]))
        screened = 0
        for name, segments in corpus:
            halo = HaloSparsifier(supply_nets=("GND",), **setting)
            result = extract_partial_inductance(segments)
            ref, ref_radii, ref_blocked = ref_halo(halo, result)
            matrix, radii = halo_matrix(halo, result)
            assert np.array_equal(radii, ref_radii), name
            assert np.array_equal(matrix, ref), name
            screened += len(ref_blocked)
        assert screened > 0


class TestOverlapScan:
    def test_fixed_corpus(self, table1_case, big_die, variants, ablation):
        layouts = [table1_case.layout, big_die.layout, ablation[0]]
        layouts += [layout for _, layout, _ in variants]
        for layout in layouts:
            assert layout.find_overlaps() == ref_overlaps(layout)
            for net in sorted(layout.nets)[:3]:
                assert layout.find_overlaps(net) == ref_overlaps(layout, net)

    def test_finds_crossing_nets(self):
        layout = Layout(default_layer_stack(6), name="t")
        layout.add_net("a", NetKind.SIGNAL)
        layout.add_net("b", NetKind.SIGNAL)
        layout.add_wire("a", "M6", Direction.X, (0.0, 0.0), 10e-6, 2e-6)
        layout.add_wire("b", "M6", Direction.Y, (4e-6, -5e-6), 10e-6, 2e-6)
        layout.add_wire("b", "M6", Direction.X, (0.0, 2e-6), 10e-6, 2e-6)
        expected = ref_overlaps(layout)
        assert expected and layout.find_overlaps() == expected
        assert layout.find_overlaps("b") == ref_overlaps(layout, "b")
        assert layout.find_overlaps("ghost") == []


# -- random layouts on a coarse grid: ties, touching boxes, vias ---------------

UM = 1e-6
STACK = default_layer_stack(3)


@st.composite
def grid_segments(draw):
    """Segments on a 1 um grid over three layers: touching and abutting
    boxes, equal spans and collinear pieces are common."""
    count = draw(st.integers(0, 14))
    segments = []
    for k in range(count):
        layer = draw(st.sampled_from(STACK))
        direction = draw(st.sampled_from(
            [Direction.X, Direction.Y, Direction.Z]
        ))
        x = draw(st.integers(0, 6)) * UM
        y = draw(st.integers(0, 6)) * UM
        width = draw(st.integers(1, 2)) * UM
        if direction == Direction.Z:
            length = layer.thickness + draw(st.integers(1, 2)) * UM
            thickness = width
        else:
            length = draw(st.integers(1, 6)) * UM
            thickness = layer.thickness
        segments.append(Segment(
            net=draw(st.sampled_from(["a", "b", "GND"])),
            layer=layer.name, direction=direction,
            origin=(x, y, layer.z_bottom), length=length, width=width,
            thickness=thickness, name=f"s{k}",
        ))
    return segments


def assert_shell_close(got, ref, result, radius):
    """Bit-equal except where a pair's distance lies within 4 ulp of the
    radius (the ``hypot`` one-ulp caveat can flip the ``d < radius``
    gate there)."""
    assert np.array_equal(np.diagonal(got), np.diagonal(ref))
    segs = result.segments
    for i, j in zip(*np.nonzero(got != ref)):
        d = segs[i].transverse_distance(segs[j])
        assert abs(d - radius) <= 4 * np.spacing(radius), (i, j)


class TestRandomLayouts:
    @given(segments=grid_segments())
    @settings(max_examples=60, deadline=None)
    def test_pairs_coupling_and_overlaps(self, segments):
        assert table_pairs(segments) == ref_pairs(segments)
        assert table_pairs(segments, True) == ref_pairs(segments, True)
        model = CapacitanceModel()
        assert model.coupling_pairs(segments) == ref_coupling(segments, model)
        layout = Layout(STACK, name="h")
        for net in ("a", "b"):
            layout.add_net(net, NetKind.SIGNAL)
        layout.add_net("GND", NetKind.GROUND)
        for seg in segments:
            layout.add_segment(seg)
        assert layout.find_overlaps() == ref_overlaps(layout)
        assert layout.find_overlaps("a") == ref_overlaps(layout, "a")

    @given(segments=grid_segments(), radius_pick=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_shell(self, segments, radius_pick):
        segments = [s for s in segments if s.direction != Direction.Z]
        result = fake_result(segments)
        dists = sorted(
            segments[i].transverse_distance(segments[j])
            for i, j in ref_pairs(segments)
        )
        # Radii on a pair distance are the cases where ties decide.
        radius = (dists[radius_pick % len(dists)] if dists else 1.0) or UM
        got = outcome(shell_matrix, result, radius)
        ref = outcome(ref_shell, result, radius)
        if got is ValueError or ref is ValueError:
            assert got is ref
        else:
            assert_shell_close(got, ref, result, radius)

    @given(segments=grid_segments(), setting=st.sampled_from(
        TestHaloScan.SETTINGS
    ))
    @settings(max_examples=60, deadline=None)
    def test_halo(self, segments, setting):
        segments = [s for s in segments if s.direction != Direction.Z]
        result = fake_result(segments)
        halo = HaloSparsifier(supply_nets=("GND",), **setting)
        ref = outcome(ref_halo, halo, result)
        got = outcome(halo_matrix, halo, result)
        if got is ValueError or ref is ValueError:
            assert got is ref
            return
        ref_matrix, ref_radii, _ = ref
        matrix, radii = got
        # A radius may move by one ulp, and only the values computed
        # through it may differ.
        moved = radii != ref_radii
        assert np.all(np.abs(radii[moved] - ref_radii[moved])
                      <= np.spacing(ref_radii[moved]))
        rows, cols = np.nonzero(matrix != ref_matrix)
        assert np.all(moved[rows] | moved[cols])

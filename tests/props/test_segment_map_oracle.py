"""Differential oracle for the OmpSs segment map.

``_SegmentMap`` bisects into a sorted segment list and splices its
result back in place.  The reference below is the earlier linear
implementation (full rescan, separate gap pass, global re-sort), kept
verbatim.  For any access sequence both must return the same
dependency set and leave the same segment layout after every access.
"""

from __future__ import annotations

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.cholesky import cholesky_graph
from repro.ompss import AccessMode, Region
from repro.ompss import graph as graph_mod
from repro.ompss.graph import _SegmentMap


# -- reference implementation (the earlier linear map, verbatim) -------------
class _Segment:
    """One byte interval of a space: last writer, readers since, and
    the set of CONCURRENT updaters since the last exclusive write."""

    __slots__ = ("start", "end", "writer", "readers", "concurrent")

    def __init__(
        self,
        start: int,
        end: int,
        writer: Optional[int],
        readers: set,
        concurrent: Optional[set] = None,
    ):
        self.start = start
        self.end = end
        self.writer = writer
        self.readers = readers
        self.concurrent = concurrent if concurrent is not None else set()

    def clone(self, start: int, end: int) -> "_Segment":
        return _Segment(
            start, end, self.writer, set(self.readers), set(self.concurrent)
        )


class _ReferenceSegmentMap:
    """Sorted, non-overlapping segments of one address space."""

    __slots__ = ("segments",)

    def __init__(self) -> None:
        self.segments: list[_Segment] = []

    def access(self, task_id: int, region: Region, mode) -> set[int]:
        """Record an access; return the exact dependency set.

        Rules per overlapped segment (W = last writer, R = readers
        since, C = concurrent updaters since the last exclusive write):

        * IN:         deps += C if C else {W};       R += self
        * OUT/INOUT:  deps += R + C + ({W} if no C); becomes W, clears R/C
        * CONCURRENT: deps += R + {W};               C += self
        """
        from repro.ompss.regions import AccessMode

        deps: set[int] = set()
        s, e = region.start, region.end
        out: list[_Segment] = []
        for seg in self.segments:
            if seg.end <= s or seg.start >= e:
                out.append(seg)
                continue
            # Split off non-overlapping flanks.
            if seg.start < s:
                out.append(seg.clone(seg.start, s))
                seg.start = s
            tail: Optional[_Segment] = None
            if seg.end > e:
                tail = seg.clone(e, seg.end)
                seg.end = e
            # seg now lies fully inside [s, e): collect dependencies.
            writer_dep = {seg.writer} if seg.writer is not None else set()
            if mode is AccessMode.IN:
                deps |= seg.concurrent if seg.concurrent else writer_dep
                seg.readers.add(task_id)
                out.append(seg)
            elif mode is AccessMode.CONCURRENT:
                # Every concurrent updater orders after the last
                # exclusive writer and after intervening readers, but
                # not after its concurrent peers.
                deps |= seg.readers | writer_dep
                seg.concurrent.add(task_id)
                out.append(seg)
            else:  # OUT / INOUT: exclusive write
                deps |= seg.readers | seg.concurrent
                if not seg.concurrent:
                    deps |= writer_dep
                out.append(_Segment(seg.start, seg.end, task_id, set()))
            if tail is not None:
                out.append(tail)
        # Bytes never touched before: create fresh coverage.
        for gs, ge in self._gaps(s, e):
            if mode is AccessMode.IN:
                out.append(_Segment(gs, ge, None, {task_id}))
            elif mode is AccessMode.CONCURRENT:
                out.append(_Segment(gs, ge, None, set(), {task_id}))
            else:
                out.append(_Segment(gs, ge, task_id, set()))
        out.sort(key=lambda g: g.start)
        self.segments = out
        deps.discard(task_id)
        return deps

    def _gaps(self, s: int, e: int) -> list[tuple[int, int]]:
        gaps = []
        cur = s
        for seg in self.segments:
            if seg.end <= s or seg.start >= e:
                continue
            lo = max(seg.start, s)
            if lo > cur:
                gaps.append((cur, lo))
            cur = max(cur, min(seg.end, e))
        if cur < e:
            gaps.append((cur, e))
        return gaps


# -- strategies ------------------------------------------------------------------
MODES = [AccessMode.IN, AccessMode.OUT, AccessMode.INOUT, AccessMode.CONCURRENT]

# Short regions over a narrow byte range: most accesses partially
# overlap several earlier segments, splitting flanks on both sides.
access_st = st.tuples(
    st.integers(min_value=0, max_value=2),  # space index
    st.integers(min_value=0, max_value=48),
    st.integers(min_value=1, max_value=20),
    st.sampled_from(MODES),
)
task_st = st.lists(access_st, min_size=1, max_size=3)
program_st = st.tuples(
    st.integers(min_value=1, max_value=3),  # number of spaces
    st.lists(task_st, min_size=1, max_size=40),
)


def layout(segments) -> list[tuple]:
    return [
        (g.start, g.end, g.writer, frozenset(g.readers), frozenset(g.concurrent))
        for g in segments
    ]


def assert_index_consistent(segmap: _SegmentMap) -> None:
    assert segmap.starts == [g.start for g in segmap.segments]
    for g in segmap.segments:
        assert g.start < g.end
    for a, b in zip(segmap.segments, segmap.segments[1:]):
        assert a.end <= b.start


@given(program=program_st)
@settings(max_examples=300, deadline=None)
def test_matches_reference_after_every_access(program):
    n_spaces, tasks = program
    new = [_SegmentMap() for _ in range(n_spaces)]
    ref = [_ReferenceSegmentMap() for _ in range(n_spaces)]
    for task_id, accesses in enumerate(tasks, start=1):
        for space, start, length, mode in accesses:
            space %= n_spaces
            region = Region(f"S{space}", start, start + length)
            got = new[space].access(task_id, region, mode)
            want = ref[space].access(task_id, region, mode)
            assert got == want, (task_id, region, mode)
            assert layout(new[space].segments) == layout(ref[space].segments)
            assert_index_consistent(new[space])


@given(
    regions=st.lists(
        st.tuples(st.integers(0, 200), st.integers(1, 60)), min_size=1, max_size=30
    )
)
@settings(max_examples=100, deadline=None)
def test_disjoint_writes_then_spanning_read(regions):
    """Scattered writes leave gaps; one read across all of them must
    collect every writer and fill every gap, as the reference does."""
    new, ref = _SegmentMap(), _ReferenceSegmentMap()
    for task_id, (start, length) in enumerate(regions, start=1):
        region = Region("A", start, start + length)
        assert new.access(task_id, region, AccessMode.OUT) == ref.access(
            task_id, region, AccessMode.OUT
        )
    span = Region("A", 0, 300)
    reader = len(regions) + 1
    assert new.access(reader, span, AccessMode.IN) == ref.access(
        reader, span, AccessMode.IN
    )
    assert layout(new.segments) == layout(ref.segments)
    assert_index_consistent(new)
    assert new.segments[0].start == 0 and new.segments[-1].end == 300


def test_cholesky_graph_matches_reference(monkeypatch):
    """The whole tiled-Cholesky graph is edge-for-edge the same."""
    g_new = cholesky_graph(6)
    monkeypatch.setattr(graph_mod, "_SegmentMap", _ReferenceSegmentMap)
    g_ref = cholesky_graph(6)
    assert len(g_new) == len(g_ref)

    def edges(g):
        position = {t.task_id: i for i, t in enumerate(g.tasks)}
        return sorted(
            (position[d], position[t]) for t, deps in g.deps.items() for d in deps
        )

    assert edges(g_new) == edges(g_ref)

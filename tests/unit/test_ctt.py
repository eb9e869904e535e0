"""Unit tests for the Copy Tracking Table (§III-A1 table logic)."""

import pytest

from repro.common.errors import AlignmentError
from repro.mcsquare.ctt import CopyTrackingTable

CL = 64


@pytest.fixture
def ctt():
    return CopyTrackingTable(capacity=64)


def addrs(ctt):
    return [(e.dst, e.src, e.size) for e in ctt.entries]


class TestInsertBasics:
    def test_simple_insert(self, ctt):
        assert ctt.insert(0x1000, 0x2000, 4 * CL).ok
        assert addrs(ctt) == [(0x1000, 0x2000, 4 * CL)]
        ctt.verify_invariants()

    def test_zero_size_is_noop(self, ctt):
        assert ctt.insert(0x1000, 0x2000, 0).ok
        assert len(ctt) == 0

    def test_unaligned_dst_rejected(self, ctt):
        with pytest.raises(AlignmentError):
            ctt.insert(0x1010, 0x2000, CL)

    def test_unaligned_size_rejected(self, ctt):
        with pytest.raises(AlignmentError):
            ctt.insert(0x1000, 0x2000, 100)

    def test_misaligned_source_allowed(self, ctt):
        assert ctt.insert(0x1000, 0x2010, 2 * CL).ok
        entry = ctt.entries[0]
        assert entry.src == 0x2010

    def test_oversized_entry_rejected(self, ctt):
        with pytest.raises(AlignmentError):
            ctt.insert(0x1000, 0x2000, 4 * 1024 * 1024)

    def test_capacity_full_returns_not_ok(self):
        small = CopyTrackingTable(capacity=2)
        assert small.insert(0x0000, 0x8000, CL).ok
        assert small.insert(0x1000, 0x9000, CL).ok
        result = small.insert(0x2000, 0xA000, CL)
        assert not result.ok
        assert len(small) == 2


class TestDestLookup:
    def test_lookup_hit_and_miss(self, ctt):
        ctt.insert(0x1000, 0x2000, 4 * CL)
        assert ctt.lookup_dest_line(0x1000).src == 0x2000
        assert ctt.lookup_dest_line(0x1000 + 3 * CL) is not None
        assert ctt.lookup_dest_line(0x1000 + 4 * CL) is None
        assert ctt.lookup_dest_line(0x0FC0) is None

    def test_lookup_mid_line_address(self, ctt):
        ctt.insert(0x1000, 0x2000, CL)
        assert ctt.lookup_dest_line(0x1020) is not None

    def test_source_lines_aligned(self, ctt):
        ctt.insert(0x1000, 0x2000, 2 * CL)
        assert ctt.source_lines_for_dest(0x1040) == [0x2040]

    def test_source_lines_misaligned_returns_two(self, ctt):
        ctt.insert(0x1000, 0x2010, 2 * CL)
        # dest line 0x1000 draws bytes [0x2010, 0x2050): two source lines
        assert ctt.source_lines_for_dest(0x1000) == [0x2000, 0x2040]

    def test_source_lines_untracked_is_none(self, ctt):
        assert ctt.source_lines_for_dest(0x1000) is None


class TestDestOverwrite:
    """New copies evict overlapping destinations (dest uniqueness)."""

    def test_exact_replacement(self, ctt):
        ctt.insert(0x1000, 0x2000, 2 * CL)
        ctt.insert(0x1000, 0x3000, 2 * CL)
        assert addrs(ctt) == [(0x1000, 0x3000, 2 * CL)]
        ctt.verify_invariants()

    def test_partial_overlap_trims_existing(self, ctt):
        ctt.insert(0x1000, 0x2000, 4 * CL)
        ctt.insert(0x1000 + 2 * CL, 0x3000, 4 * CL)
        assert addrs(ctt) == [
            (0x1000, 0x2000, 2 * CL),
            (0x1000 + 2 * CL, 0x3000, 4 * CL),
        ]
        ctt.verify_invariants()

    def test_overlap_splits_existing_into_two(self, ctt):
        ctt.insert(0x1000, 0x2000, 8 * CL)
        ctt.insert(0x1000 + 2 * CL, 0x3000, 2 * CL)
        assert addrs(ctt) == [
            (0x1000, 0x2000, 2 * CL),
            (0x1000 + 2 * CL, 0x3000, 2 * CL),
            (0x1000 + 4 * CL, 0x2000 + 4 * CL, 4 * CL),
        ]
        ctt.verify_invariants()

    def test_remnant_source_offsets_correct(self, ctt):
        ctt.insert(0x1000, 0x2030, 8 * CL)  # misaligned source
        ctt.insert(0x1000 + 4 * CL, 0x5000, CL)
        right = ctt.lookup_dest_line(0x1000 + 5 * CL)
        assert right.src_for_dst(0x1000 + 5 * CL) == 0x2030 + 5 * CL


class TestRedirection:
    """A→B then B→C must be stored as A→C (no copy chains)."""

    def test_full_redirect(self, ctt):
        ctt.insert(0x1000, 0x2000, 4 * CL)      # A(0x2000) -> B(0x1000)
        ctt.insert(0x5000, 0x1000, 4 * CL)      # B -> C redirects to A -> C
        entry = ctt.lookup_dest_line(0x5000)
        assert entry.src == 0x2000

    def test_partial_redirect_splits(self, ctt):
        ctt.insert(0x1000, 0x2000, 2 * CL)
        # New copy sources 4 lines starting at 0x1000; first 2 tracked.
        ctt.insert(0x5000, 0x1000, 4 * CL)
        first = ctt.lookup_dest_line(0x5000)
        last = ctt.lookup_dest_line(0x5000 + 2 * CL)
        assert first.src == 0x2000
        assert last.src == 0x1000 + 2 * CL
        ctt.verify_invariants()

    def test_redirect_counts_stat(self, ctt):
        ctt.insert(0x1000, 0x2000, CL)
        ctt.insert(0x5000, 0x1000, CL)
        assert ctt.stats.counters["redirects"].value >= 1

    def test_refused_redirecting_insert_counts_no_redirect(self):
        ctt = CopyTrackingTable(capacity=1)
        ctt.insert(0x1000, 0x2000, 2 * CL)
        # Half of the new source is the tracked destination: two
        # segments, one redirected, and no room for either.
        assert not ctt.insert(0x5000, 0x1000 + CL, 2 * CL).ok
        assert not ctt.insert(0x5000, 0x1000 + CL, 2 * CL).ok
        assert ctt.stats.counters["redirects"].value == 0
        assert ctt.stats.counters["insert_fails"].value == 2

    def test_no_chain_after_many_hops(self, ctt):
        ctt.insert(0x1000, 0x9000, CL)
        ctt.insert(0x2000, 0x1000, CL)
        ctt.insert(0x3000, 0x2000, CL)
        assert ctt.lookup_dest_line(0x3000).src == 0x9000

    def test_misaligned_redirect_reports_eager_lines(self, ctt):
        ctt.insert(0x1000, 0x2000, 2 * CL)
        # Source starts mid-way with an offset that is not line aligned
        # relative to the tracked dest: boundary line mixes two sources.
        result = ctt.insert(0x5000, 0x1000 + 0x20, 2 * CL)
        assert result.ok
        ctt.verify_invariants()
        # Every tracked dest line must have a single consistent source;
        # mixed lines are reported for eager resolution instead.
        for dst_line, pieces in result.eager_lines:
            assert sum(p[2] for p in pieces) == CL


class TestMerging:
    def test_contiguous_entries_merge(self, ctt):
        ctt.insert(0x1000, 0x2000, CL)
        ctt.insert(0x1000 + CL, 0x2000 + CL, CL)
        assert addrs(ctt) == [(0x1000, 0x2000, 2 * CL)]
        assert ctt.stats.counters["merges"].value == 1

    def test_non_contiguous_source_does_not_merge(self, ctt):
        ctt.insert(0x1000, 0x2000, CL)
        ctt.insert(0x1000 + CL, 0x9000, CL)
        assert len(ctt) == 2

    def test_non_contiguous_dest_does_not_merge(self, ctt):
        ctt.insert(0x1000, 0x2000, CL)
        ctt.insert(0x1000 + 2 * CL, 0x2000 + CL, CL)
        assert len(ctt) == 2

    def test_copy_whose_remnant_merges_away_ends_as_merged(self, ctt):
        class Spans:
            def __init__(self):
                self.ends = []

            def span_begin(self, *args):
                pass

            def span_end(self, _cat, span_id, args):
                self.ends.append((span_id, args["reason"]))

        ctt._trace = Spans()
        ctt.insert(0x1000, 0x2000, 4 * CL)
        # Re-copying the first half trims copy 0 to its second half,
        # which is contiguous with the new entry and merges into it.
        ctt.insert(0x1000, 0x2000, 2 * CL)
        assert addrs(ctt) == [(0x1000, 0x2000, 4 * CL)]
        assert ctt._trace.ends == [("copy:0", "merged")]
        assert ctt.stats.counters["copies_resolved"].value == 1

    def test_element_by_element_array_copy_merges_to_one(self, ctt):
        for i in range(16):
            ctt.insert(0x1000 + i * CL, 0x2000 + i * CL, CL)
        assert addrs(ctt) == [(0x1000, 0x2000, 16 * CL)]


class TestRemoval:
    def test_remove_whole_entry(self, ctt):
        ctt.insert(0x1000, 0x2000, 2 * CL)
        assert ctt.remove_dest_range(0x1000, 2 * CL) == 1
        assert len(ctt) == 0

    def test_remove_middle_line_splits(self, ctt):
        ctt.insert(0x1000, 0x2000, 3 * CL)
        ctt.remove_dest_range(0x1000 + CL, CL)
        assert addrs(ctt) == [
            (0x1000, 0x2000, CL),
            (0x1000 + 2 * CL, 0x2000 + 2 * CL, CL),
        ]
        ctt.verify_invariants()

    def test_remove_untracked_returns_zero(self, ctt):
        assert ctt.remove_dest_range(0x1000, CL) == 0

    def test_free_hint_drops_contained_dests(self, ctt):
        ctt.insert(0x1000, 0x2000, 2 * CL)
        ctt.insert(0x8000, 0x2000, 2 * CL)
        ctt.free_hint(0x1000, 4096)
        assert ctt.lookup_dest_line(0x1000) is None
        assert ctt.lookup_dest_line(0x8000) is not None


class TestSourceQueries:
    def test_source_overlaps(self, ctt):
        ctt.insert(0x1000, 0x2000, 2 * CL)
        assert len(ctt.source_overlaps(0x2000, CL)) == 1
        assert len(ctt.source_overlaps(0x2000 + 2 * CL, CL)) == 0

    def test_source_overlaps_shared_source(self, ctt):
        ctt.insert(0x1000, 0x2000, CL)
        ctt.insert(0x8000, 0x2000, CL)
        assert len(ctt.source_overlaps(0x2000, CL)) == 2

    def test_dest_lines_for_source_aligned(self, ctt):
        ctt.insert(0x1000, 0x2000, 2 * CL)
        assert ctt.dest_lines_for_source(0x2040, CL) == [0x1040]

    def test_dest_lines_for_source_misaligned_spans_two(self, ctt):
        ctt.insert(0x1000, 0x2010, 2 * CL)
        # Source line 0x2040 feeds dest bytes 0x1030..0x1070: two lines.
        assert ctt.dest_lines_for_source(0x2040, CL) == [0x1000, 0x1040]

    def test_dest_lines_for_untracked_source_empty(self, ctt):
        assert ctt.dest_lines_for_source(0x2000, CL) == []


class TestAsyncFreeSupport:
    def test_pop_smallest_claims_inactive(self, ctt):
        ctt.insert(0x1000, 0x2000, 4 * CL)
        ctt.insert(0x8000, 0x9000, CL)
        entry = ctt.pop_smallest()
        assert entry.size == CL
        assert not entry.active
        # Claimed entries are not re-claimed.
        second = ctt.pop_smallest()
        assert second is not entry

    def test_pop_smallest_empty_returns_none(self, ctt):
        assert ctt.pop_smallest() is None

    def test_pop_smallest_skips_a_destination_another_copy_reads(self, ctt):
        ctt.insert(0x8000, 0x1000, 4 * CL)
        # The smallest entry, but copying it would overwrite bytes the
        # first copy still reads.
        ctt.insert(0x1000, 0x2000, CL)
        entry = ctt.pop_smallest()
        assert (entry.dst, entry.size) == (0x8000, 4 * CL)
        assert ctt.pop_smallest() is None

    def test_occupancy(self, ctt):
        assert ctt.occupancy == 0.0
        ctt.insert(0x1000, 0x2000, CL)
        assert ctt.occupancy == pytest.approx(1 / 64)

    def test_tracked_bytes(self, ctt):
        ctt.insert(0x1000, 0x2000, 3 * CL)
        assert ctt.tracked_bytes() == 3 * CL

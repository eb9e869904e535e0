"""Small-scope sweep: every two-copy program of a slice of an 8-line window.

A window is eight cachelines of the lazy oracle's arena.  A copy in it
is one to three lines long; its destination is line-aligned and lies in
the window, and its source starts at a window line plus 0 or 8 B, with
its source lines inside the window.  Source and destination do not
overlap.  That gives 181 copies per window.

The 0x2F00 window crosses a 4 KB page, so ``memcpy_lazy_ops`` splits
copies there; the 0x2E00 window does not.

The tier-1 slice runs the ordered pairs in which the second copy's
source overlaps the first copy's destination, its destination overlaps
the first copy's source, and its source is misaligned (2,250 programs
per window): the second insert then redirects part of its source
through the first copy's tracking while overwriting the bytes that
tracking reads.  ``python -m tests.property.test_lazy_sweep`` runs all
181 x 181 ordered pairs of both windows and prints the failures.
"""

from typing import Iterable, Iterator, List, Tuple

import pytest

from repro.common.units import CACHELINE_SIZE
from tests.property.test_lazy_oracle import run_case

CL = CACHELINE_SIZE
WINDOWS = (0x2E00, 0x2F00)
WINDOW_LINES = 8

Copy = Tuple[int, int, int]  # (dst, src, size), arena offsets


def _overlap(a: int, a_size: int, b: int, b_size: int) -> bool:
    return a < b + b_size and b < a + a_size


def window_copies(base: int) -> List[Copy]:
    """Every copy of the window at arena offset ``base``."""
    out = []
    for lines in (1, 2, 3):
        size = lines * CL
        for dst_line in range(WINDOW_LINES - lines + 1):
            dst = base + dst_line * CL
            for src_line in range(WINDOW_LINES - lines + 1):
                for misalign in (0, 8):
                    src = base + src_line * CL + misalign
                    if not _overlap(dst, size, src, size):
                        out.append((dst, src, size))
    return out


def sliced(first: Copy, second: Copy) -> bool:
    """Whether the ordered pair is in the tier-1 slice."""
    dst1, src1, size1 = first
    dst2, src2, size2 = second
    return (_overlap(src2, size2, dst1, size1)
            and _overlap(dst2, size2, src1, size1)
            and src2 % CL != 0)


def programs(base: int, full: bool = False) -> Iterator[List[tuple]]:
    copies = window_copies(base)
    for first in copies:
        for second in copies:
            if full or sliced(first, second):
                yield [("lazy_copy",) + first, ("lazy_copy",) + second]


def failures(steps_list: Iterable[List[tuple]]) -> List[List[tuple]]:
    """The programs whose memory diverges from eager memcpy."""
    out = []
    for steps in steps_list:
        try:
            run_case(steps)
        except AssertionError:
            out.append(steps)
    return out


@pytest.mark.parametrize("base", WINDOWS, ids=lambda b: f"{b:#x}")
def test_two_copy_slice_equals_eager(base):
    sliced_programs = list(programs(base))
    assert len(sliced_programs) == 2250
    failed = failures(sliced_programs)
    assert not failed, (
        f"{len(failed)} programs diverge from eager memcpy, "
        f"first: {failed[0]}")


if __name__ == "__main__":
    for base in WINDOWS:
        failed = failures(programs(base, full=True))
        print(f"window {base:#x}: {len(failed)} of "
              f"{len(window_copies(base)) ** 2} programs fail")
        for steps in failed[:5]:
            print("   ", [(kind, hex(dst), hex(src), size)
                          for kind, dst, src, size in steps])

"""Linux pipe model with user↔kernel buffer copies (Fig. 19).

A pipe transfer costs two syscalls and two copies: ``pipe_write`` copies
the user buffer into the kernel's circular pipe buffer, and ``pipe_read``
copies it back out into the reader's buffer.  The paper modifies
``pipe_write`` / ``pipe_read`` to use lazy copies instead; here the same
substitution is made by constructing the :class:`Pipe` with the
``mclazy`` backend (or any other :class:`~repro.copyengine.CopyBackend`).

For small transfers the syscall cost dominates, so (MC)² helps little;
for larger transfers it roughly doubles throughput by eliding both
copies (§V-B).
"""

from __future__ import annotations

from typing import Iterator

from repro.common import params
from repro.common.errors import SimulationError
from repro.copyengine.base import CopyBackend
from repro.isa import ops
from repro.isa.ops import Op


class Pipe:
    """A kernel pipe: fixed-size circular buffer in kernel memory."""

    def __init__(self, system, engine: CopyBackend,
                 buffer_size: int = params.PIPE_BUFFER_SIZE):
        self.system = system
        self.engine = engine
        self.buffer_size = buffer_size
        self.kernel_buffer = system.alloc(buffer_size)
        self._head = 0       # next write offset
        self._tail = 0       # next read offset
        self._fill = 0
        self.bytes_written = 0
        self.bytes_read = 0

    @property
    def available(self) -> int:
        """Bytes currently buffered in the kernel."""
        return self._fill

    @property
    def space(self) -> int:
        """Free space in the kernel buffer."""
        return self.buffer_size - self._fill

    # ------------------------------------------------------------- write
    def write_ops(self, user_addr: int, size: int) -> Iterator[Op]:
        """``write(pipefd, buf, size)``: syscall + copy into the kernel.

        The caller must not exceed :attr:`space` (a real kernel would
        block; the simulated workloads alternate write/read so the
        buffer never overflows).
        """
        if size > self.space:
            raise SimulationError("pipe buffer overflow; drain it first")
        # Syscall entry plus pipe_lock/wakeup of the reader.
        yield ops.compute(params.SYSCALL_CYCLES + params.PIPE_WAKEUP_CYCLES)
        pos = 0
        while pos < size:
            chunk = min(size - pos, self.buffer_size - self._head)
            yield from self.engine.copy_ops(
                self.kernel_buffer + self._head, user_addr + pos, chunk)
            self._head = (self._head + chunk) % self.buffer_size
            pos += chunk
        self._fill += size
        self.bytes_written += size

    # -------------------------------------------------------------- read
    def read_ops(self, user_addr: int, size: int) -> Iterator[Op]:
        """``read(pipefd, buf, size)``: syscall + copy out of the kernel."""
        if size > self._fill:
            raise SimulationError("pipe underflow; write before reading")
        # Syscall entry plus pipe_lock/schedule-in of the reader.
        yield ops.compute(params.SYSCALL_CYCLES + params.PIPE_WAKEUP_CYCLES)
        pos = 0
        while pos < size:
            chunk = min(size - pos, self.buffer_size - self._tail)
            # Kernel-buffer bytes the reader consumes count as accesses
            # of copied data, so route them through the engine.
            yield from self.engine.copy_ops(
                user_addr + pos, self.kernel_buffer + self._tail, chunk)
            self._tail = (self._tail + chunk) % self.buffer_size
            pos += chunk
        self._fill -= size
        self.bytes_read += size

    def transfer_ops(self, src_addr: int, dst_addr: int,
                     size: int) -> Iterator[Op]:
        """One producer→consumer round trip through the pipe."""
        yield from self.write_ops(src_addr, size)
        yield from self.read_ops(dst_addr, size)

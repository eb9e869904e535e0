"""Software layer: memcpy variants, allocator, and the copy op emitters."""

from repro.sw.allocator import FreeListAllocator
from repro.sw.engine import CopyEngine, KernelEagerEngine, LazyEngine
from repro.sw.memcpy import (memcpy_lazy_ops, memcpy_ops, stream_read_ops,
                             touch_ops)

__all__ = ["CopyEngine", "KernelEagerEngine", "LazyEngine",
           "FreeListAllocator", "memcpy_ops", "memcpy_lazy_ops",
           "touch_ops", "stream_read_ops"]

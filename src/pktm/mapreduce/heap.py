"""Keep the memory a task frees for the next task of the same process.

Each map or reduce task allocates and frees megabytes of numpy temporaries
(the combiner alone about 7 MB per 16-trace migration task).  Under
glibc's defaults the freed top of the heap is trimmed back to the kernel
and arrays above the mmap threshold are unmapped on free, so the next task
faults every page in again.  On a 2-vCPU Xeon guest a threaded 5-velocity
scan took 260k-370k minor faults and 1.2-2.4 s of system time per job that
way, while its user time stayed within 2.5-2.7 s.  :func:`keep_task_memory`
fixes the thresholds so that arrays up to ``MMAP_THRESHOLD`` come from the
heap and up to ``TRIM_THRESHOLD`` of free heap stays mapped, and it puts
every thread on the one main arena, so that the retained memory is counted
once however many threads a job starts.  The serial and threaded scheduler
calls it; multiprocess workers run untuned.  Only glibc is tuned; elsewhere
this is a no-op.
"""

from __future__ import annotations

import ctypes
import os

# mallopt parameters, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

MMAP_THRESHOLD = 4 * 2**20
TRIM_THRESHOLD = 32 * 2**20


def keep_task_memory() -> None:
    """Tune glibc's allocator for repeated tasks in this process.

    Calling it again changes nothing.  The arena limit holds only if no
    thread of the process has needed an arena of its own before the first
    call; the thresholds hold for every later allocation.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):  # not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)

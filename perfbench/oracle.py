"""Reference results, computed in a child process.

The parent sends a pickled request on stdin and reads the pickled answer
from stdout.  Running the serial reference in its own process keeps its
memory out of the parent's high-water mark, so ``peak_rss_mb`` reflects the
timed jobs.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

CHILD_TIMEOUT_S = 150.0


def in_child(kind: str, **kwargs):
    """Run ``kind`` with ``kwargs`` in a fresh interpreter and return its result."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        input=pickle.dumps((kind, kwargs)), stdout=subprocess.PIPE,
        check=True, timeout=CHILD_TIMEOUT_S)
    return pickle.loads(done.stdout)


def serial_image(survey_path, job, out_path) -> None:
    """The serial migration of the survey file, written as an image file."""
    from pktm import migrate_survey_serial
    from pktm.storage import read_survey, write_image

    write_image(out_path, migrate_survey_serial(
        read_survey(survey_path, job.binning), job))


def serial_scan(survey_path, grid, params, binning, candidates):
    """Focus metrics of the serial scan (``config=None``)."""
    from pktm import constant_velocity_scan
    from pktm.storage import read_survey

    result = constant_velocity_scan(
        read_survey(survey_path, binning), grid, params, binning, candidates)
    return result.metrics


if __name__ == "__main__":
    name, kwargs = pickle.loads(sys.stdin.buffer.read())
    answer = {"serial_image": serial_image, "serial_scan": serial_scan}[name](**kwargs)
    sys.stdout.buffer.write(pickle.dumps(answer))

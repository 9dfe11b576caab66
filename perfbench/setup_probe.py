"""One set-up in a fresh interpreter: import srtd and build a workload's
inputs (writing the frames for the CLI workload), then print the
CLOCK_MONOTONIC time at which a solve could start.

    python3 perfbench/setup_probe.py WORKLOAD SEED FRAME_DIR
"""

import sys
import time
from pathlib import Path

import env


def main(argv) -> int:
    name, seed, frame_dir = argv
    env.pin_threads()
    env.use_source_tree()
    import srtd  # noqa: F401  (the import is part of set-up)

    from workloads import WORKLOADS, make_inputs, write_frames
    w = WORKLOADS[name]
    inputs = make_inputs(w, int(seed))
    if w.is_cli:
        write_frames(inputs.truth, Path(frame_dir))
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

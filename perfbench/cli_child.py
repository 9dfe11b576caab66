"""Run the `srtd` command line in a fresh process, as a user would.

    python3 perfbench/cli_child.py --record FILE [--trace | --peak] -- <srtd arguments>

The package is not installed and has no __main__, so this calls
srtd.cli.main with the checkout's src on the path. It writes to FILE the
exit code, the import time, the tracemalloc peak (--peak) and the spans
(all layers with --trace, else only the srtd_complete calls, which carry
each solve's iteration counts and residuals). Exits with srtd's code.
"""

import json
import sys
import time
import tracemalloc

import env


def main(argv) -> int:
    split = argv.index("--")
    opts, srtd_args = argv[:split], argv[split + 1:]
    record_path = opts[opts.index("--record") + 1]
    env.pin_threads()
    env.use_source_tree()
    if "--peak" in opts:
        tracemalloc.start()
    start = time.perf_counter()
    import srtd.cli
    import_s = time.perf_counter() - start

    from tracing import SITES, SOLVES_ONLY, Tracer
    tracer = Tracer()
    with tracer.installed(SITES if "--trace" in opts else SOLVES_ONLY):
        code = srtd.cli.main(srtd_args)
    peak = tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else 0
    with open(record_path, "w") as fh:
        json.dump({"returncode": code, "import_s": import_s, "peak_bytes": peak,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

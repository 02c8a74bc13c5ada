"""Run one moluq CLI stage in-process through ``moluq.cli.main(argv)`` with spans.

Usage: python3 traced_stage.py SPAWNED_AT SPANS_JSON CLI_ARGV...

SPAWNED_AT is the parent's ``time.time()`` just before it started this
process, so ``startup_s`` covers interpreter start and the imports of
moluq.cli.  The spans are written to SPANS_JSON when the stage returns; the
process exits with the stage's exit code.
"""

import json
import sys
import time


def main() -> int:
    spawned_at, spans_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import moluq.cli

    startup_s = time.time() - spawned_at
    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    start = time.perf_counter()
    code = moluq.cli.main(argv)
    wall_s = time.perf_counter() - start
    with open(spans_path, "w") as fh:
        json.dump({"startup_s": startup_s, "main_s": wall_s, "exit": code,
                   "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

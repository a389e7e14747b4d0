"""One measured finmon process: `python3 child.py STAMPS MODE -- CLI ARGS`.

Runs `finmon.cli.main` on the given arguments and writes the
`time.monotonic()` stamps the parent needs into STAMPS (JSON):
`first_check` when the first check starts and `report_written` when
`main` has written the report. The monotonic clock is shared by all
processes of the machine, so the parent subtracts its own spawn stamp.

MODE is `run` (plain run), `setup` (exit as soon as the first check
starts, for set-up probes) or `trace:PATH` (install the tracer of
`tracer.py` and write its spans and aggregates to PATH).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time


def _write(path: str, stamps: dict) -> None:
    with open(path, "w") as fh:
        json.dump(stamps, fh)


def main() -> int:
    stamps_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py STAMPS MODE -- CLI ARGS")
    import finmon.cli as cli

    tracer = None
    if mode.startswith("trace:"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    stamps: dict[str, float] = {}
    setup_done = threading.Lock()

    def mark_first_check(fn):
        def wrapped(*args, **kwargs):
            # dict.setdefault is atomic, so concurrent workers keep the earliest
            stamps.setdefault("first_check", time.monotonic())
            if mode == "setup":
                setup_done.acquire()  # the first worker writes and exits
                _write(stamps_path, stamps)
                os._exit(0)
            return fn(*args, **kwargs)

        return wrapped

    for name in ("run_suite", "run_system_check", "check_val_equiv"):
        setattr(cli, name, mark_first_check(getattr(cli, name)))

    rc = cli.main(argv)
    stamps["report_written"] = time.monotonic()
    if tracer is not None:
        tracer.dump(mode[len("trace:"):])
    _write(stamps_path, stamps)
    return rc


if __name__ == "__main__":
    sys.exit(main())

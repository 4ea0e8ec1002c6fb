"""Run ``dynav run`` in a fresh interpreter and record when steps happen.

Calls ``dynav.cli.main`` with the given arguments, which is all the ``dynav``
command does, after rebinding ``open`` in ``dynav.cli`` so that every line
written to a ``*.steps.jsonl`` log is timestamped, and a calibration slice
(``calib.py``) runs right before each such log opens and right after it
closes.  Writes a JSON report to REPORT: the time ``import dynav.cli`` took,
the ``time.monotonic()`` of the first step-log open (the end of set-up), the
stamps of every log line, the two calibration slices of each log, in opening
order, and the seconds the calibration took in all, its set-up included.

    PYTHONPATH=src python3 perfbench/cli_child.py REPORT [--trace SUMMARY]
        [-- run --episodes SPEC --out DIR --workers 1]

With ``--trace`` the run is traced and the tracer's summary and spans are written
to SUMMARY and SUMMARY's ``.spans.json`` sibling.  Without CLI arguments it
only imports ``dynav.cli``.
"""
from __future__ import annotations

import argparse
import builtins
import json
import os
import sys
import threading
import time


class _StampedFile:
    """File whose every write records ``time.monotonic()`` first, and which
    calls ``on_close`` once it is closed."""

    def __init__(self, fh, stamps, on_close):
        self._fh = fh
        self._stamps = stamps
        self._on_close = on_close

    def write(self, text):
        self._stamps.append(time.monotonic())
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        self._on_close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    cli_args = argv[split + 1:]
    p = argparse.ArgumentParser()
    p.add_argument("report")
    p.add_argument("--trace", default=None)
    args = p.parse_args(argv[:split])

    t0 = time.monotonic()
    import dynav.cli as cli
    report = {"import_s": time.monotonic() - t0, "first_step_open": None, "stamps": {},
              "cal": {}, "cal_s": 0.0}

    def write_report():
        with builtins.open(args.report, "w") as fh:
            json.dump(report, fh)

    if not cli_args:
        write_report()
        return 0

    kernel = []
    cal_lock = threading.Lock()

    def calibrate(name):
        with cal_lock:
            t = time.monotonic()
            if not kernel:
                from calib import Kernel

                kernel.append(Kernel())
            report["cal"].setdefault(name, []).append(kernel[0].slice())
            report["cal_s"] += time.monotonic() - t

    def stamped_open(path, mode="r", *a, **kw):
        if not str(path).endswith(".steps.jsonl"):
            return builtins.open(path, mode, *a, **kw)
        if report["first_step_open"] is None:
            report["first_step_open"] = time.monotonic()
        name = os.path.basename(path)
        calibrate(name)
        fh = builtins.open(path, mode, *a, **kw)
        return _StampedFile(fh, report["stamps"].setdefault(name, []), lambda: calibrate(name))

    cli.open = stamped_open
    if args.trace:
        from spans import Tracer

        with Tracer() as tracer:
            rc = cli.main(cli_args)
        with builtins.open(args.trace, "w") as fh:
            json.dump(tracer.summary(), fh)
        tracer.write_spans(args.trace[:-len(".json")] + ".spans.json")
    else:
        rc = cli.main(cli_args)
    write_report()
    return rc


if __name__ == "__main__":
    sys.exit(main())

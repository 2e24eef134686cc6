"""One benchmark sample: a fresh interpreter running the `radwarp` CLI once.

    python3 sample.py SRC RESULT [--trace SPANS] [--warmup] -- CLI-ARGS...

Imports radwarp from SRC, calls `radwarp.cli.main(CLI-ARGS)` and writes a
JSON result to RESULT: CLOCK_MONOTONIC stamps of the first check starting
(entry of `run_suite`) and of the report being written, the ticks of the
speed probe, the CLI exit code, peak resident memory, and with --trace the
layer counters (the spans go to SPANS).  --warmup only imports the program,
so the first timed sample does not pay for byte-code compilation.
"""

import json
import os
import resource
import signal
import sys
import time
import traceback


PROBE_PERIOD_S = 0.02


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe_loop() -> int:
    acc = 0
    table = {}
    for i in range(1000):
        table[i & 15] = (i, i * 0.5)
        acc += len(table) + int(i * 1.5)
    return acc


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_PERIOD_S of wall time.

    The speed of a shared machine drifts by up to 2x within seconds; the
    loop's duration drifts with it, so run.py scales a sample's times by the
    mean loop duration.  The loop runs from a SIGALRM handler, between two
    byte codes of the program, and its time is left out of the sample's
    set-up and run windows.
    """

    def __init__(self):
        self.ticks = []  # (CLOCK_MONOTONIC start, duration) of each loop

    def _tick(self, signum, frame):
        start = monotonic()
        _probe_loop()
        self.ticks.append((start, monotonic() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv):
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    src, result_path = own[0], own[1]
    spans_path = own[own.index("--trace") + 1] if "--trace" in own else None

    probe = SpeedProbe()
    probe.start()
    sys.path.insert(0, src)
    import radwarp.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"radwarp was imported from {cli.__file__}, not from {src}")
    if "--warmup" in own:
        probe.stop()
        return

    result = {}
    tracer = None
    if spans_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    run_suite = cli.run_suite

    def timed_run_suite(*args, **kwargs):
        result["first_check"] = monotonic()
        return run_suite(*args, **kwargs)

    cli.run_suite = timed_run_suite
    try:
        result["exit_code"] = cli.main(cli_args)
    except Exception:  # the sample must still report what happened
        result["error"] = traceback.format_exc()
    finally:
        result["end"] = monotonic()
        probe.stop()
        cli.run_suite = run_suite
        if tracer is not None:
            tracer.restore()
    result["probe_ticks"] = probe.ticks
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write_spans(spans_path)
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])

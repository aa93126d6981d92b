"""Run one pass of a workload in this fresh interpreter and print one JSON
line describing it.

    python3 perfbench/one_pass.py MODE WORKLOAD SEED [SPANS_FILE]

MODE is `plain` (timed, with only the speed probe of speed.py), `traced`
(span wrappers from tracer.py; spans written to SPANS_FILE), `counted` (every
call of `Fraction.__new__` counted exactly; on CPython 3.11 every Fraction
arithmetic result is built through it) or `control` (the negative-control
sweep).

Most imports are deferred so that nothing but the harness is loaded before
the set-up timing starts.
"""

import os
import sys
import time


def main():
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path[:0] = [src, here]
    import workloads

    start = time.perf_counter()
    inputs = workloads.build_inputs(workload, seed)
    setup_s = time.perf_counter() - start

    import capelli

    if not os.path.abspath(capelli.__file__).startswith(src + os.sep):
        raise SystemExit(f"capelli imported from {capelli.__file__}, not from {src}")

    tracer = fraction_new = None
    fraction_news = 0
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer(f"{workload}-{seed}-{os.getpid()}")
        tracer.install()
    elif mode == "counted":
        from fractions import Fraction

        fraction_new = Fraction.__new__

        def counting_new(*args, **kwargs):
            nonlocal fraction_news
            fraction_news += 1
            return fraction_new(*args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)

    import contextlib
    from speed import SpeedProbe

    probe = SpeedProbe() if mode == "plain" else contextlib.nullcontext()
    with probe:
        start = time.perf_counter()
        output = workloads.run_pass(workload, inputs)
        wall_s = time.perf_counter() - start

    if fraction_new is not None:
        Fraction.__new__ = staticmethod(fraction_new)
    import resource

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if mode == "plain":
        result["wall_s"] -= probe.busy_s()
        result["probe_s"] = probe.probe_s()
    if mode == "control":
        result["control_error"] = workloads.control_verdict(output)
    else:
        result["digest"], result["units"] = workloads.digest_and_units(workload, output)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        tracer.write(sys.argv[4])
    if fraction_new is not None:
        result["fraction_new_calls"] = fraction_news
    import json

    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Benchmark child process.

Two modes:

    python3 bench/worker.py --setup CONFIG
        Prints the seconds from a fresh interpreter to a built
        zs_sequence: import of hypervekua.cli, config parse, potential and
        sequence build.  Nothing from numpy or the library is imported
        before the clock starts.

    python3 bench/worker.py [--trace]
        Serves CLI jobs in a closed loop: one JSON request per stdin line,
        one JSON reply per stdout line.  A job request is
        {"op": "job", "argv": [...]}; the reply carries the exit code, the
        wall and process CPU seconds of hypervekua.cli.main, and with
        --trace the per-layer totals of that job.  {"op": "rss"} replies
        with this process's ru_maxrss.  The CLI's own stdout is captured,
        so it cannot corrupt the protocol.

The library is imported from PYTHONPATH, which the parent sets to the
checkout's src/.
"""

import sys
import time


def setup_seconds(config_path: str) -> float:
    t0 = time.perf_counter()
    import json

    from hypervekua import cli
    from hypervekua.zakharov_shabat import zs_sequence

    with open(config_path) as fh:
        raw = json.load(fh)
    cfg = cli.RunConfig.from_dict(raw)
    zs_sequence(cli._build_potential(cfg), cli._working_domain(cfg))
    return time.perf_counter() - t0


def serve(trace: bool) -> None:
    import contextlib
    import gc
    import io
    import json
    import resource

    from hypervekua import cli

    main = cli.main
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        main = tracer.wrap("cli.job", cli.main)
    proto = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "rss":
            reply = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        else:
            captured = io.StringIO()
            error = None
            rc = None
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured):
                    rc = main(request["argv"])
            except (Exception, SystemExit) as exc:
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            reply = {"rc": rc, "wall": wall, "cpu": cpu, "error": error,
                     "stdout": captured.getvalue()[-2000:]}
            if tracer is not None:
                reply["trace"] = tracer.collect()
            # a CLI run is a fresh process: drop this job's cyclic garbage
            # now, so neither the next job's time nor the peak RSS depends
            # on when the collector happens to run
            gc.collect()
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--setup":
        print(repr(setup_seconds(sys.argv[2])))
    else:
        serve("--trace" in sys.argv[1:])

"""One measured `sshquench run` in a fresh interpreter.

    python3 bench_child.py CONFIG OUT_DIR THREADS TRACE EXACT SPANS_PATH

Started by run.py with ``SSHQUENCH_BENCH_ROOT`` (the checkout) and
``SSHQUENCH_BENCH_SPAWNED`` (``time.monotonic()`` just before the spawn) in
the environment. Prints one JSON object as its last line:

    setup_s      spawn until ``import sshquench.cli`` returned
    run_s        wall time of ``cli.main(["run", ...])``, outputs written
    exit_code    return value of that call; report_exit_code of ``report``
    peak_rss_mb  ``ru_maxrss`` of this process at the end
    layers       per-layer metrics, only when TRACE is 1

Exits with code 2 when ``sshquench`` is not imported from the checkout's
``src`` directory, so an installed copy is never measured by mistake.
"""
import os
import sys
import time


def main(argv: list[str]) -> int:
    # Only the package import may fall inside setup_s; every other import
    # of this script follows it.
    import sshquench.cli as cli

    setup_s = time.monotonic() - float(os.environ["SSHQUENCH_BENCH_SPAWNED"])

    import json
    import resource
    from pathlib import Path

    config, out_dir, threads, trace, exact, spans_path = argv
    src = Path(os.environ["SSHQUENCH_BENCH_ROOT"]).resolve() / "src"
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: sshquench imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if trace == "1":
        import bench_trace

        tracer = bench_trace.Tracer()
        bench_trace.install(tracer)

    run_args = ["run", config, "--out", out_dir, "--quiet", "--threads", threads]
    if exact == "1":
        run_args.append("--exact-probabilities")
    start = time.perf_counter()
    exit_code = cli.main(run_args)
    run_s = time.perf_counter() - start

    out = Path(out_dir)
    bytes_written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    report_exit_code = cli.main(["report", out_dir])

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "exit_code": exit_code,
        "report_exit_code": report_exit_code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["layers"]["experiment.bytes_written"] = bytes_written
        tracer.write(Path(spans_path))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Print a SHA-256 digest of every file a fixed set of runs writes.

Usage: PYTHONPATH=<checkout>/src python scripts/output_digests.py > digests.txt

The runs are every ``*.conf`` in this directory, once as written and once
with ``save_shots`` on, and the workloads of ``benchmark/run.py`` at seeds 1
and 11, each with its own thread count. Each line reads ``<run>/<file>
<sha256>``; ``summary.txt`` is hashed after its first line, which names the
run directory. The package is imported from the Python path, so pointing
``PYTHONPATH`` at two checkouts and diffing the two outputs shows whether a
change moved any output byte.
"""
import hashlib
import sys
import tempfile
from pathlib import Path

from sshquench.config import parse_config_text
from sshquench.experiment import compare_report, execute

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_SEEDS = (1, 11)


def _runs():
    """(run name, config text) pairs in a fixed order.

    Settings beyond a file's own are appended as key lines, which every
    version of the config format parses alike.
    """
    sys.path.insert(0, str(ROOT / "benchmark"))  # run.py imports its siblings
    from run import WORKLOADS

    for path in sorted(Path(__file__).parent.glob("*.conf")):
        text = path.read_text()
        yield path.stem, text
        yield f"{path.stem}+shots", f"{text}\nsave_shots = true\n"
    for name, workload in sorted(WORKLOADS.items()):
        for seed in WORKLOAD_SEEDS:
            text = workload.config_text(seed)
            yield f"{name}-seed{seed}", f"{text}\nthreads = {workload.threads}\n"


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.txt":
        data = data.split(b"\n", 1)[1]
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _runs():
            out = Path(tmp) / name
            execute(parse_config_text(text), out, quiet=True)
            compare_report(out)
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                print(f"{name}/{path.relative_to(out).as_posix()} {_digest(path)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

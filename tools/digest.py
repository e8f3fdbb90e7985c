"""One SHA-256 over the exit code and stdout of every request of a workload.

    python3 tools/digest.py cli-small [exact-core ratfun-rules] [--seed 1]

Each request of ``bench/workloads.generate(workload, seed)`` runs through
``polytangent.cli.main`` in-process, in order.  A ``plot`` request writes
its SVG into a temporary directory that stands in for ``{PLOTDIR}``: its
stdout is hashed with that directory written back as ``{PLOTDIR}``, and
the bytes of the SVG it wrote are hashed after it.  One line per
workload gives the workload, the seed, the number of requests hashed and
the digest.  Two checkouts that print the same digests gave the same
exit code, the same stdout and the same figures, byte for byte, on every
request.

The package is imported from ``src`` and the generator from ``bench``
next to this directory, so the digests are those of this checkout.
Nothing under ``bench`` is written, and the temporary directory is
removed afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PLOTDIR = "{PLOTDIR}"  # the placeholder that bench/workloads.py writes into plot paths


def digest(cli, rounds, plotdir: str) -> tuple[int, str]:
    """(requests hashed, SHA-256 over each one's exit code, stdout and SVG)."""
    sha, count = hashlib.sha256(), 0
    for reqs in rounds:
        for argv, spec in reqs:
            argv = [a.replace(PLOTDIR, plotdir) for a in argv]
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse refused the argv
                    code = exc.code
            body = out.getvalue().replace(plotdir, PLOTDIR).encode()
            sha.update(f"{code} {len(body)}\n".encode())
            sha.update(body)
            if spec["command"] == "plot":
                svg = Path(spec["out"].replace(PLOTDIR, plotdir))
                figure = svg.read_bytes() if svg.exists() else b""
                svg.unlink(missing_ok=True)
                sha.update(f"{len(figure)}\n".encode())
                sha.update(figure)
            count += 1
    return count, sha.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", nargs="+")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from polytangent import cli

    import workloads

    for name in args.workload:
        if name not in workloads.WORKLOADS:
            ap.error(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    with tempfile.TemporaryDirectory(prefix="digest-plots-") as plotdir:
        for name in args.workload:
            count, hexdigest = digest(cli, workloads.generate(name, args.seed), plotdir)
            print(f"{name} seed={args.seed} requests={count} sha256={hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``perfbench/digests.json``: one pass per workload and input
variant, recording the digest of every simulation's result.

Run from the repository root, only when the simulated numbers are meant
to change (a ``SPEC_VERSION`` bump)::

    python3 perfbench/bless.py [--workloads mesh fuzz] [--variants 0 5]

Workloads or variants not named keep their committed digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.probe import Probe, install  # noqa: E402
from perfbench.run import DIGESTS, pin_env  # noqa: E402
from perfbench.workloads import VARIANTS, WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS))
    ap.add_argument("--variants", nargs="+", type=int,
                    default=list(range(VARIANTS)))
    args = ap.parse_args()
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    workdir = ROOT / ".perfbench-work" / "bless"
    probe = Probe()
    uninstall = install(probe)
    status = 0
    try:
        for name in args.workloads:
            for variant in args.variants:
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                pin_env()
                wl = WORKLOADS[name](variant, str(workdir), probe)
                wl.setup()
                probe.reset()
                out = wl.run()
                # A failed simulation gets no digest, so the benchmark
                # keeps reporting it until the simulator is fixed.
                failed = [f"{s.key}: {s.error}" for s in out.sims if s.digest is None]
                failed += [c for c, ok in out.checks.items() if not ok]
                for line in failed:
                    print(f"{name} variant {variant}: FAILED {line}", file=sys.stderr)
                status |= bool(failed)
                table.setdefault(name, {})[str(variant)] = {
                    s.key: s.digest for s in out.sims if s.digest is not None
                }
                print(f"{name} variant {variant}: {len(out.sims)} digests", flush=True)
                DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    finally:
        uninstall()
        shutil.rmtree(workdir.parent, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""One workload run in a fresh process; prints one JSON document.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``, an empty JIT plan
cache and no ``REPRO_*`` overrides.  Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--warmup", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced run's spans here (JSONL)")
    args = ap.parse_args(argv)

    runner = (workloads.run_serve if args.workload.startswith("serve_")
              else workloads.run_library)
    run = runner(args.workload, args.seed, args.seconds, args.warmup,
                 bool(args.trace), args.setup_only)
    if args.setup_only:
        doc = {"setup_s": run.setup_s}
    else:
        doc = workloads.summarize(run)
        doc["info"] = run.info
        doc["layers"] = run.layers
        if args.spans and run.recorder is not None:
            run.recorder.write_jsonl(args.spans)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

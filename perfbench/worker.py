"""One fresh interpreter running the ``fig1`` or ``mpc`` workload.

Started by ``run.py``: the worker sets up, prints a ready line (the parent
times set-up from spawn to that line), and unless ``--setup-only`` runs the
measured loop and prints its result as one JSON line.
"""

from __future__ import annotations

import argparse
import sys

from common import emit_result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=["fig1", "mpc"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.workload == "fig1":
        import fig1 as workload
    else:
        import mpc as workload
    state = workload.setup(args.seed)
    if args.setup_only:
        return 0
    emit_result(workload.run(state, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

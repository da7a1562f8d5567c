"""Start ``repro serve`` with the service's layers wrapped in spans.

Usage: ``python perfbench/svc_launcher.py SPANS_FILE serve --port 0 ...``

The wrappers are installed on the service modules' imports before the
server starts, so the server runs exactly as ``python -m repro serve`` with
the same arguments would.  The spans are written when the server has
drained after SIGTERM.
"""

from __future__ import annotations

import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import repro.backends.batch as batch_backend
    import repro.cli
    import repro.service.batcher as batcher
    import repro.service.server as server
    from repro.backends.cache import ResultCache

    tracer = Tracer()
    tracer.patch(server, "parse_solve_request", "parse", "service")
    tracer.patch(server, "render_response", "render", "service")
    tracer.patch(batcher, "run_sweep", "run_sweep", "backends")
    tracer.patch(batch_backend, "execute_point", "execute", "solve")
    tracer.patch(ResultCache, "load", "cache_load", "cache")
    tracer.patch(ResultCache, "store", "cache_store", "cache")
    code = repro.cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

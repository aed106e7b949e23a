"""Traced daemon launcher: install the layer wrappers, then run ``repro daemon``.

Run by ``run.py`` for the traced run of a wire workload::

    python3 perfbench/daemon_launch.py OUT_PREFIX [repro daemon options]

The wrappers of ``tracing.py`` go in first; then ``repro.cli.main``
starts the daemon exactly as ``python3 -m repro.cli daemon`` does in the
untraced run.  On SIGINT the daemon stops as usual and the spans are
written to ``OUT_PREFIX.npz``/``.json`` with the facts read off the
daemon object (resident sampler time, tracer span count).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    out_prefix, daemon_args = Path(argv[0]), argv[1:]
    import tracing

    log = tracing.install()
    from repro.cli import main as cli_main
    from repro.daemon.server import ReproDaemon
    from repro.obs import get_tracer

    daemons: list[ReproDaemon] = []
    init = ReproDaemon.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        daemons.append(self)

    ReproDaemon.__init__ = capture
    try:
        return cli_main(["daemon", *daemon_args])
    finally:
        extra: dict[str, object] = {"pid": os.getpid()}
        if daemons:
            daemon = daemons[0]
            if daemon.profiler is not None:
                extra["sampler"] = daemon.profiler.stats()
            extra["spans_total"] = get_tracer().finished_total
            extra["submitted"] = daemon.server.submitted
        log.dump(out_prefix, extra)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Traced ``repro`` CLI: install the benchmark's span wrappers, then run
the real command line.

    python3 perfbench/server_entry.py OUT serve --store ... --port 0

When the CLI returns (``repro serve`` drains and exits on SIGTERM) the
spans are written to ``OUT.npz``/``OUT.json`` and the served server's
batcher and ledger counters to ``OUT.stats.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import require_program  # noqa: E402


def main(argv: list[str]) -> int:
    require_program()
    from perfbench.layers import install
    from perfbench.spans import SpanLog

    out = Path(argv[0])
    log = SpanLog()
    servers: list = []
    inst = install(log, servers)
    from repro.cli import main as cli_main

    try:
        code = cli_main(argv[1:])
    finally:
        inst.remove()
        log.save(out)
        stats = {}
        if servers:
            server = servers[-1]
            stats = {
                "batch": server.batcher.stats,
                "ledger": server.ledgers.stats(),
            }
        Path(f"{out}.stats.json").write_text(json.dumps(stats))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Launch the estimate server for the ``serve-lws`` workload.

Usage::

    python3 -u perfbench/serve.py [--trace-dir DIR] -- <repro.service.server arguments>

The untraced and traced runs start the server the same way, so both have the
same process layout.  With ``--trace-dir`` the launcher patches the layer
entry points (``spans.install``) before the server imports its session, and
writes the recorded spans to ``DIR/spans-<pid>.jsonl`` when the server
stops (SIGINT).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    options = parser.parse_args(argv)
    server_args = options.server_args
    if server_args[:1] == ["--"]:
        server_args = server_args[1:]

    sys.path.insert(0, str(ROOT / "src"))
    recorder = None
    if options.trace_dir is not None:
        import spans
        from repro import obs

        obs.set_enabled(True)
        recorder = spans.install(options.trace_dir)

    from repro.service.server import main as serve

    try:
        return serve(server_args)
    finally:
        if recorder is not None:
            recorder.flush()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

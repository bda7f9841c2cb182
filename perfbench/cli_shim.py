"""Run one passlab CLI call with the tracer installed, for traced runs.

    python3 perfbench/cli_shim.py SPANS_JSON <passlab cli arguments...>

Behaves like `python -m passlab.cli <arguments>` (same stdout, stderr and
exit code) and writes the recorded spans and counters to SPANS_JSON.  The
root span "cli.process" covers the import of passlab as well as the call.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.span("cli.process"):
            import passlab.cli
            tracer.install()
            try:
                return passlab.cli.main(argv)
            finally:
                tracer.restore()
    finally:
        out.write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main())

"""Run one ``repro.cli analyze`` process with the layer wrappers installed.

    python3 perfbench/bootstrap.py DUMP.json analyze FILE

The traced run of ``oneshot_cli`` starts its processes through this file
instead of ``python -m repro.cli``.  When the tool returns, the tracer's
totals and the wrapper targets it could not find are written to
``DUMP.json``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
from repro import cli  # noqa: E402


def main(argv):
    dump_path = argv[0]
    tracer = layertrace.install(layertrace.Tracer(), exclude=("repro.server",))
    try:
        return cli.main(argv[1:])
    finally:
        with open(dump_path, "w", encoding="utf-8") as handle:
            json.dump({"totals": tracer.snapshot(), "unwrapped": tracer.unwrapped}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

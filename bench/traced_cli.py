"""`surface-lab` with the benchmark's tracer installed; spans go to stderr.

Usage: python bench/traced_cli.py verify all --format json --seed 0
(with src on PYTHONPATH).  Standard output is the CLI's own; the last line
of standard error is the exported span document.
"""

import json
import sys

import surface_lab.cli as cli
from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    code = cli.main(sys.argv[1:])
    tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tracer.export(), separators=(",", ":")) + "\n")
    sys.exit(code)

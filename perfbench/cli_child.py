"""Run `remora.cli.main` under the tracer and write its spans to a file.

Usage: python3 perfbench/cli_child.py TRACE_FILE SUBCOMMAND ARGS...

Used by the traced cli-corpus phase in place of `python -m remora.cli`. It
reads the clock before any import so the parent can measure interpreter start,
times the import of the package, then traces `main`. Standard output, standard
error and the exit code are the CLI's own.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import_start = time.perf_counter()
import remora.cli  # noqa: E402

import_end = time.perf_counter()

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.op = 0
tracer.begin("cli.main")
try:
    code = remora.cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
finally:
    main_s = tracer.end()
    tracer.uninstall()
sys.stdout.flush()
tracer.dump(sys.argv[1], t0=T0, import_span=[import_start, import_end], main_s=main_s)
sys.exit(code)

"""One divscan CLI invocation with spans recorded, for traced runs of the
cli-presets workload. Arguments are the CLI's own; the spans and the import
time go to the file named by PERFBENCH_SPANS when the command ends."""

import json
import os
import sys
import time

_start = time.perf_counter()
import divscan.cli  # noqa: E402

_import_s = time.perf_counter() - _start

from tracing import Tracer  # noqa: E402

_tracer = Tracer().install()
try:
    _code = divscan.cli.main(sys.argv[1:])
finally:
    with open(os.environ["PERFBENCH_SPANS"], "w") as _fh:
        json.dump({"import_s": _import_s, "spans": _tracer.spans}, _fh)
sys.exit(_code)

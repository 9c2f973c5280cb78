"""Set-up probe: a fresh interpreter up to the first answer.

Run as ``python3 -I perfbench/probe.py SRC [--trace]``. It imports the
library from SRC, then answers one ``zeta-gb eval`` call in-process;
that first evaluation builds the Bernoulli table. This is what every
command-line call pays before its real work. It then prints one JSON
line with its CPU seconds since process start, its children's included:
the set-up time. With ``--trace`` the line also carries the time spent in
``bernoulli.build_table`` and ``cli.run``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.process_time_ns()
    src = sys.argv[1]
    sys.path.insert(0, src)
    import zetagb
    import zetagb.cli

    origin = Path(zetagb.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise SystemExit(f"zetagb imported from {origin}, not from {src}")
    t_import = time.process_time_ns()
    tracer = None
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if "--trace" in sys.argv[2:]:
        from tracing import LAYERS, SETUP_LAYERS, Tracer

        tracer = Tracer()
        tracer.install(LAYERS + SETUP_LAYERS)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = zetagb.cli.run(["eval", "--re", "0.5", "--im", "14.134725", "--format", "json"])
    answer = json.loads(buf.getvalue())
    if code != 0 or not abs(complex(answer["value_re"], answer["value_im"])) < 1e-5:
        raise SystemExit(f"first evaluation failed: exit {code}, {answer}")
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {
        "cpu_s": time.process_time() + children.ru_utime + children.ru_stime,
        "import_ms": (t_import - t0) / 1e6,
        "first_eval_ms": (time.process_time_ns() - t_import) / 1e6,
    }
    if tracer is not None:
        tracer.detach()
        out["layers"] = tracer.aggregate()["layers"]
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()

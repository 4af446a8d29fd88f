"""The benchmark's single-threaded child process: a fresh one per iteration.

Usage: python3 worker.py <root>  (the request on stdin, the reply on stdout)

Imports `jamgame` from <root>/src, reads one JSON request
`{"argv": [...], "trace": bool, "spans": path-or-null,
"checkpoint": [target, every]}`, runs `jamgame.cli.main(argv)` and prints one
JSON reply with its exit code, captured stdout, wall and CPU seconds, the
process's peak resident memory, the wall and CPU seconds of each fixed-work
segment between checkpoints (`tracer.Checkpoints`) and of the reference loop
run at each segment boundary (`tracer.timed_reference`) and, when traced, the
span summary. Only the call to `main` is timed, less the reference runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path


def peak_rss_kib() -> int:
    """This process's own peak resident memory.

    Linux carries `ru_maxrss` over from the parent's memory at fork, so a
    child of a large client would report the client's size; VmHWM belongs to
    the process's own address space.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def serve(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import jamgame.cli as cli
    from tracer import Checkpoints, Tracer, reference_loop, timed_reference

    req = json.loads(sys.stdin.read())
    tracer = Tracer() if req["trace"] else None
    # Traced iterations keep the checkpoints, so their segments match, but run
    # no reference loop inside spans.
    checkpoints = Checkpoints(*req["checkpoint"], reference=not tracer)
    out = io.StringIO()
    reply = {"error": None}
    for _ in range(3):
        reference_loop()  # warm-up: no timed run is the process's first
    try:
        checkpoints.install()
        if tracer:
            tracer.install()
        with contextlib.redirect_stdout(out):
            first = timed_reference()  # the call starts when it ends
            rc = cli.main(req["argv"])
            last = timed_reference()  # the call ends when it starts
    except (Exception, SystemExit):
        rc = None
        reply["error"] = traceback.format_exc()
    finally:
        if tracer:
            tracer.uninstall()
        checkpoints.uninstall()
    reply["peak_rss_mb"] = peak_rss_kib() / 1024
    reply["rc"] = rc
    reply["stdout"] = out.getvalue()
    if rc is not None:
        # Each boundary reads the clocks before and after its reference run
        # (both reads coincide at a checkpoint of a traced iteration); a
        # segment runs from one boundary's second read to the next one's first.
        marks = [first, *checkpoints.marks, last]
        reply["segments"] = [[b[0] - a[2], b[1] - a[3]] for a, b in zip(marks, marks[1:])]
        reply["reference"] = [[m[2] - m[0], m[3] - m[1]] for m in marks]
        reply["wall_s"] = sum(w for w, _ in reply["segments"])
        reply["cpu_s"] = sum(c for _, c in reply["segments"])
        if tracer:
            reply["layers"] = tracer.summary()
            if req.get("spans"):
                tracer.write_spans(req["spans"])
    print(json.dumps(reply))


if __name__ == "__main__":
    serve(Path(sys.argv[1]))

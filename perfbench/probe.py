"""Set-up time of one fresh process: import jamgame, then load, validate and
work-gate a scenario, stopping before the first decision or enumeration.

Usage: python3 probe.py <root> <run|analyze> <scenario.json> <scratch-dir>

Runs the subcommand through `jamgame.cli.main` with `--work-bound 0`, which
refuses the instance (exit code 3) right after the gate, and prints
`{"rc": ..., "setup_s": ..., "reference_s": [wall, cpu]}`. The clock starts
before `jamgame` is imported. `reference_s` is the mean time of the reference
loop (`tracer.reference_loop`) run right afterwards, the host's speed then.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    root, command, scenario, scratch = sys.argv[1:5]
    sys.path.insert(0, f"{root}/src")
    from jamgame.cli import main as jamgame_main

    argv = [command, scenario, "--work-bound", "0"]
    if command == "run":
        argv += ["--output", scratch]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = jamgame_main(argv)
    setup_s = time.perf_counter() - T0
    from tracer import reference_loop, timed_reference

    reference_loop()  # warm-up
    runs = [timed_reference() for _ in range(3)]
    reference_s = [sum(r[2] - r[0] for r in runs) / 3, sum(r[3] - r[1] for r in runs) / 3]
    print(json.dumps({"rc": rc, "setup_s": setup_s, "reference_s": reference_s}))


if __name__ == "__main__":
    main()

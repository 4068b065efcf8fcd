"""Run the freqlab CLI in this process, as the ``freqlab`` script does.

    python3 bench/launch.py RESULT [--trace SPANS] [-- CLI_ARGS...]

Run from the root of a checkout.  Imports ``freqlab.cli`` from the
checkout's ``src``, records the monotonic clock just before the first
call into ``cli.main`` (the end of set-up), runs it with CLI_ARGS and
exits with its code.  Without CLI_ARGS it only sets up.  RESULT gets
the set-up mark, the exit code and the library versions; with
``--trace`` it also gets the self times and counters of a traced run
and the entry points it could not wrap, and SPANS gets every span.
"""

import json
import os
import sys
import time


def main(argv: list) -> int:
    result_path, rest = argv[0], argv[1:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    cli_args = rest[1:] if rest[:1] == ["--"] else rest

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import freqlab.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"freqlab was imported from {cli.__file__}, "
                         f"not from {src}")
    import numpy
    import scipy

    tracer = restore = None
    if spans_path is not None:
        import tracing
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)

    setup_mark = time.monotonic()
    code = cli.main(cli_args) if cli_args else 0
    result = {"setup_mark": setup_mark, "code": code,
              "python": sys.version.split()[0],
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if tracer is not None:
        restore()
        result["self_s"] = tracing.self_times(tracer.spans)
        result["counters"] = dict(tracer.counters)
        result["unwrapped"] = tracer.unwrapped
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The traced form of one ``cli-rerun`` op, run in a fresh interpreter.

    python3 -X importtime perfbench/cli_op.py SPANS_FILE repro-args...

Imports ``repro.cli`` between two marker lines on stderr (so the
``-X importtime`` lines of that import can be told apart), installs the
benchmark's wrappers, calls ``repro.cli.main`` with the given arguments
and writes this process's spans and time stamps to ``SPANS_FILE``.
"""

import time

T_FIRST_LINE = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    sys.stderr.write(f"{tracing.IMPORT_MARK} begin\n")
    sys.stderr.flush()
    t_import = time.perf_counter()
    import repro.cli

    t_imported = time.perf_counter()
    sys.stderr.write(f"{tracing.IMPORT_MARK} end\n")
    sys.stderr.flush()
    recorder = tracing.Recorder(None)
    tracing.install(recorder)
    with recorder.span("cli.main"):
        code = repro.cli.main(argv)
    sys.stdout.flush()
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "first_line": T_FIRST_LINE,
                "import": [t_import, t_imported],
                "end": time.perf_counter(),
                **recorder.collect(),
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())

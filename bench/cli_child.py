"""Run one command-line invocation with spans recorded, for the traced cli pass.

Usage: python bench/cli_child.py SPANS.json <physarum arguments...>
Writes the spans of that one process to SPANS.json and exits with the
command's own exit code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402,F401  (pins the BLAS thread count before numpy loads)
from spans import Recorder  # noqa: E402


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    from physarum import cli_io

    recorder = Recorder().install()
    try:
        return cli_io.main(argv)
    finally:
        recorder.uninstall()
        recorder.dump(span_file)


if __name__ == "__main__":
    sys.exit(main())

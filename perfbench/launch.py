"""Run one anchorpriv command in this process and record when its set-up ends.

Usage: python3 perfbench/launch.py MODE MARKS_FILE ANCHORPRIV_ARGS...

MODE is one of
  run    run the command; write the set-up mark;
  setup  stop with exit code 0 as soon as set-up ends (set-up probe);
  trace  as ``run``, with every traced function wrapped (see tracer.py); the
         spans go to MARKS_FILE's stem + ".spans.{bin,json}".

The set-up mark is the ``time.monotonic()`` reading at the moment
``evaluation.synth_instance`` first returns. The parent reads the same clock
just before it starts this process, so the difference is the command's
set-up time: interpreter start, imports, config parsing and the instance.
The package is imported from ``src/`` of the checkout this file sits in.
"""

import json
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent


class _SetupDone(BaseException):
    """Unwinds the command once set-up ends; nothing in the package catches it."""


def main(argv) -> int:
    mode, marks_path, cli_args = argv[0], Path(argv[1]), argv[2:]
    if mode not in ("run", "setup", "trace"):
        print(f"launch.py: unknown mode {mode!r}", file=sys.stderr)
        return 64
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import anchorpriv
    from anchorpriv import cli, evaluation

    if not Path(anchorpriv.__file__).resolve().is_relative_to(src.resolve()):
        print(f"launch.py: anchorpriv imported from {anchorpriv.__file__}, not {src}",
              file=sys.stderr)
        return 65

    spans = None
    run_cli = cli.main
    if mode == "trace":
        spans = tracer.Tracer()
        tracer.install(spans)
        run_cli = spans.wrap("cli.main", cli.main)

    marks = {}
    synth_instance = evaluation.synth_instance

    def marked_synth_instance(*args, **kwargs):
        instance = synth_instance(*args, **kwargs)
        marks.setdefault("setup_end", time.monotonic())
        if mode == "setup":
            raise _SetupDone
        return instance

    tracer.rebind(synth_instance, marked_synth_instance)

    try:
        code = run_cli(cli_args)
    except _SetupDone:
        code = 0
    if spans is not None:
        spans.dump(marks_path.with_suffix(".spans"))
    marks_path.write_text(json.dumps(marks) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

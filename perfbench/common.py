"""What every workload shares: operations, the run context, in-process CLI calls."""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from semiheap import cli


@dataclass
class Op:
    """One operation of a round.

    run() makes the calls into semiheap and returns their output; check(out)
    returns None when the output is right, else why it is not.  An
    operation with known_fault set fails on today's code because of a
    recorded fault; it is counted as failed but does not make the run
    incorrect.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], object]
    known_fault: bool = False


@dataclass
class Context:
    seed: int
    tracer: object
    workdir: Path
    problems: list = field(default_factory=list)   # set-up validation failures

    def rng(self, stream):
        """A generator for one named input stream, fixed by the run's seed."""
        return np.random.default_rng([self.seed % 2 ** 63, sum(map(ord, stream))])

    def validate(self, ok, why):
        """Record a set-up check; a failed one makes the run incorrect."""
        if not ok:
            self.problems.append(why)

    def write(self, name, text):
        path = self.workdir / name
        path.write_text(text)
        return str(path)


def expect(ok, why):
    return None if ok else why


def first_problem(*reasons):
    return next((r for r in reasons if r is not None), None)


def run_cli(tracer, argv):
    """semiheap.cli.main in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tracer.span("cli.main"), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_line(result, code):
    """The single stdout line of a CLI call that should exit with code, or None."""
    got, out, err = result
    lines = out.splitlines()
    if got != code or len(lines) != 1:
        return None
    return lines[0]

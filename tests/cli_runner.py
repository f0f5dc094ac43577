"""In-process CLI calls for the tests.

``CliRunner().invoke(main, args)`` runs ``qcslab.cli.main`` on an argument
list and returns its exit code, its stdout and stderr together in one
``output`` (as a terminal shows a process's two streams), and the exception a
command raised that is not an exit (None when it raised none; its exit code
is then 1).
"""

import contextlib
import io
from dataclasses import dataclass


@dataclass
class Result:
    exit_code: int
    output: str
    exception: BaseException | None = None


class CliRunner:
    def invoke(self, main, args) -> Result:
        output = io.StringIO()
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            try:
                main(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                return Result(code, output.getvalue())
            except Exception as exc:
                return Result(1, output.getvalue(), exc)
        return Result(0, output.getvalue())

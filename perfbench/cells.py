"""Per-cell timing around ``repro.experiments.runner.execute_task``.

The runner looks ``execute_task`` up as a module global on every cell, so
replacing the module attribute times each cell from outside the program.
The wrapper stays installed for the whole worker process; it appends one
``(seconds, spec, task, record)`` entry per cell and changes nothing else.
"""

from __future__ import annotations

import time


class CellLog:
    def __init__(self) -> None:
        import repro.experiments.runner as runner_module

        self._module = runner_module
        self._original = runner_module.execute_task
        self.entries: list[tuple] = []
        original = self._original
        entries = self.entries
        perf = time.perf_counter

        def timed_execute_task(spec, task, *args, **kwargs):
            t0 = perf()
            record = original(spec, task, *args, **kwargs)
            entries.append((perf() - t0, spec, task, record))
            return record

        runner_module.execute_task = timed_execute_task

    def take(self) -> list[tuple]:
        """The entries logged since the previous call."""
        taken = list(self.entries)
        self.entries.clear()
        return taken

    def close(self) -> None:
        self._module.execute_task = self._original

"""A pool task that raises without killing its worker.

``tests/core/test_mp_engine.py`` patches it in as the engine's task
function; spawned workers import it by name, so it lives in its own
module (top-level, picklable) rather than in the test file.
"""

from repro.core import mpexec

#: A chunk holding this plan id raises instead of evaluating.
FAILING_PLAN = "task-fault"


def run_chunk_or_raise(task: dict) -> dict:
    if any(plan_id == FAILING_PLAN for plan_id, _, _ in task["chunk"]):
        raise LookupError(f"injected task failure for {FAILING_PLAN}")
    return mpexec.worker_run_chunk(task)

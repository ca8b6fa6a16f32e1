"""Elastic rebalance executor: drive pm-planned page moves to completion.

The provider manager *plans* migrations (``pm.plan_rebalance``) and
journals every completed move; this module is the *executor* that carries
pages between providers. It speaks only through a driver's RPC surface
(one ``Driver.call`` per RPC), so the same code rebalances an in-process
deployment, a threaded one, or a live TCP cluster — and it respects actor
confinement (it never touches provider objects directly).

Execution is idempotent and resumable by construction:

- a ``copy`` re-sent after a crash lands on ``data.migrate_in``, which
  acknowledges pages it already holds instead of raising;
- a ``copy`` whose source page vanished (the source freed it just before
  a crash, after the copy landed) verifies the destination holds the page
  and reports the move done;
- ``free`` uses ``data.free_pages``, idempotent on missing keys;
- every completed move is reported to the pm (``pm.migration_done``,
  itself idempotent and WAL-journaled) *before* the next move starts, so
  a pm recovered from SIGKILL mid-rebalance hands back exactly the moves
  whose completion records did not survive.

``limit_moves`` exists for fault-injection tests: execute a prefix of the
plan, crash something, resume.
"""

from __future__ import annotations

from typing import Any

from repro.errors import PageMissing


def collect_manifests(driver, provider_ids) -> list:
    """``[(pid, [(key, nbytes), ...]), ...]`` from every provider."""
    return [
        (pid, driver.call(("data", pid), "data.manifest"))
        for pid in sorted(provider_ids)
    ]


def _execute_move(driver, kind: str, key, src: int, dst: int | None) -> None:
    if kind == "copy":
        try:
            payload = driver.call(("data", src), "data.get_page", (key,))
        except PageMissing:
            # Resume path: the copy landed before the crash and the source
            # was since reclaimed — verify the destination holds the page.
            driver.call(("data", dst), "data.get_page", (key,))
            return
        driver.call(("data", dst), "data.migrate_in", (key, payload))
    else:  # free
        driver.call(("data", src), "data.free_pages", ([key],))


def execute_rebalance(
    driver,
    provider_ids,
    *,
    drain: int | None = None,
    limit_moves: int | None = None,
) -> dict[str, Any]:
    """Plan (or resume) a rebalance and drive its moves in plan order.

    Returns ``{"plan", "executed", "remaining", "committed", "drain"}``.
    With ``drain`` set the target provider is excluded from placement and
    emptied (the caller deregisters it once ``committed`` is true); with
    ``limit_moves`` execution stops early and ``committed`` stays false —
    calling again resumes from the pm's journaled plan.
    """
    plan = driver.call("pm", "pm.pending_rebalance")
    if plan is None:
        manifests = collect_manifests(driver, provider_ids)
        plan = driver.call("pm", "pm.plan_rebalance", (manifests, drain))
    if plan is None:
        return {
            "plan": None, "executed": 0, "remaining": 0,
            "committed": True, "drain": drain,
        }
    executed = 0
    moves = plan["moves"]
    for n, (index, kind, key, src, dst, _nbytes) in enumerate(moves):
        if limit_moves is not None and executed >= limit_moves:
            return {
                "plan": plan["plan"], "executed": executed,
                "remaining": len(moves) - n, "committed": False,
                "drain": plan["drain"],
            }
        _execute_move(driver, kind, key, src, dst)
        driver.call("pm", "pm.migration_done", (plan["plan"], index))
        executed += 1
    driver.call("pm", "pm.migration_commit", (plan["plan"],))
    return {
        "plan": plan["plan"], "executed": executed, "remaining": 0,
        "committed": True, "drain": plan["drain"],
    }


def drain_provider(
    driver,
    provider_ids,
    provider_id: int,
    *,
    limit_moves: int | None = None,
) -> dict[str, Any]:
    """Empty one provider and deregister it once its last page moved.

    ``provider_ids`` must include the draining provider (its manifest is
    what gets moved). Deregistration happens only after the plan commits,
    so an interrupted drain resumes instead of losing membership early.
    """
    summary = execute_rebalance(
        driver, provider_ids, drain=provider_id, limit_moves=limit_moves
    )
    if summary["committed"]:
        driver.call("pm", "pm.deregister", (provider_id,))
    return summary

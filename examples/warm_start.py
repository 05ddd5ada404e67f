"""Warm-starting searches from a persistent evaluation store.

The co-exploration loop re-prices the same (networks, accelerator,
budget) points across episodes, seeds and experiment tables.  Within a
process the LRU cache and the cost-table memo absorb that; the
persistent :class:`repro.core.store.EvalStore` extends the reuse of
whole evaluations across *processes*: priced designs are appended
durably as they are priced, and any later run — tomorrow's parameter
sweep, a re-run after a crash, a colleague's session on the same
share — answers repeat requests from disk.  The store keeps
evaluations only: a later run's misses reprice their per-layer cost
cells, which costs less than loading them would.

This example runs the same small NASAIC search twice against one store
file (simulating two sessions) and then a budget-doubled follow-up that
partially reuses the store, printing the tier accounting each time.

Equivalent CLI::

    python -m repro search --episodes 4 --store runs/evals.store
    python -m repro search --episodes 4 --store runs/evals.store  # warm
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import NASAIC, NASAICConfig, EvalStore
from repro.workloads import w1


def run_session(label: str, store_path: Path,
                episodes: int) -> None:
    """One self-contained 'session': open the store, search, report."""
    with EvalStore(store_path) as store:
        search = NASAIC(
            w1(),
            config=NASAICConfig(episodes=episodes, hw_steps=4, seed=7),
            store=store)
        result = search.run()
        search.close()  # releases the search's own evaluation service
        stats = search.evalservice.stats
        best = (f"{result.best.weighted_accuracy:.4f}"
                if result.best else "none")
        print(f"{label}: best={best}  "
              f"{stats.requests} requests = "
              f"{stats.misses} computed + "
              f"{stats.store_hits} from store + "
              f"{stats.hits - stats.store_hits} from LRU  "
              f"({len(store)} designs persisted)")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "evals.store"
        run_session("cold session     ", store_path, episodes=4)
        # A "new process": everything rebuilt, only the file survives.
        run_session("warm session     ", store_path, episodes=4)
        # Warm starts compose with changed budgets: the doubled run
        # replays the first four episodes' pricing from the store and
        # computes only what is genuinely new.
        run_session("doubled budget   ", store_path, episodes=8)


if __name__ == "__main__":
    main()

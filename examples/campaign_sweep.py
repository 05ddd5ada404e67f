#!/usr/bin/env python
"""Campaign sweep: many searches, one shared evaluation cache.

Runs a small workload x strategy x budget grid through the campaign
runner — NASAIC at two episode budgets (the larger replays the smaller
one's prefix, so its early episodes are answered from the shared cache),
an evolutionary search and a Monte-Carlo baseline — then prints the
consolidated comparison table, the cross-scenario cache accounting and
the campaign JSON location.

The same grid is available from the command line::

    python -m repro campaign --workloads W1 --strategies nasaic,mc \\
        --budgets 4,8 --out campaign.json

Run:  python examples/campaign_sweep.py [base_episodes]
"""

import sys
import tempfile
from pathlib import Path

from repro import Campaign, CampaignConfig, NASAICConfig, Scenario
from repro.core.campaign import save_campaign


def main() -> None:
    base = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    scenarios = (
        Scenario("W1", "nasaic", base, seed=5,
                 options={"config": NASAICConfig(
                     episodes=base, hw_steps=5, seed=5)}),
        # Same seed, double budget: episode-for-episode it replays the
        # run above, so its first half prices entirely from the cache.
        Scenario("W1", "nasaic", 2 * base, seed=5,
                 options={"config": NASAICConfig(
                     episodes=2 * base, hw_steps=5, seed=5)}),
        Scenario("W1", "evolution", max(2, base // 2), seed=5),
        Scenario("W1", "mc", 20 * base, seed=5),
    )
    with Campaign(CampaignConfig(scenarios=scenarios)) as campaign:
        result = campaign.run()

    from repro.core.campaign import format_campaign

    print(format_campaign(result))
    print()
    cache = result.cache
    print(f"shared services: {cache['services']} "
          f"(scenarios with equal evaluation contexts share one cache)")
    print(f"cross-scenario reuse: {cache['shared_hits']} of "
          f"{cache['requests']} hardware requests "
          f"({cache['shared_hit_rate']:.1%}) were answered from an "
          f"earlier scenario's pricing")
    print(f"cost-table cells across the campaign: "
          f"{cache['cost_memo_hits']} shared within a batch / "
          f"{cache['cost_memo_misses']} priced")

    out = Path(tempfile.gettempdir()) / "repro_campaign.json"
    save_campaign(result, out)
    print(f"\nconsolidated campaign JSON written to {out}")


if __name__ == "__main__":
    main()

"""Strategy registry and the model-based strategy zoo.

``registry`` is the single source of truth for strategy names and
wiring (campaigns, CLI, checkpoints, fuzzing); ``zoo`` hosts the
surrogate-guided strategies (``local``, ``bayesopt``, ``ensemble``)
that warm-train from a persistent :class:`~repro.core.store.EvalStore`.
Names resolve on first access (:mod:`repro.utils.lazy`), so reading the
registry does not load the zoo.
"""

from repro.utils.lazy import lazy_exports

# Public name -> defining module, imported on first access.
_EXPORTS = {
    "BayesOptConfig": ".zoo",
    "BayesOptSearch": ".zoo",
    "CampaignContext": ".registry",
    "EnsembleConfig": ".zoo",
    "EnsembleSearch": ".zoo",
    "LocalSearchConfig": ".zoo",
    "LocalSearch": ".zoo",
    "StrategyNames": ".registry",
    "StrategySpec": ".registry",
    "register_strategy": ".registry",
    "registered_strategies": ".registry",
    "strategy_names": ".registry",
    "strategy_spec": ".registry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

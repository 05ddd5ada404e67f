"""Training substrate: dataset descriptors, the accuracy surrogate,
and small NumPy regressors for model-guided search.

Names resolve on first access (:mod:`repro.utils.lazy`), so a search
that never builds a regressor does not load one.
"""

from repro.utils.lazy import lazy_exports

# Public name -> defining module, imported on first access.
_EXPORTS = {
    "AccuracySurrogate": ".surrogate",
    "DATASETS": ".datasets",
    "DatasetSpec": ".datasets",
    "GaussianProcessRegressor": ".regressors",
    "MLPEnsembleRegressor": ".regressors",
    "SurrogateCalibration": ".surrogate",
    "SurrogateTrainer": ".trainer",
    "TrainingResult": ".trainer",
    "dataset_spec": ".datasets",
    "default_surrogate": ".surrogate",
    "expected_improvement": ".regressors",
    "normal_cdf": ".regressors",
    "normal_pdf": ".regressors",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

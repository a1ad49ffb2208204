"""The RFE loop that `rfe_select` replaced, kept as a test oracle.

Every round calls `ridge_fit` on a fresh copy of the active columns, which
re-centres them and forms their Gram matrix anew. `rfe_select` forms one Gram
matrix per call and downdates it, so its weights differ from these only by
rounding, and it must select the same columns.
"""

import math

import numpy as np

from popgcn.errors import ParameterError
from popgcn.featsel import ridge_fit


def rfe_select_reference(x_train, y_train, target_c, step_fraction=0.1, alpha=1.0):
    x = np.asarray(x_train, dtype=np.float64)
    c = x.shape[1]
    if not 1 <= target_c <= c:
        raise ParameterError(f"target_c must be in [1, {c}], got {target_c}")
    if not 0 < step_fraction <= 1:
        raise ParameterError(f"step_fraction must be in (0, 1], got {step_fraction}")
    active = np.arange(c)
    while len(active) > target_c:
        w = ridge_fit(x[:, active], y_train, alpha)
        n_drop = min(math.ceil(step_fraction * len(active)), len(active) - target_c)
        order = np.argsort(np.abs(w), kind="stable")
        active = np.delete(active, order[:n_drop])
    return np.sort(active)

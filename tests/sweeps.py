"""Seed-mean lookups over the CSV rows of a study, for the trend checks."""

import numpy as np


def mean_over_seeds(sweep, value_key: str, **filters) -> float:
    """Mean of value_key over the rows of a SweepResult that match every filter."""
    vals = [
        row[value_key]
        for row in sweep.rows
        if all(row[k] == v for k, v in filters.items())
    ]
    if not vals:
        raise KeyError(f"no rows match {filters}")
    return float(np.mean(vals))

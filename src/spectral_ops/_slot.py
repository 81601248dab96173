"""A one-entry memo keyed by value, for the kernels ssm and gconv keep on their params."""

import numpy as np


class Slot:
    """get() returns the kept value while every array equals its private
    snapshot (shape, dtype and values) and the extras are equal; otherwise it
    builds, keeps and returns a new one.  So an in-place edit or a new array
    never returns a stale value.  Concurrent callers may both build on a miss,
    which is harmless: each gets a correct value, and the last one is kept."""

    _kept = ()

    def get(self, arrays, extras, build):
        arrays = [np.asarray(a) for a in arrays]
        kept = self._kept  # read once: another caller may replace it meanwhile
        if kept and kept[1] == extras and all(
            s.dtype == a.dtype and np.array_equal(s, a) for s, a in zip(kept[0], arrays)
        ):
            return kept[2]
        snapshot = [a.copy() for a in arrays]  # taken before build() reads the arrays
        kept = self._kept = (snapshot, extras, build())
        return kept[2]

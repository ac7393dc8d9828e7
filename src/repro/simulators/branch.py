"""A 2-bit saturating-counter branch predictor (bimodal)."""

from __future__ import annotations

from typing import Dict


#: log2 of the counter-table size.
TABLE_BITS = 12


class BranchPredictor:
    """Bimodal predictor: a table of 2-bit counters indexed by PC."""

    def __init__(self, mispredict_penalty: int = 12) -> None:
        self.table_size = 1 << TABLE_BITS
        self.mask = self.table_size - 1
        self.counters: Dict[int, int] = {}
        self.mispredict_penalty = mispredict_penalty
        self.lookups = 0
        self.mispredicts = 0

    def predict_and_update(self, pc: int, taken: bool) -> int:
        """Predict the branch at *pc*, train, and return the penalty
        cycles (0 on correct prediction)."""
        index = (pc >> 1) & self.mask
        counter = self.counters.get(index, 1)  # weakly not-taken
        prediction = counter >= 2
        self.lookups += 1
        if taken and counter < 3:
            counter += 1
        elif not taken and counter > 0:
            counter -= 1
        self.counters[index] = counter
        if prediction != taken:
            self.mispredicts += 1
            return self.mispredict_penalty
        return 0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.lookups if self.lookups else 0.0

import pytest

from cachesig import experiments
from cachesig.algorithms import AlgorithmError
from cachesig.config import ExperimentConfig
from cachesig.timing import TimerModel


class UnderReportingTimer(TimerModel):
    """Counts one read per measurement instead of two."""

    def measure(self, true_duration_ns, rng):
        value = super().measure(true_duration_ns, rng)
        self.reads_taken -= 1
        return value


@pytest.mark.parametrize("runner", [experiments.run_counter, experiments.run_binary_search])
def test_measurement_budget_violation_raises(runner, monkeypatch):
    cfg = ExperimentConfig(trials=3, sizes=(8,))
    assert runner(cfg)[0]["correct"] == 3
    monkeypatch.setattr(experiments, "TimerModel", UnderReportingTimer)
    with pytest.raises(AlgorithmError, match="budget"):
        runner(cfg)


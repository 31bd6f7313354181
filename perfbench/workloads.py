"""The benchmark's three workloads over the four CLI stages.

Each workload drives ``forecast_uq.cli.main``. Its set-up writes the
configs and prepares the inputs that come before its timed stages; the
timed stages are then run as a user would run them. Training uses
``patience == max_epochs``, so every run does the same number of epochs
and its time does not depend on where early stopping would land.

Generator seeds derive from the benchmark seed: the same seed gives the
same series. Model seeds are part of the workload, like its grid.
"""

from __future__ import annotations

from dataclasses import dataclass

# copies of forecast_uq's names, so that run.py imports nothing from the package
FOUR_FAMILIES = ("periodic", "spikes", "trend", "noise")
BASELINE_KINDS = ("mean", "zero", "last")
UNCERTAINTIES = ("point", "homoscedastic", "heteroscedastic", "mc_dropout")


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the CLI stages run on them.

    ``train_data`` and ``heldout_data`` are generator configs without a
    seed. ``timed`` names the stages inside the measurement, in order;
    ``train`` outside it runs during set-up, and ``generate`` outside it
    means both CSVs are written during set-up.
    """

    name: str
    why: str
    train_data: dict
    heldout_data: dict
    models: tuple[tuple[str, str], ...]
    seeds: tuple[int, ...]
    max_epochs: int
    jobs: int
    timed: tuple[str, ...]
    mc_samples: int = 50
    k: int = 16

    def generator(self, which: str, bench_seed: int) -> dict:
        data = self.train_data if which == "train" else self.heldout_data
        offset = 1 if which == "train" else 2
        return {**data, "amplitude_range": [10.0, 100.0], "seed": 1000 * bench_seed + offset}

    def run_config(self) -> dict:
        return {
            "models": [{"backbone": b, "uncertainty": u} for b, u in self.models],
            "train": {"max_epochs": self.max_epochs, "patience": self.max_epochs},
            "seeds": list(self.seeds),
            "desk": True,
            "mc_samples": self.mc_samples,
            "k": self.k,
        }

    @property
    def heldout_size(self) -> int:
        return sum(self.heldout_data["families"].values())

    def checkpoint_stems(self) -> set[str]:
        return {f"{b}_{u}_seed{s}" for b, u in self.models for s in self.seeds}

    def matrix_rows(self) -> set[str]:
        rows = {f"baseline_{kind}+input_variance" for kind in BASELINE_KINDS}
        for backbone, uncertainty in self.models:
            scores = ["input_variance"]
            if uncertainty == "heteroscedastic":
                scores.append("predicted_scale")
            elif uncertainty == "mc_dropout":
                scores.append("mc_std")
            rows.update(f"{backbone}_{uncertainty}+{score}" for score in scores)
        return rows

    def curve_files(self) -> set[str]:
        files = set()
        for row in self.matrix_rows():
            if row.startswith("baseline_"):
                files.add(f"curve_{row}.csv")
            else:
                files.update(f"curve_{row}_seed{s}.csv" for s in self.seeds)
        return files

    def headline_row(self) -> str:
        """The heteroscedastic row whose scale the quality metrics score."""
        backbone = next(b for b, u in self.models if u == "heteroscedastic")
        return f"{backbone}_heteroscedastic+predicted_scale"


def _data(families, per_family: int, length: int, noise: dict) -> dict:
    return {"families": {name: per_family for name in families}, "series_length": length, "noise": noise}


UNIFORM_NOISE = {"law": "uniform", "low": 1.0, "high": 10.0}
# the heteroscedastic-recovery setting of acceptance criterion 4
AMPLITUDE_NOISE = {"law": "amplitude_linear", "low": 1.0, "high": 20.0}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-grid",
            why=(
                "Dense grid training: tape, Adam, small matmuls and a CSV re-read per job "
                "dominate; the only workload that runs the --jobs process pool."
            ),
            train_data=_data(("trend", "noise"), 5000, 12, AMPLITUDE_NOISE),
            heldout_data=_data(("trend", "noise"), 1000, 12, AMPLITUDE_NOISE),
            models=tuple(("dense", u) for u in UNCERTAINTIES),
            seeds=(0, 1),
            max_epochs=50,
            jobs=2,
            timed=("train", "evaluate", "cluster"),
        ),
        Workload(
            name="lstm-mc",
            why=(
                "LSTM training and 50-pass MC-dropout inference: BLAS-sized recurrent matmuls "
                "with the tape recording and without it."
            ),
            train_data=_data(FOUR_FAMILIES, 500, 12, UNIFORM_NOISE),
            heldout_data=_data(FOUR_FAMILIES, 500, 12, UNIFORM_NOISE),
            models=(("lstm", "heteroscedastic"), ("lstm", "mc_dropout")),
            seeds=(0,),
            max_epochs=6,
            jobs=1,
            timed=("train", "evaluate", "cluster"),
        ),
        Workload(
            name="eval-wide",
            why=(
                "A 40k-series held-out set: the data path, selective metrics and k-means carry "
                "the time; towers run one forward pass, so training changes should not move it."
            ),
            train_data=_data(FOUR_FAMILIES, 250, 24, UNIFORM_NOISE),
            heldout_data=_data(FOUR_FAMILIES, 10000, 24, UNIFORM_NOISE),
            models=(("dense", "point"), ("dense", "heteroscedastic")),
            seeds=(0, 1),
            max_epochs=2,
            jobs=1,
            timed=("generate", "evaluate", "cluster"),
        ),
    )
}

"""Golden outputs of a small pinned generate -> train -> evaluate -> cluster run.

The sha256 of every artifact is pinned, so a refactor of the data,
selective or cluster code that changes a single byte of the dataset,
the checkpoints, the comparison matrix, the curves, the scatter table
or the cluster outputs fails here. A second run on the same dataset
trains two LSTM models, so the tape, the layers and the optimizer are
pinned for both backbones. The digests depend on float64
arithmetic being reproducible on the platform; regenerate them only for
a change that is meant to alter the outputs, and say so.
"""

import hashlib
import json

import pytest

from forecast_uq.cli import main

GENERATOR = {
    "families": {"periodic": 40, "spikes": 40, "trend": 40, "noise": 40},
    "series_length": 12,
    "amplitude_range": [10.0, 100.0],
    "noise": {"law": "uniform", "low": 1.0, "high": 10.0},
    "seed": 11,
}

RUN = {
    "models": [
        {"backbone": "dense", "uncertainty": u}
        for u in ("point", "homoscedastic", "heteroscedastic", "mc_dropout")
    ],
    "train": {"max_epochs": 4, "patience": 4, "batch_size": 32},
    "seeds": [0, 1],
    "desk": True,
    "mc_samples": 5,
    "curve_points": 12,
    "scatter_rows": 50,
    "k": 4,
}

GOLDEN = {
    "ckpt/dense_heteroscedastic_seed0.ckpt.json":
        "a84109f0e8c7d1493141210ea386050d19573efac8ac47fa7bb880f67f5c8593",
    "ckpt/dense_heteroscedastic_seed0.history.json":
        "ad3377daee6fc401d9273496fa4548577348ba833cabca72b15d3e6805fa1c54",
    "ckpt/dense_heteroscedastic_seed1.ckpt.json":
        "c3820f97b602a410da0b409d826ded2797ad5182f9e59bae15cd756ef85a2ce6",
    "ckpt/dense_heteroscedastic_seed1.history.json":
        "83538096b96e21192c7da02c299cbede61b416333e17bb1ce5c15c9c8411a968",
    "ckpt/dense_homoscedastic_seed0.ckpt.json":
        "63649dab8dd0a058bf0cf2923141d17f9fee712a79b320ea5782e06b6a01bc7e",
    "ckpt/dense_homoscedastic_seed0.history.json":
        "500f8d7b56833d7643a4b8219af9f0531f442fd8021bc99a22d4f3cebd5fb6a6",
    "ckpt/dense_homoscedastic_seed1.ckpt.json":
        "ba4af00ae142bdd5469b6cb64e090ac4dc381c8b90bf2212c440afa023a57e87",
    "ckpt/dense_homoscedastic_seed1.history.json":
        "2d84da73397e78d4f2e4622b302dacb91fc6943403b8dbcc413345f1cdb67e93",
    "ckpt/dense_mc_dropout_seed0.ckpt.json":
        "789a9c7369215c8a88b5400e4bd4e7d204cb50990fdd86bf2751e824f2921796",
    "ckpt/dense_mc_dropout_seed0.history.json":
        "06e8f2410606b355caf805c2aaa65d63ec74d947581d88313f15f4366a54e9d1",
    "ckpt/dense_mc_dropout_seed1.ckpt.json":
        "c061e196f2a1da199747b2f3db5db9101b4114c6cc5e261f36fa882196185815",
    "ckpt/dense_mc_dropout_seed1.history.json":
        "5045b09646b3d23e716db25b8b28043cfa9ef5965f7f84fa279407dd73d99377",
    "ckpt/dense_point_seed0.ckpt.json":
        "f29bbf56795bd6a4505ebea8bdf0967a38e239684cd65b1a03ee8671fda4fbd2",
    "ckpt/dense_point_seed0.history.json":
        "4e2e8316c0aa7af4eb1ce5c6c7504a853fccfec997d52fee97e6ddf9b65c8497",
    "ckpt/dense_point_seed1.ckpt.json":
        "8847f109ec0c40bb1f9c4ae118e5f27fba0d03ff0b274bd038d157b8cc4cf2f1",
    "ckpt/dense_point_seed1.history.json":
        "130bd9d34a4e7192b401d8211bec3cf267ddaf574a6d3a860b325c6b806ef6dc",
    "cluster/assignments.csv":
        "59f8f4d68c65d7b4a35393032eddb23dbd81d641a0724a6c6097a9b9b0b3227a",
    "cluster/centroids.csv":
        "8e331f5f3c0588c9b2132866fae831abcfc35cd9832da34e172f32460289cfcf",
    "cluster/cluster_summary.json":
        "542b124fa7e4598855da6a91f4c3790cae3b8b7d8d32523497961b0d59b4d5a0",
    "dataset.csv":
        "3fd7f843003cbb2e7f05b28790e996b04421f7146d69bf6e2bac82eceb307a36",
    "eval/curve_baseline_last+input_variance.csv":
        "c4138f9039ad4cc1b821e3b626226c47775ede11224fdc3b9f805f080b8d372b",
    "eval/curve_baseline_mean+input_variance.csv":
        "a0fcb03c91aea6d0397867facc0570702529fb9f44315bcd04b021d25f35c40f",
    "eval/curve_baseline_zero+input_variance.csv":
        "ede149355df2c5f5d374ee817a9800e767bf2ec215a57607c427bfda66152c4d",
    "eval/curve_dense_heteroscedastic+input_variance_seed0.csv":
        "e1598d40196e61daad712e3702ad70e0aad9336572e015f8f3ecc43286da124f",
    "eval/curve_dense_heteroscedastic+input_variance_seed1.csv":
        "b56a720e54a6e3ae2e7e0da1217fb049884ba2faf6e320a57b3c6bc53b8f7432",
    "eval/curve_dense_heteroscedastic+predicted_scale_seed0.csv":
        "c4a5757d0ba155f2c6ffadc6b0631ab9af124e9547c9af631c0cbd4ed9762134",
    "eval/curve_dense_heteroscedastic+predicted_scale_seed1.csv":
        "f52ee1403f6fde4ad71881a774e87596a448be8c39ab1d2fdd7757e72cc81ce4",
    "eval/curve_dense_homoscedastic+input_variance_seed0.csv":
        "870639126bef62dd09a58ebb1f37da32ae97eea2f420c2d3fc4eb22d57b98818",
    "eval/curve_dense_homoscedastic+input_variance_seed1.csv":
        "b44543af3efabcab994fd79e116668dcea9b98cc304a6eee3b55b9ce4f84ae0a",
    "eval/curve_dense_mc_dropout+input_variance_seed0.csv":
        "ad49ced42765443b2775ae0f4a4088e3f7bae6f48436fbac22f468fdbfe4a2b3",
    "eval/curve_dense_mc_dropout+input_variance_seed1.csv":
        "dd5ef45e1f416b4c52a3b60693df5d83aaf8cd93d95e81d404b150e61a559b9e",
    "eval/curve_dense_mc_dropout+mc_std_seed0.csv":
        "409dac15427e5dddb65edb48421045d52440e48f558ed9820c96ff46fe5a9be2",
    "eval/curve_dense_mc_dropout+mc_std_seed1.csv":
        "84e310deb341b4496b5355cc44ae7e344c4ca7118d9feb226bb32e97bf380ae5",
    "eval/curve_dense_point+input_variance_seed0.csv":
        "f6815167f2352c6a12b8c7daceba6e65835a1eea37abe42c658c3d16ba572e31",
    "eval/curve_dense_point+input_variance_seed1.csv":
        "546d1bf139c603150f2c695e07e952be92d9eb5cde47ca9af0038942548ecc7e",
    "eval/matrix.json":
        "1a7487c40bc18a13e8a8d3c452b0e2db0f54145cf07952c88a1ebebc9b879b98",
    "eval/scatter.csv":
        "3f310ac2e020f4498f24feb6a746f80fb8e44e33f72a3f114f7d3e5d7545deec",
}

LSTM_RUN = {
    "models": [
        {"backbone": "lstm", "uncertainty": u} for u in ("heteroscedastic", "mc_dropout")
    ],
    "train": {"max_epochs": 2, "patience": 2, "batch_size": 32},
    "seeds": [0],
    "desk": True,
}

LSTM_GOLDEN = {
    "lstm_ckpt/lstm_heteroscedastic_seed0.ckpt.json":
        "3919af270ebd8db09e0d0602990f90d42ee78fcfd50dbfa9d6ddcdf2a9520dd0",
    "lstm_ckpt/lstm_heteroscedastic_seed0.history.json":
        "982bd1f8c563bdca553f3531d8a9181b926552f9bfa659432eb6e2cf29cd4b95",
    "lstm_ckpt/lstm_mc_dropout_seed0.ckpt.json":
        "65c43889a347589d5dc87533d34a3134fab055891fbcf19d2ba48a2c5726ff52",
    "lstm_ckpt/lstm_mc_dropout_seed0.history.json":
        "0ad0749d55725eb6305db112245e53a500958d33804c28fbe84e3bfef62cfcbf",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    (root / "generator.json").write_text(json.dumps(GENERATOR))
    data = root / "dataset.csv"
    assert main(["generate", "--config", str(root / "generator.json"), "--out", str(data)]) == 0
    return root, data


@pytest.fixture(scope="module")
def digests(generated):
    root, data = generated
    (root / "run.json").write_text(json.dumps(RUN))
    run = str(root / "run.json")
    stages = (
        ["train", "--config", run, "--data", str(data), "--out", str(root / "ckpt")],
        ["evaluate", "--config", run, "--data", str(data),
         "--checkpoints", str(root / "ckpt"), "--out", str(root / "eval")],
        ["cluster", "--config", run, "--data", str(data), "--out", str(root / "cluster")],
    )
    for argv in stages:
        assert main(argv) == 0, argv[0]
    files = [data] + sorted(
        p for sub in ("ckpt", "eval", "cluster") for p in (root / sub).iterdir()
    )
    return {str(p.relative_to(root)): sha256(p) for p in files}


@pytest.fixture(scope="module")
def lstm_digests(generated):
    root, data = generated
    (root / "lstm_run.json").write_text(json.dumps(LSTM_RUN))
    out = root / "lstm_ckpt"
    argv = ["train", "--config", str(root / "lstm_run.json"), "--data", str(data), "--out", str(out)]
    assert main(argv) == 0
    return {str(p.relative_to(root)): sha256(p) for p in sorted(out.iterdir())}


def test_artifact_set_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes_are_pinned(digests, name):
    assert digests[name] == GOLDEN[name]


def test_lstm_artifact_set_is_pinned(lstm_digests):
    assert sorted(lstm_digests) == sorted(LSTM_GOLDEN)


@pytest.mark.parametrize("name", sorted(LSTM_GOLDEN))
def test_lstm_artifact_bytes_are_pinned(lstm_digests, name):
    assert lstm_digests[name] == LSTM_GOLDEN[name]

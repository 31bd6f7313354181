"""The strict JSON loader, and the CLI's handling of malformed config and checkpoint files."""

import contextlib
import copy
import io
import json
import re
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forecast_uq.cli import RunConfig, main
from forecast_uq.data import GeneratorConfig, generate_synthetic, write_series_csv
from forecast_uq.documents import from_document, load_json
from forecast_uq.exceptions import ConfigError
from forecast_uq.models import ModelSpec, TrainConfig, build, save_checkpoint


def rejects(cls, raw, message):
    with pytest.raises(ConfigError) as info:
        from_document(cls, raw, "config")
    assert str(info.value) == message


class TestFieldTypes:
    def test_int_rejects_bool_and_float(self):
        rejects(TrainConfig, {"max_epochs": True}, "config.max_epochs: expected an integer, got true")
        rejects(TrainConfig, {"max_epochs": 2.0}, "config.max_epochs: expected an integer, got 2.0")

    def test_float_takes_finite_numbers_and_stores_a_float(self):
        config = from_document(TrainConfig, {"learning_rate": 1}, "config")
        assert type(config.learning_rate) is float and config.learning_rate == 1.0
        rejects(TrainConfig, {"beta1": False}, "config.beta1: expected a finite number, got false")
        rejects(TrainConfig, {"eps": 10**400},
                "config.eps: expected a finite number, got 1" + "0" * 36 + "...")

    def test_bool_takes_only_true_and_false(self):
        assert from_document(RunConfig, {"desk": True}, "config").desk is True
        rejects(RunConfig, {"desk": 1}, "config.desk: expected true or false, got 1")

    def test_tuples_are_checked_element_by_element(self):
        assert from_document(RunConfig, {"seeds": [3, 4]}, "config").seeds == (3, 4)
        rejects(RunConfig, {"seeds": [0, "1"]}, 'config.seeds[1]: expected an integer, got "1"')
        families = {"families": {"trend": 1}}
        rejects(GeneratorConfig, {**families, "amplitude_range": [1, 2, 3]},
                "config.amplitude_range: expected 2 items, got 3")
        config = from_document(GeneratorConfig, {**families, "amplitude_range": [1, 2]}, "config")
        assert config.amplitude_range == (1.0, 2.0)

    def test_dict_values_are_checked(self):
        rejects(GeneratorConfig, {"families": {"trend": 1.5}},
                "config.families.trend: expected an integer, got 1.5")
        rejects(GeneratorConfig, {"families": {"a b": None}},
                'config.families."a b": expected an integer, got null')

    def test_nested_dataclass_follows_the_same_rule(self):
        run = from_document(RunConfig, {"train": {"max_epochs": 5}}, "config")
        assert run.train == TrainConfig(max_epochs=5)
        rejects(RunConfig, {"train": {"epochs": 5}}, "config.train.epochs: unknown key")
        rejects(RunConfig, {"train": []}, "config.train: expected an object, got []")

    def test_semantic_errors_carry_the_path(self):
        rejects(RunConfig, {"train": {"learning_rate": -1}},
                "config.train: learning_rate must be positive")
        rejects(GeneratorConfig, {"families": {"sawtooth": 1}},
                "config: unknown family 'sawtooth', expected one of "
                "('periodic', 'spikes', 'trend', 'noise')")

    def test_std_threshold_must_be_positive_and_finite(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="std_threshold must be positive and finite"):
                RunConfig(std_threshold=bad)
        assert RunConfig(std_threshold=0.5).std_threshold == 0.5

    def test_model_pairs_are_objects_that_unpack_as_pairs(self):
        run = from_document(
            RunConfig, {"models": [{"backbone": "lstm", "uncertainty": "point"}]}, "config"
        )
        assert run.models == (("lstm", "point"),)
        ((backbone, uncertainty),) = run.models
        assert (backbone, uncertainty) == ("lstm", "point")
        rejects(RunConfig, {"models": [{"backbone": "lstm"}]}, "config.models[0].uncertainty: missing")
        rejects(RunConfig, {"models": [["lstm", "point"]]},
                'config.models[0]: expected an object, got ["lstm", "point"]')

    def test_required_and_unknown_keys(self):
        rejects(GeneratorConfig, {}, "config.families: missing")
        rejects(RunConfig, {"k": 2, "\n": 0}, 'config."\\n": unknown key')
        rejects(RunConfig, [], "config: expected an object, got []")

    def test_null_only_where_the_type_allows_it(self):
        rejects(RunConfig, {"k": None}, "config.k: expected an integer, got null")

    def test_round_trips_through_asdict(self):
        spec = ModelSpec.default("lstm", "mc_dropout", 14, desk=True)
        assert from_document(ModelSpec, asdict(spec), "config") == spec
        config = TrainConfig(seed=3, learning_rate=0.5)
        assert from_document(TrainConfig, json.loads(json.dumps(asdict(config))), "config") == config


class TestLoadJson:
    @pytest.mark.parametrize("text, reason", [
        ('{"std_threshold": NaN}', ".std_threshold: expected a finite number, got NaN"),
        ('{"std_threshold": -Infinity}', ".std_threshold: expected a finite number, got -Infinity"),
        ('{"std_threshold": 1e400}', ".std_threshold: expected a finite number, got Infinity"),
        ('{"k": 2,}', ": invalid JSON: Expecting property name enclosed in double quotes: "
                      "line 1 column 9 (char 8)"),
        ("", ": invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[" * 100000, ": invalid JSON: maximum recursion depth exceeded while decoding a JSON "
                       "array from a unicode string"),
    ])
    def test_rejections_name_the_file(self, tmp_path, text, reason):
        path = tmp_path / "run.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_json(path, RunConfig)
        assert str(info.value) == f"{path}{reason}"

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_bytes(b"\xff{}")
        with pytest.raises(ConfigError, match="run.json: invalid JSON: 'utf-8' codec"):
            load_json(path, RunConfig)

    def test_readme_run_config_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        run = from_document(RunConfig, json.loads(block), "README.md")
        assert run.models == (("dense", "heteroscedastic"),) and run.desk


# -- the CLI on malformed files -------------------------------------------------

PROBES = [
    ("run", '{"seeds": 3}', "run.json.seeds: expected an array, got 3"),
    ("run", '{"k": "4"}', 'run.json.k: expected an integer, got "4"'),
    ("run", '{"desk": "no"}', 'run.json.desk: expected true or false, got "no"'),
    ("run", '{"seeds": [1.7]}', "run.json.seeds[0]: expected an integer, got 1.7"),
    ("run", '{"std_threshold": NaN}', "run.json.std_threshold: expected a finite number, got NaN"),
    ("generator", '{"families": {"trend": 3}, "noise": []}',
     "generator.json.noise: expected an object, got []"),
    ("generator", '{"families": {"trend": 3}, "seed": 1.5}',
     "generator.json.seed: expected an integer, got 1.5"),
    ("run", '{"train": {"beta1": 1.0}}', "run.json.train: beta1 must be in [0, 1)"),
    ("run", '{"train": {"beta1": -0.5}}', "run.json.train: beta1 must be in [0, 1)"),
    ("run", '{"train": {"beta2": 1.0}}', "run.json.train: beta2 must be in [0, 1)"),
    ("run", '{"train": {"beta2": 1.5}}', "run.json.train: beta2 must be in [0, 1)"),
    ("run", '{"train": {"eps": 0.0}}', "run.json.train: eps must be positive"),
    ("run", '{"train": {"eps": -1.0}}', "run.json.train: eps must be positive"),
    ("run", '{"seeds": [-1]}', "run.json: seeds must be non-negative, got -1"),
    ("run", '{"seeds": [0, 0]}', "run.json: seeds must not repeat"),
    ("run", '{"models": [{"backbone": "lstm", "uncertainty": "point"}, '
            '{"backbone": "lstm", "uncertainty": "point"}]}', "run.json: models must not repeat"),
    ("generator", '{"families": {"trend": 3}, "seed": -1}',
     "generator.json: seed must be non-negative, got -1"),
    ("run", '{"train": {"seed": 5}}', "run.json: train.seed is set per job by seeds; remove it"),
    ("run", '{"train": {"seed": -1}}', "run.json.train: seed must be non-negative"),
]

# Each document's valid base, and the JSON kinds each path accepts. Paths
# are "/"-separated; a numeric part indexes an array.
INT, NUM, BOOL, STR = {"int"}, {"int", "float"}, {"bool"}, {"str"}
ARR, OBJ = {"array"}, {"object"}
RUN_BASE = {
    "models": [{"backbone": "dense", "uncertainty": "point"}],
    "train": {"max_epochs": 1},
    "seeds": [0],
    "k": 2,
}
RUN_PATHS = {
    "schema_version": INT, "models": ARR, "models/0": OBJ, "models/0/backbone": STR,
    "models/0/uncertainty": STR, "train": OBJ, "train/max_epochs": INT, "train/patience": INT,
    "train/validation_fraction": NUM, "train/batch_size": INT, "train/seed": INT,
    "train/learning_rate": NUM, "train/beta1": NUM, "train/beta2": NUM, "train/eps": NUM,
    "seeds": ARR, "seeds/0": INT, "desk": BOOL, "mc_samples": INT, "curve_points": INT,
    "scatter_rows": INT, "k": INT, "std_threshold": NUM,
}
GENERATOR_BASE = {
    "families": {"trend": 3},
    "series_length": 4,
    "amplitude_range": [10.0, 100.0],
    "noise": {"law": "constant", "scale": 1.0},
    "seed": 0,
}
GENERATOR_PATHS = {
    "families": OBJ, "families/trend": INT, "series_length": INT, "amplitude_range": ARR,
    "amplitude_range/1": NUM, "noise": OBJ, "noise/scale": NUM, "seed": INT,
    "schema_version": INT,
}
BIAS = "parameters/forecast_tower.out.bias"
CHECKPOINT_PATHS = {
    "schema_version": INT, "architecture": OBJ, "architecture/backbone": STR,
    "architecture/uncertainty": STR, "architecture/input_dim": INT,
    "architecture/layer_sizes": ARR, "architecture/layer_sizes/0": INT,
    "architecture/head_size": INT, "architecture/dropout_p": NUM, "parameters": OBJ,
    BIAS: OBJ, f"{BIAS}/shape": ARR, f"{BIAS}/shape/0": INT, f"{BIAS}/data": ARR,
    f"{BIAS}/data/0": NUM, "rng_seed": INT, "training_config": OBJ | {"null"},
    "training_config/max_epochs": INT, "training_config/learning_rate": NUM,
}
# objects whose keys are fixed, and the keys a document may not leave out
OBJECTS = {
    "run": ["", "train", "models/0"],
    "generator": ["", "noise"],
    "checkpoint": ["", "architecture", "parameters", BIAS, "training_config"],
}
REQUIRED = {
    "generator": ["families", "noise/scale"],
    "checkpoint": [
        "schema_version", "architecture", "parameters", "rng_seed", "training_config",
        "architecture/backbone", "architecture/uncertainty", "architecture/input_dim",
        "architecture/layer_sizes", BIAS, f"{BIAS}/shape", f"{BIAS}/data",
    ],
}
PATHS = {"run": RUN_PATHS, "generator": GENERATOR_PATHS, "checkpoint": CHECKPOINT_PATHS}

JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=6),
    "array": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
}


def _parts(path: str) -> list:
    return [int(part) if part.isdigit() else part for part in path.split("/") if part]


def _at(doc, path: str):
    for part in _parts(path):
        doc = doc[part]
    return doc


@st.composite
def malformed(draw):
    """(document, operation, *arguments): one edit that makes a valid file invalid."""
    name = draw(st.sampled_from(sorted(PATHS)))
    ops = ["wrong_kind", "non_finite", "unknown_key", "truncate", "not_an_object"]
    op = draw(st.sampled_from(ops + (["delete"] if name in REQUIRED else [])))
    if op == "wrong_kind":
        path, accepted = draw(st.sampled_from(sorted(PATHS[name].items())))
        wrong = sorted(set(JSON_KINDS) - accepted)
        return name, "set", path, draw(st.sampled_from(wrong).flatmap(JSON_KINDS.get))
    if op == "non_finite":
        path = draw(st.sampled_from(sorted(p for p, k in PATHS[name].items() if k in (INT, NUM))))
        return name, "set", path, draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    if op == "unknown_key":
        return name, "add", draw(st.sampled_from(OBJECTS[name])), draw(st.text(max_size=6)), 0
    if op == "delete":
        return name, "delete", draw(st.sampled_from(REQUIRED[name]))
    if op == "truncate":
        return name, "truncate", draw(st.floats(0.0, 0.999))
    return name, "replace", draw(st.sampled_from(["null", "bool", "int", "str", "array"])
                                 .flatmap(JSON_KINDS.get))


def _render(base: dict, op: str, *args) -> str:
    doc = copy.deepcopy(base)
    if op == "truncate":
        text = json.dumps(doc)
        return text[: int(len(text) * args[0])]
    if op == "replace":
        return json.dumps(args[0])
    if op == "add":
        target = _at(doc, args[0])
        key = args[1] + "_" if args[1] in target else args[1]
        target[key] = args[2]
        return json.dumps(doc)
    *parents, last = _parts(args[0])
    parent = _at(doc, "/".join(map(str, parents)))
    if op == "delete":
        del parent[last]
    else:
        parent[last] = args[1]
    return json.dumps(doc)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")
    data = root / "data.csv"
    write_series_csv(generate_synthetic(GeneratorConfig(families={"trend": 20}, series_length=4)), data)
    ckpt_dir = root / "checkpoints"
    ckpt_dir.mkdir()
    ckpt = ckpt_dir / "model.ckpt.json"
    save_checkpoint(build(ModelSpec("dense", "point", 6, (2,)), seed=0), ckpt, TrainConfig())
    out = str(root / "out")
    paths = {"run": root / "run.json", "generator": root / "generator.json", "checkpoint": ckpt}
    argv = {
        "run": ["cluster", "--config", str(paths["run"]), "--data", str(data), "--out", out],
        "generator": ["generate", "--config", str(paths["generator"]), "--out", out + ".csv"],
        "checkpoint": ["evaluate", "--data", str(data), "--checkpoints", str(ckpt_dir), "--out", out],
    }
    bases = {"run": RUN_BASE, "generator": GENERATOR_BASE, "checkpoint": json.loads(ckpt.read_text())}
    return paths, argv, bases


def _run_cli(cli_files, name: str, text: str) -> tuple[int, str]:
    paths, argv, _ = cli_files
    paths[name].write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv[name])
    return code, err.getvalue()


@pytest.mark.parametrize("name, text, message", PROBES)
def test_probe_messages(cli_files, name, text, message):
    code, err = _run_cli(cli_files, name, text)
    assert code == 1
    assert err == f"error: {cli_files[0][name].parent}/{message}\n"


def test_valid_bases_run(cli_files):
    for name in ("run", "generator", "checkpoint"):
        assert _run_cli(cli_files, name, json.dumps(cli_files[2][name]))[0] == 0


@settings(max_examples=150, deadline=None)
@given(case=malformed())
@example(case=("run", "set", "seeds", 3))
@example(case=("run", "set", "k", "4"))
@example(case=("run", "set", "desk", "no"))
@example(case=("run", "set", "seeds", [1.7]))
@example(case=("run", "set", "std_threshold", float("nan")))
@example(case=("generator", "set", "noise", []))
@example(case=("generator", "set", "seed", 1.5))
@example(case=("generator", "set", "noise/scale", True))
@example(case=("run", "set", "train/beta1", 1.0))
@example(case=("run", "set", "train/beta1", -0.5))
@example(case=("run", "set", "train/beta2", 1.0))
@example(case=("run", "set", "train/beta2", 1.5))
@example(case=("run", "set", "train/eps", 0.0))
@example(case=("run", "set", "train/eps", -1.0))
@example(case=("run", "set", "seeds", [-1]))
@example(case=("run", "set", "seeds", [0, 0]))
@example(case=("run", "set", "models", [{"backbone": "dense", "uncertainty": "point"}] * 2))
@example(case=("generator", "set", "seed", -1))
@example(case=("run", "set", "train/seed", 5))
@example(case=("run", "set", "train/seed", -1))
@example(case=("checkpoint", "delete", "architecture/layer_sizes"))
@example(case=("checkpoint", "set", "architecture/dropout_p", "0.5"))
def test_malformed_file_gives_one_error_line(cli_files, case):
    name, *edit = case
    code, err = _run_cli(cli_files, name, _render(cli_files[2][name], *edit))
    assert code == 1
    assert err.startswith(f"error: {cli_files[0][name]}") and err.count("\n") == 1
    assert err.endswith("\n") and "Traceback" not in err

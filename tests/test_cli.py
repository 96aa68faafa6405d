import csv
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alqsim.__main__ as main_module
import alqsim.cli as cli_module
import alqsim.simulation as simulation_module
from alqsim import (DatasetConfig, QueryStrategy, SimulationConfig, aggregate,
                    dataset_rng, generate_dataset, run_round, run_rounds)
from alqsim.cli import (CSV_HEADER, SHARED_DATASET_NOTE, _experiment_config,
                        _summary_payload, build_parser, main)
from alqsim.strategies import STRATEGY_KINDS

FAST = ["--rounds", "3", "--queries", "5", "--seed", "11"]
ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def run_cli(args):
    return main(list(args))


def load_perfbench(monkeypatch, name):
    """Import ``perfbench/<name>.py`` as it stands, without changing it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def deny_access_to(monkeypatch, directory) -> str:
    """Make ``directory`` and stub ``os.access`` to deny it every access."""
    directory.mkdir()
    real_access = os.access

    def access(path, mode, *args, **kwargs):
        if os.path.abspath(path) == str(directory):
            return False
        return real_access(path, mode, *args, **kwargs)

    monkeypatch.setattr(os, "access", access)
    return str(directory)


class TestRunCommand:
    def test_happy_path_writes_both_files(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_cli(["run", "--strategy", "shifted-normal", "--class-sep",
                        "0.5", *FAST, "--out", str(out)])
        assert code == 0
        assert (out / "summary.json").is_file()
        assert (out / "per_query.csv").is_file()
        assert "wrote" in capsys.readouterr().out

    def test_csv_header_and_row_count(self, tmp_path):
        out = tmp_path / "r"
        run_cli(["run", "--strategy", "random", *FAST, "--out", str(out)])
        with open(out / "per_query.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 5
        assert all(row[0] == "random" for row in rows[1:])
        assert [row[1] for row in rows[1:]] == ["1", "2", "3", "4", "5"]

    def test_unknown_strategy_lists_valid_ones(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--strategy", "bogus"])
        assert exc.value.code == 2
        message = capsys.readouterr().err
        for name in ("random", "uncertainty", "shifted-normal"):
            assert name in message

    def test_budget_violation_exits_2(self, tmp_path, capsys):
        code = run_cli(["run", "--strategy", "random", "--queries", "600",
                        "--batch", "2", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,field", [
        (["--strategy", "shifted-normal", "--concentration", "inf"], "concentration"),
        (["--strategy", "shifted-normal", "--mode", "1e-300"], "mode"),
        (["--strategy", "random", "--class-sep", "inf"], "class_sep"),
        (["--strategy", "random", "--cost-c", "inf"], "C must be finite"),
        (["--strategy", "random", "--jobs", "0"], "jobs"),
        (["--strategy", "random", "--jobs", "-3"], "jobs"),
        (["--strategy", "random", "--mode", "5", "--concentration", "1"], "mode"),
        (["--strategy", "random", "--rounds", "1"], "rounds"),
        (["--strategy", "random", "--class-sep", "1e200"], "class_sep"),
    ])
    def test_bad_value_exits_2_naming_the_field(self, tmp_path, capsys,
                                                flags, field):
        # flags come last, so a case may override the small defaults
        code = run_cli(["run", "--rounds", "2", "--queries", "2", *flags,
                        "--out", str(tmp_path / "x")])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_runtime_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(simulation_module, "fit", explode)
        code = run_cli(["run", "--strategy", "random", *FAST,
                        "--out", str(tmp_path / "x")])
        assert code == 1
        assert "synthetic failure" in capsys.readouterr().err

    def test_float_cells_use_9_significant_digits(self, tmp_path):
        out = tmp_path / "fmt"
        run_cli(["run", "--strategy", "uncertainty", *FAST, "--out", str(out)])
        with open(out / "per_query.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            for cell in row[3:14]:
                if cell:
                    assert cell == format(float(cell), ".9g")

    def test_summary_json_echoes_config(self, tmp_path):
        out = tmp_path / "echo"
        run_cli(["run", "--strategy", "shifted-normal", "--class-sep", "0.75",
                 "--cost-c", "2.5", *FAST, "--out", str(out)])
        payload = json.loads((out / "summary.json").read_text())
        assert payload["config"]["dataset"]["class_sep"] == 0.75
        assert payload["config"]["cost"]["C"] == 2.5
        assert payload["config"]["strategy"]["kind"] == "shifted-normal"
        assert payload["rounds"] == 3

    def test_summary_payload_roundtrips_through_json(self):
        """Each lane's payload echoes the one experiment config as that
        lane's: its own strategy, no other lane's, and the base seed."""
        config = SimulationConfig(
            dataset=DatasetConfig(labeled_size=10, unlabeled_size=200,
                                  n_test_pools=3, test_pool_size=150),
            strategies=tuple(QueryStrategy(kind) for kind in STRATEGY_KINDS),
            n_queries=10, rounds=2, base_seed=3)
        summary = aggregate(config, run_rounds(config))
        assert summary.eta_missing.shape == (len(STRATEGY_KINDS), 10)
        for k, strategy in enumerate(config.strategies):
            payload = json.loads(json.dumps(_summary_payload(config, summary, k)))
            assert payload["rounds"] == 2
            assert payload["confidence"] == 0.99
            assert len(payload["lambda"]["mean"]) == config.n_queries
            assert payload["config"]["strategy"]["kind"] == strategy.kind
            assert "strategies" not in payload["config"]
            assert payload["config"]["dataset"]["seed"] == config.base_seed
            assert payload["eta"]["n_missing"] == summary.eta_missing[k].tolist()
            assert payload["lambda"]["upper"] == summary.lam.upper[k].tolist()


class TestCompareCommand:
    def test_rerun_into_a_filled_out_rewrites_the_same_bytes(self, tmp_path):
        """A second run into the same ``--out`` finds each output as a
        regular file it can write and overwrites it.  A read-only file is
        not tested: ``os.access`` grants root write access to it."""
        out = tmp_path / "again"
        argv = ["compare", *FAST, "--phi", "--out", str(out)]
        assert run_cli(argv) == 0
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        for path in out.iterdir():
            path.write_text("stale\n")
        assert run_cli(argv) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first

    def test_single_round_exits_2_before_any_round(self, tmp_path, capsys,
                                                    monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("a round started")

        monkeypatch.setattr(simulation_module, "run_round", explode)
        code = run_cli(["compare", "--rounds", "1", "--queries", "2",
                        "--out", str(tmp_path / "x")])
        assert code == 2
        assert "rounds >= 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub", "outdir"])
    def test_unusable_out_exits_2_before_any_round(self, tmp_path, capsys,
                                                   monkeypatch, out):
        def explode(*args, **kwargs):
            raise AssertionError("a round started")

        monkeypatch.setattr(cli_module, "run_rounds", explode)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        # an output file's name is taken by a directory
        (tmp_path / "outdir" / "per_query.csv").mkdir(parents=True)
        code = run_cli(["compare", "--rounds", "30",
                        "--out", str(tmp_path / out)])
        assert code == 2
        assert "--out" in capsys.readouterr().err
        assert taken.read_text() == "not a directory"
        assert os.listdir(tmp_path / "outdir") == ["per_query.csv"]

    def test_unwritable_out_directory_exits_2_before_any_round(
            self, tmp_path, capsys, monkeypatch):
        """An ``--out`` directory that exists but cannot be written is
        refused before any round.  ``os.access`` is stubbed to deny it,
        since root passes every real access check."""
        def explode(*args, **kwargs):
            raise AssertionError("a round started")

        locked = deny_access_to(monkeypatch, tmp_path / "locked")
        monkeypatch.setattr(cli_module, "run_rounds", explode)
        code = run_cli(["compare", "--rounds", "30", "--out", locked])
        assert code == 2
        assert repr(locked) in capsys.readouterr().err
        assert os.listdir(locked) == []

    def test_dataset_generated_once_per_seed(self, tmp_path, monkeypatch):
        """The three strategies of a round share one generated dataset."""
        calls = []
        real_generate = simulation_module.generate_dataset

        def counting(config, rng):
            calls.append(config)
            return real_generate(config, rng)

        monkeypatch.setattr(simulation_module, "generate_dataset", counting)
        code = run_cli(["compare", *FAST, "--out", str(tmp_path / "c")])
        assert code == 0
        assert len(calls) == 3  # FAST runs 3 rounds

    def test_combined_csv_shape(self, tmp_path):
        out = tmp_path / "cmp"
        code = run_cli(["compare", "--class-sep", "1.0", *FAST,
                        "--out", str(out), "--jobs", "2"])
        assert code == 0
        with open(out / "per_query.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 3 * 5
        assert [r[0] for r in rows[1:6]] == ["random"] * 5
        assert [r[0] for r in rows[6:11]] == ["uncertainty"] * 5
        assert [r[0] for r in rows[11:16]] == ["shifted-normal"] * 5

    def test_final_table_printed(self, tmp_path, capsys):
        run_cli(["compare", *FAST, "--out", str(tmp_path / "t")])
        output = capsys.readouterr().out
        assert "final-query means" in output
        for name in ("random", "uncertainty", "shifted-normal"):
            assert name in output

    def test_summary_contains_all_strategies(self, tmp_path):
        out = tmp_path / "s"
        run_cli(["compare", *FAST, "--out", str(out)])
        payload = json.loads((out / "summary.json").read_text())
        assert set(payload["strategies"]) == {"random", "uncertainty",
                                              "shifted-normal"}

    def test_flag_defaults_are_the_config_defaults(self, monkeypatch):
        monkeypatch.delenv("ALQ_SEED", raising=False)
        args = build_parser().parse_args(["compare"])
        assert _experiment_config(args, *STRATEGY_KINDS) == SimulationConfig(
            dataset=DatasetConfig(),
            strategies=tuple(QueryStrategy(kind) for kind in STRATEGY_KINDS),
            base_seed=5)
        for kind in STRATEGY_KINDS:
            args = build_parser().parse_args(["run", "--strategy", kind])
            assert _experiment_config(args, args.strategy) == SimulationConfig(
                dataset=DatasetConfig(), strategies=(QueryStrategy(kind),),
                base_seed=5)
        dump = build_parser().parse_args(["dump-dataset"])
        assert dump.class_sep == DatasetConfig.class_sep

    def test_phi_flag_writes_diagnostics(self, tmp_path):
        out = tmp_path / "phi"
        run_cli(["compare", *FAST, "--phi", "--out", str(out)])
        payload = json.loads((out / "phi.json").read_text())
        assert payload["delta"] == 0.05
        entries = payload["strategies"]["shifted-normal"]
        assert len(entries) == 3  # one per round
        assert all(len(e["phi"]) == 5 for e in entries)


def written_json(document) -> str:
    """The text that ``cli`` writes for ``document``, final newline included."""
    return "".join(cli_module._json_chunks(document)) + "\n"


JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.lists(st.floats()),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=30)


class TestJsonWriter:
    """``cli`` writes every JSON file as ``json.dumps(doc, indent=2)`` would."""

    @pytest.mark.parametrize("document", [
        {"outer": {"inner": [1.0, [2.0, 3.0], (4.0, 5.0)], "empty": {}},
         "rows": [[], [0.25], ()], "none": {}},
        [None, True, False, 0, -7, 2**70, {"k": None}],
        [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300],
        [0.5, np.float64(0.1), 0.2],
        {"float64": np.float64(-1.5), "nan-row": [0.5, float("nan")]},
        {"caf\u00e9 \u2603": "na\u00efve \U0001f600 \"quoted\"\n\ttab"},
        [], {}, 1.5, "text", None,
        {"a": {"b": [1.0, [2.0], {"a": [None, 3]}, "s"]}},
        {"a": {"b": {"c": {"row": [None, True, False, 0, 2**70, float("nan"),
                                   float("inf"), float("-inf"), -0.0, 5e-324,
                                   np.float64(0.1), "caf\u00e9 \u2603"]}}}},
        {"queries": (1, 2, 3)},
    ], ids=["nested", "scalars", "special-floats", "numpy-float64-in-row",
            "numpy-float64", "non-ascii", "empty-list", "empty-dict",
            "bare-float", "bare-str", "bare-none", "deep-mixed-list",
            "deep-flat-mixed-row", "int-tuple"])
    def test_bytes_equal_json_dumps(self, document):
        assert written_json(document) == json.dumps(document, indent=2) + "\n"

    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    @given(JSON_TREES)
    def test_any_json_tree_matches_json_dumps(self, document):
        assert written_json(document) == json.dumps(document, indent=2) + "\n"

    @pytest.mark.parametrize("key", [1, 2.5, None, True])
    def test_non_str_key_rejected(self, key):
        """``json`` would coerce the key to a string; the writer refuses."""
        for document in ({"ok": {key: 1.0}}, [{key: 2.0}]):
            with pytest.raises(TypeError, match="keys must be str"):
                written_json(document)

    def test_unknown_object_rejected(self):
        for document in ([np.int64(3)], [[1.0, np.int64(3)]]):
            with pytest.raises(TypeError, match="int64 is not JSON serializable"):
                written_json(document)

    def test_mixed_flat_rows_are_one_piece_each(self):
        """A flat row of None, ints and floats, as ``summary.json``'s eta
        series and ints are, is one piece, laid out as ``json`` would."""
        rows = {"mean": [0.5, None, 0.25], "n": (0, 1, 2)}
        pieces = list(cli_module._json_chunks({"eta": rows}))
        for row in rows.values():
            assert json.dumps(row, indent=2).replace("\n", "\n    ") in pieces

    def test_phi_rows_are_one_piece_each(self, tmp_path):
        """The writer streams: a ``phi.json`` row of floats is one piece,
        where ``json`` makes a piece of every float, and no piece opens
        more than one list, so none holds two rows."""
        out = tmp_path / "phi"
        assert run_cli(["compare", *FAST, "--phi", "--out", str(out)]) == 0
        document = json.loads((out / "phi.json").read_text())
        n_floats = sum(len(row) for lane in document["strategies"].values()
                       for entry in lane for row in entry["phi"])
        pieces = list(cli_module._json_chunks(document))
        assert len(pieces) < n_floats / 4
        assert max(piece.count("[") for piece in pieces) == 1


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def entry_point_process(variables):
    """The BLAS thread variables and the thread count (None without
    ``/proc``) of a fresh interpreter that imports ``alqsim.__main__``,
    started with ``variables`` as its only BLAS thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(variables)
    script = (
        "import json, os\n"
        "import alqsim.__main__\n"
        "task = '/proc/self/task'\n"
        f"print(json.dumps([{{k: os.environ.get(k) for k in {BLAS_THREAD_VARS!r}}},"
        " len(os.listdir(task)) if os.path.isdir(task) else None]))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestEntryPoint:
    """``python -m alqsim`` and the installed script run one function."""

    def test_console_script_names_the_module_entry(self):
        text = (ROOT / "pyproject.toml").read_text()
        scripts = text.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
        name, target = scripts.strip().split(" = ")
        module, function = target.strip('"').split(":")
        assert name == "alqsim"
        assert getattr(importlib.import_module(module), function) is main_module.run

    @pytest.mark.parametrize("args,code", [
        (["compare", "--rounds", "2", "--queries", "2", "--out", "ok"], 0),
        (["compare", "--rounds", "1", "--out", "bad"], 2),
    ], ids=["success", "config-error"])
    def test_module_exit_code(self, tmp_path, args, code):
        proc = subprocess.run([sys.executable, "-m", "alqsim", *args],
                              cwd=tmp_path, capture_output=True)
        assert proc.returncode == code, proc.stderr.decode()
        if code == 2:
            assert b"rounds >= 2" in proc.stderr
            assert not (tmp_path / "bad").exists()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                        reason="counts threads in /proc; one core starts no helper")
    def test_blas_starts_no_helper_thread(self):
        variables, threads = entry_point_process({})
        assert variables == {**dict.fromkeys(BLAS_THREAD_VARS), "OPENBLAS_NUM_THREADS": "1"}
        assert threads == 1

    @pytest.mark.parametrize("name", BLAS_THREAD_VARS)
    def test_caller_thread_count_wins(self, name):
        variables, _ = entry_point_process({name: "2"})
        assert variables == {**dict.fromkeys(BLAS_THREAD_VARS), name: "2"}


class TestHelp:
    """argparse formats a help string only when ``--help`` shows it, so a
    bad format in one fails only here."""

    SEED_HELP = ("round 0's seed (default: $ALQ_SEED or 5); round i uses "
                 "seed + i, and dump-dataset --seed s writes round 0's dataset")

    def help_text(self, capsys, monkeypatch, argv):
        """The help of ``argv``, each run of whitespace one space; wide
        enough that no word is hyphen-wrapped."""
        monkeypatch.setenv("COLUMNS", "1000")
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--help"])
        assert exit_info.value.code == 0
        return " ".join(capsys.readouterr().out.split())

    def test_root_help_lists_the_subcommands(self, capsys, monkeypatch):
        text = self.help_text(capsys, monkeypatch, [])
        assert "{run,compare,dump-dataset}" in text

    @pytest.mark.parametrize("subcommand", ["run", "compare", "dump-dataset"])
    def test_each_subcommand_documents_seed_once(self, capsys, monkeypatch,
                                                 subcommand):
        text = self.help_text(capsys, monkeypatch, [subcommand])
        assert "--seed SEED" in text and "--class-sep CLASS_SEP" in text
        assert text.count(self.SEED_HELP) == 1


class TestDumpDataset:
    def test_writes_default_sized_dataset(self, tmp_path):
        target = tmp_path / "data.csv"
        code = run_cli(["dump-dataset", "--class-sep", "0.5", "--seed", "3",
                        "--out", str(target)])
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "id,f0,f1,f2,f3,label"
        assert len(lines) == 1 + 4010

    def test_header_and_shape(self, tmp_path):
        config = DatasetConfig(class_sep=0.5, labeled_size=10,
                               unlabeled_size=50, n_test_pools=2,
                               test_pool_size=20)
        features, labels = generate_dataset(config, np.random.default_rng(0))
        path = tmp_path / "data.csv"
        with open(path, "w", newline="") as fh:
            cli_module._write_dataset_csv(fh, features, labels)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,f0,f1,f2,f3,label"
        assert len(lines) == len(labels) + 1

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            run_cli(["dump-dataset", "--seed", "9", "--out", str(target)])
        assert a.read_bytes() == b.read_bytes()

    def test_values_roundtrip_at_9_significant_digits(self, tmp_path):
        target = tmp_path / "data.csv"
        assert run_cli(["dump-dataset", "--seed", "9", "--out", str(target)]) == 0
        features, labels = generate_dataset(DatasetConfig(), dataset_rng(9))
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(row[0]) for row in rows] == list(range(len(labels)))
        assert [int(row[-1]) for row in rows] == labels.tolist()
        parsed = np.array([[float(cell) for cell in row[1:-1]] for row in rows])
        np.testing.assert_allclose(parsed, features, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("seed", [7, -7])
    def test_writes_the_dataset_round_0_sees(self, tmp_path, monkeypatch, seed):
        """``dump-dataset --seed s`` writes the dataset that round 0 of an
        experiment run with ``--seed s`` and the same ``--class-sep`` draws."""
        drawn = []

        def capture(*args, **kwargs):
            drawn.append(generate_dataset(*args, **kwargs))
            return drawn[-1]

        flags = ["--class-sep", "0.5", "--seed", str(seed)]
        args = build_parser().parse_args(
            ["run", "--strategy", "random", "--queries", "1", *flags])
        config = _experiment_config(args, args.strategy)
        monkeypatch.setattr(simulation_module, "generate_dataset", capture)
        run_round(config, config.base_seed)
        [(features, labels)] = drawn

        target = tmp_path / "data.csv"
        assert run_cli(["dump-dataset", *flags, "--out", str(target)]) == 0
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(labels)
        assert [row[1:-1] for row in rows] == [
            [f"{x:.9g}" for x in row] for row in features]
        assert [int(row[-1]) for row in rows] == labels.tolist()

    @pytest.mark.parametrize("out", ["existing/x.csv", "somedir/", ""])
    def test_unusable_out_exits_2_before_generating(self, tmp_path, capsys,
                                                    monkeypatch, out):
        def explode(*args, **kwargs):
            raise AssertionError("the dataset was generated")

        monkeypatch.setattr(cli_module, "generate_dataset", explode)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "existing").write_text("a file")
        (tmp_path / "somedir").mkdir()
        code = run_cli(["dump-dataset", "--out", out])
        assert code == 2
        assert "--out" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["existing", "somedir"]
        assert os.listdir(tmp_path / "somedir") == []


    def test_unwritable_out_directory_exits_2_before_generating(
            self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("the dataset was generated")

        locked = deny_access_to(monkeypatch, tmp_path / "locked")
        monkeypatch.setattr(cli_module, "generate_dataset", explode)
        code = run_cli(["dump-dataset", "--out", os.path.join(locked, "d.csv")])
        assert code == 2
        assert repr(locked) in capsys.readouterr().err
        assert os.listdir(locked) == []


class TestDeterminismAndSeeds:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        outs = [tmp_path / "one", tmp_path / "two"]
        for out in outs:
            code = run_cli(["run", "--strategy", "shifted-normal",
                            "--class-sep", "0.5", *FAST, "--out", str(out)])
            assert code == 0
        assert ((outs[0] / "per_query.csv").read_bytes()
                == (outs[1] / "per_query.csv").read_bytes())
        assert ((outs[0] / "summary.json").read_bytes()
                == (outs[1] / "summary.json").read_bytes())

    def test_env_seed_fallback_matches_explicit_flag(self, tmp_path):
        env_out, flag_out = tmp_path / "env", tmp_path / "flag"
        base = ["run", "--strategy", "random", "--rounds", "2",
                "--queries", "4"]
        env = {**os.environ, "ALQ_SEED": "123"}
        proc = subprocess.run([sys.executable, "-m", "alqsim", *base,
                               "--out", str(env_out)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        run_cli([*base, "--seed", "123", "--out", str(flag_out)])
        assert ((env_out / "per_query.csv").read_bytes()
                == (flag_out / "per_query.csv").read_bytes())

    def test_flag_wins_over_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ALQ_SEED", "123")
        flagged, enved = tmp_path / "f", tmp_path / "e"
        run_cli(["run", "--strategy", "random", "--rounds", "2", "--queries",
                 "4", "--seed", "7", "--out", str(flagged)])
        monkeypatch.delenv("ALQ_SEED")
        run_cli(["run", "--strategy", "random", "--rounds", "2", "--queries",
                 "4", "--seed", "7", "--out", str(enved)])
        assert ((flagged / "per_query.csv").read_bytes()
                == (enved / "per_query.csv").read_bytes())

    def test_invalid_env_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ALQ_SEED", "not-a-number")
        code = run_cli(["run", "--strategy", "random", "--rounds", "2",
                        "--queries", "4", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "ALQ_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, env_seed", [
        (["compare", "--seed", str(2**64 + 5)], None),
        (["compare", "--seed", str(-2**63 - 1)], None),
        (["compare"], str(2**64 + 5)),
        (["dump-dataset", "--seed", str(2**64 + 3)], None),
        (["dump-dataset"], str(2**63))])
    def test_seed_beyond_64_bits_exits_2(self, tmp_path, monkeypatch, capsys,
                                         argv, env_seed):
        """Such a seed would fold onto another seed's data: 2**64 + 5 wrote
        seed 5's outputs byte for byte."""
        if env_seed is not None:
            monkeypatch.setenv("ALQ_SEED", env_seed)
        out = tmp_path / "out"
        assert run_cli([*argv, "--out", str(out)]) == 2
        assert "64 bits" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_flag_does_not_change_results(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        args = ["run", "--strategy", "uncertainty", *FAST]
        run_cli([*args, "--out", str(serial)])
        run_cli([*args, "--jobs", "3", "--out", str(parallel)])
        assert ((serial / "per_query.csv").read_bytes()
                == (parallel / "per_query.csv").read_bytes())

    def test_jobs_flag_does_not_change_compare_phi_outputs(self, tmp_path,
                                                          monkeypatch):
        """Every file ``compare --phi`` writes, phi rows included, is the
        same at ``--jobs 1`` and in a two-process pool."""
        monkeypatch.setattr(simulation_module.os, "cpu_count", lambda: 2)
        outs = {jobs: tmp_path / f"jobs-{jobs}" for jobs in ("1", "2")}
        for jobs, out in outs.items():
            assert run_cli(["compare", *FAST, "--phi", "--jobs", jobs,
                            "--out", str(out)]) == 0
        for name in ("per_query.csv", "summary.json", "phi.json"):
            assert ((outs["1"] / name).read_bytes()
                    == (outs["2"] / name).read_bytes()), name


class TestSharedDatasetNote:
    """Under ``--shared-dataset`` only the query draws vary between rounds,
    so ``run`` and ``compare`` say on stderr what the intervals cover; they
    print nothing there without the flag, and stdout is unchanged."""

    def test_note_names_what_the_intervals_cover(self):
        assert "query draws only" in SHARED_DATASET_NOTE
        assert "is a point" in SHARED_DATASET_NOTE

    @pytest.mark.parametrize("command", [["run", "--strategy", "uncertainty"],
                                         ["compare"]])
    @pytest.mark.parametrize("shared", [True, False])
    def test_note_on_stderr_only_with_the_flag(self, tmp_path, capsys,
                                               command, shared):
        flags = ["--shared-dataset"] if shared else []
        code = run_cli([*command, "--rounds", "2", "--queries", "2", *flags,
                        "--out", str(tmp_path / "out")])
        assert code == 0
        output = capsys.readouterr()
        assert output.err == (SHARED_DATASET_NOTE + "\n" if shared else "")
        assert SHARED_DATASET_NOTE not in output.out


class TestOutputsMatchSeedPackage:
    """Outputs equal those of the seed package in ``perfbench/oracle``.

    Every output file and each command's stdout must be byte-equal to the
    seed package's.  The benchmark's own comparison (``check_outputs``:
    1e-12 relative on every number, exact elsewhere) runs as well, so its
    report names the first number that moved.
    """

    def test_compare_and_dump_dataset_match(self, tmp_path, monkeypatch):
        bench = load_perfbench(monkeypatch, "run")

        # each command writes to its own relative directory
        commands = {
            "compare": ["compare", "--class-sep", "0.5", "--rounds", "3",
                        "--queries", "4", "--phi", "--seed", "5"],
            "parallel": ["compare", "--class-sep", "1.0", "--queries", "2",
                         "--batch", "2", "--rounds", "5", "--jobs", "2",
                         "--phi", "--seed", "5"],
            "shared": ["compare", "--rounds", "3", "--queries", "4",
                       "--shared-dataset", "--phi", "--seed", "205"],
            "run": ["run", "--strategy", "shifted-normal", "--class-sep", "0.5",
                    "--rounds", "3", "--queries", "5", "--seed", "7", "--phi"],
            # C != 1 and zeta 0: a round holds no positive label after query
            # 1 (seed 580), or a random round after every query (seed 1283)
            "cost-580": ["compare", "--rounds", "2", "--queries", "3",
                         "--cost-c", "3", "--seed", "580"],
            "cost-1283": ["compare", "--rounds", "2", "--queries", "3",
                          "--cost-c", "3", "--seed", "1283"],
            # a ragged eta row of 8 or more samples: round seed 580 leaves
            # the uncertainty and shifted-normal q = 1 rows 9 of 10
            "cost-571": ["compare", "--rounds", "10", "--queries", "3",
                         "--cost-c", "3", "--seed", "571"],
            # the payload echoes the base seed as config.dataset.seed: a
            # negative one, and one read from the environment only
            "negative-seed": ["compare", "--rounds", "2", "--queries", "2",
                              "--seed", "-7", "--shared-dataset"],
            "env-seed": ["run", "--strategy", "uncertainty", "--rounds", "2",
                         "--queries", "3"],
            # only random lanes and no phi: every query still scores the pool
            "random": ["run", "--strategy", "random", "--rounds", "3",
                       "--queries", "4", "--seed", "11"],
        }
        dirs, stdouts = {}, {}
        for side, package in (("program", bench.SRC), ("seed", bench.ORACLE_SRC)):
            out = tmp_path / side
            out.mkdir()
            runs = [(name, [*args, "--out", name]) for name, args in commands.items()]
            runs.append(("dump", ["dump-dataset", "--seed", "3",
                                  "--out", "dump/dataset.csv"]))
            for name, args in runs:
                # relative paths, so stdout that echoes one is the same
                env = bench.child_env(package)
                if name == "env-seed":
                    env = {**env, "ALQ_SEED": "11"}
                proc = subprocess.run([sys.executable, "-m", "alqsim", *args],
                                      env=env, cwd=out, capture_output=True)
                assert proc.returncode == 0, proc.stderr.decode()
                stdouts[side, name] = proc.stdout
            dirs[side] = out
        for name in [*commands, "dump"]:
            assert stdouts["program", name] == stdouts["seed", name], name
            program, seed = dirs["program"] / name, dirs["seed"] / name
            files = sorted(path.name for path in seed.iterdir())
            assert sorted(path.name for path in program.iterdir()) == files, name
            if name != "dump":
                reference = bench.load_outputs(str(seed), files)
                assert bench.check_outputs(str(program), reference) == [], name
            for file in files:
                assert ((program / file).read_bytes()
                        == (seed / file).read_bytes()), (name, file)


class TestBenchmarkCallSites:
    """The call sites the benchmark's tracer wraps still exist.

    A site the program stops calling reads 0 in the per-layer metrics, and
    nothing else fails, so the sites that are called are pinned here, and
    so is the exact set of sites the program no longer has.  The engine
    matches every model-driven lane in one ``match_targets`` call, and the
    two one-lane model-driven selectors are gone, so their sites are absent
    and the matcher's time shows in ``simulation.run_round``'s self time.
    """

    CALLED = {"datagen.generate_dataset", "datagen.split_pools",
              "glm.fit", "glm.predict_proba", "metrics.auc", "metrics.f1",
              "metrics.mean_ci", "metrics.student_t_quantile",
              "strategies.select_random", "strategies.beta_sample",
              "simulation.run_round", "simulation.run_rounds",
              "simulation.aggregate"}
    ABSENT = {"metrics.compute_phi", "strategies.select_uncertainty",
              "strategies.select_shifted_normal"}

    def test_traced_run_reaches_every_called_site(self, tmp_path, monkeypatch):
        tracer = load_perfbench(monkeypatch, "tracer")
        absent = set()
        code, _, traced = tracer.traced_experiment(
            ["compare", "--rounds", "2", "--queries", "2", "--phi",
             "--out", str(tmp_path / "traced")], absent)
        assert code == 0
        assert self.CALLED <= {span[0] for span in traced.spans}
        assert absent == self.ABSENT

    def test_pool_run_counts_tasks(self, tmp_path, monkeypatch):
        tracer = load_perfbench(monkeypatch, "tracer")
        monkeypatch.setattr(simulation_module.os, "cpu_count", lambda: 2)
        code, stats = tracer.pool_experiment(
            ["compare", "--rounds", "2", "--queries", "2", "--jobs", "2",
             "--out", str(tmp_path / "pool")], set())
        assert code == 0
        assert stats["tasks"] >= 1

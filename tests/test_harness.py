import json
import math

import pytest

from steptardy import (
    ExperimentConfig,
    RunResult,
    SearchParams,
    mad,
    rpd,
    run_benchmark,
    save_instance,
)
from steptardy import harness
from steptardy.generator import GenSpec, generate_instance
from steptardy.harness import CSV_HEADER, group_of, render_csv, render_markdown

from conftest import make_instance


class TestRpd:
    def test_reference_value(self):
        assert round(rpd(680, 638), 2) == 6.58

    def test_equal_values(self):
        assert rpd(251, 251) == 0.0

    def test_zero_reference_flagged(self):
        assert math.isinf(rpd(5, 0))

    def test_zero_zero(self):
        assert rpd(0, 0) == 0.0

    def test_signed_result_allowed(self):
        assert rpd(90, 100) == pytest.approx(-10.0)


class TestMad:
    def test_constant_values(self):
        assert mad([77, 77, 77]) == 0.0

    def test_hand_computed(self):
        assert mad([90, 110]) == pytest.approx(10.0)

    def test_single_value(self):
        assert mad([42]) == 0.0

    def test_zero_mean(self):
        assert mad([0, 0, 0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mad([])


class TestExperimentConfig:
    def test_from_json(self):
        config = ExperimentConfig.from_json(
            json.dumps(
                {
                    "instances": ["a.json"],
                    "generate": {"sizes": [8, 10], "seed": 3},
                    "methods": ["swsp", "gvns"],
                    "replications": 4,
                    "seed": 9,
                    "output": "out.csv",
                }
            )
        )
        assert config.instances == ("a.json",)
        assert config.gen_sizes == (8, 10)
        assert config.methods == ("swsp", "gvns")
        assert config.replications == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"instances": ("x.json",), "methods": ()},
            {"instances": ("x.json",), "methods": ("magic",)},
            {"instances": ("x.json",), "replications": 0},
            {},
            # wrong types, refused in code as in JSON; a string is no list
            # of paths, though it iterates as one
            {"instances": "ab.json", "methods": ("swsp",)},
            {"gen_sizes": (8,), "methods": "swsp"},
            {"gen_sizes": (8,), "replications": True},
            {"gen_sizes": (8.0,)},
            {"gen_sizes": (8,), "seed": "0"},
            {"gen_sizes": (8,), "output": None},
            {"gen_sizes": (8,), "methods": ("gvns", "gvns")},
            # a repeated size or path would run an instance twice
            {"gen_sizes": (8, 8)},
            {"gen_sizes": (8, 10, 8)},
            {"instances": ("x.json", "x.json")},
            {"instances": ("x.json",), "gen_sizes": (10, 10)},
            # one file spelled two ways, relative to tmp_path
            {"instances": ("a.json", "./a.json")},
            {"instances": ("a.json", "sub/../a.json")},
            {"instances": ("link.json", "a.json")},
        ],
    )
    def test_invalid_rejected(self, kwargs, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.json").symlink_to("a.json")
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "config, keys",
        [
            ({"generate": {"sizes": [8]}, "iter_mx": 50}, ["iter_mx"]),
            ({"generate": {"size": [8]}}, ["generate.size"]),
            # a field's name is no key: the generator's fields sit in "generate"
            ({"gen_sizes": [8]}, ["gen_sizes"]),
            ({"generate": {"sizes": [8], "gen_seed": 1}}, ["generate.gen_seed"]),
            (
                {"generate": {"sizes": [8], "sead": 1}, "iter_mx": 50, "bogus": 1},
                ["iter_mx", "bogus", "generate.sead"],
            ),
        ],
        ids=["misspelt", "misspelt-in-generate", "field-name", "field-name-in-generate", "several"],
    )
    def test_unknown_keys_refused(self, config, keys):
        """One ValueError names every unknown key as the file spells it."""
        with pytest.raises(ValueError, match="^unknown config keys") as raised:
            ExperimentConfig.from_json(json.dumps(config))
        assert str(raised.value) == f"unknown config keys {keys}"


def test_group_of_names():
    generated = generate_instance(GenSpec(n=8, h_class=1, d_class=2, seed=4))
    assert group_of(generated) == "S_12"
    # GenSpec accepts a negative seed, which the name spells with its sign
    assert group_of(generate_instance(GenSpec(n=5, h_class=1, d_class=1, seed=-1))) == "S_11"
    assert group_of(make_instance([(1, 0, 0, 0)], name="demo8")) == "demo8"
    assert group_of(make_instance([(1, 0, 0, 0)])) == "n1"


class TestRunBenchmark:
    def test_reference_rows(self, demo8_path):
        config = ExperimentConfig(
            instances=(str(demo8_path),),
            methods=("exact", "swsp", "gvns"),
            replications=10,
        )
        report = run_benchmark(config, zero_time=True)
        assert report.errors == []
        by_method = {row.method: row for row in report.rows}
        assert by_method["exact"].best == 572
        # the weighted search plus swap pass reaches the optimum here
        assert by_method["swsp"].best == 572
        assert by_method["gvns"].rpd_pct == 0.0
        assert by_method["gvns"].mad_pct == 0.0
        assert report.csv_text.splitlines()[0] == CSV_HEADER

    def test_single_method_rpd_is_zero(self, demo8_path):
        config = ExperimentConfig(
            instances=(str(demo8_path),), methods=("swsp",), replications=1
        )
        report = run_benchmark(config)
        assert [row.rpd_pct for row in report.rows] == [0.0]

    def test_rerun_byte_identical(self, demo8_path, tmp_path):
        out = tmp_path / "report.csv"
        config = ExperimentConfig(
            instances=(str(demo8_path),),
            methods=("swsp", "vns"),
            replications=3,
            seed=5,
            output=str(out),
            iter_max=40,
            iter_nip=30,
        )
        first = run_benchmark(config, zero_time=True).csv_text
        assert out.read_text(encoding="utf-8") == first
        second = run_benchmark(config, zero_time=True).csv_text
        assert first == second

    def test_cap_violation_reported_not_fatal(self, tmp_path):
        big = generate_instance(GenSpec(n=12, h_class=1, d_class=1, seed=1))
        path = tmp_path / "big.json"
        save_instance(big, path)
        config = ExperimentConfig(
            instances=(str(path),), methods=("exact", "swsp"), replications=1
        )
        report = run_benchmark(config)
        assert any("exact" in err and "cap" in err for err in report.errors)
        assert [row.method for row in report.rows] == ["swsp"]

    def test_missing_file_reported_not_fatal(self, demo8_path):
        config = ExperimentConfig(
            instances=("no/such/file.json", str(demo8_path)),
            methods=("swsp",),
            replications=1,
        )
        report = run_benchmark(config)
        assert len(report.errors) == 1
        assert "no/such/file.json" in report.errors[0]
        assert len(report.rows) == 1

    def test_generated_suite_rows_sorted(self):
        config = ExperimentConfig(
            gen_sizes=(6, 8), gen_seed=2, methods=("swsp",), replications=1
        )
        report = run_benchmark(config, zero_time=True)
        assert len(report.rows) == 12
        keys = [(row.group, row.n, row.method) for row in report.rows]
        assert keys == sorted(keys)

    def test_solvers_called_through_module_globals(self, demo8, demo8_path, monkeypatch):
        """Each solver is looked up on the module at call time and called with
        the instance alone, or the instance and its SearchParams for gvns/vns:
        code that times solves by replacing these attributes relies on it."""
        calls = []

        def recorder(name):
            real = getattr(harness, name)

            def record(*args, **kwargs):
                calls.append((name, args, kwargs))
                return real(*args, **kwargs)

            return record

        for name in ("brute_force", "branch_and_bound", "swsp", "gvns", "vns"):
            monkeypatch.setattr(harness, name, recorder(name))
        config = ExperimentConfig(
            instances=(str(demo8_path),), methods=harness.METHODS, replications=2, seed=3,
            iter_max=20, iter_nip=10,
        )
        assert run_benchmark(config).errors == []
        params = [SearchParams(iter_max=20, iter_nip=10, seed=seed) for seed in (3, 4)]
        assert calls == [
            ("branch_and_bound", (demo8,), {}),
            ("brute_force", (demo8,), {}),
            *[("gvns", (demo8, p), {}) for p in params],
            ("swsp", (demo8,), {}),
            *[("vns", (demo8, p), {}) for p in params],
        ]

    def test_reported_values_revalidated(self, demo8_path, monkeypatch):
        def lying_swsp(instance, params=None):
            return RunResult(
                best_sequence=tuple(range(1, instance.n + 1)),
                best_value=0,
                iterations=1,
                perturbations=0,
                seed=None,
                trace=(0,),
            )

        monkeypatch.setattr(harness, "swsp", lying_swsp)
        config = ExperimentConfig(
            instances=(str(demo8_path),), methods=("swsp",), replications=1
        )
        report = run_benchmark(config)
        assert report.rows == []
        assert any("evaluates to" in err for err in report.errors)


def test_render_csv_formatting():
    rows = [
        harness.ReportRow(
            group="S_11", n=8, method="swsp", best=575,
            mean=575.0, rpd_pct=float("inf"), mad_pct=0.0, time_s=0.126,
        )
    ]
    text = render_csv(rows)
    assert text == CSV_HEADER + "\nS_11,8,swsp,575,575.00,inf,0.00,0.13\n"


def test_render_markdown_contains_all_columns():
    rows = [
        harness.ReportRow(
            group="S_11", n=8, method="swsp", best=575,
            mean=575.0, rpd_pct=0.0, mad_pct=0.0, time_s=0.1,
        )
    ]
    text = render_markdown(rows)
    assert text.startswith("| " + " | ".join(CSV_HEADER.split(",")))
    assert "| S_11 | 8 | swsp | 575 |" in text

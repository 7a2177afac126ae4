"""Tests for the ``repro-campaign`` command-line entry point."""

import json

import pytest

from repro.engine.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bare_invocation_exits_2_with_subcommand_list(self, capsys):
        """A bare `repro-campaign` gets the subcommand list on stderr and
        exit status 2, not an argparse required-argument error."""
        assert main([]) == 2
        err = capsys.readouterr().err
        for name in ("run", "cache"):
            assert f"\n  {name} " in err
        for removed in ("pipeline", "block-study", "yield-study",
                        "calibrate", "campaign"):
            assert f"\n  {removed} " not in err
        assert "the following arguments are required" not in err

    def test_removed_study_subcommands_are_rejected(self, capsys):
        """The per-study aliases and the calibrate/campaign subcommands are
        gone: `run <canned-name>` replaces them, so argparse rejects them
        like any unknown subcommand."""
        for removed in ("pipeline", "block-study", "yield-study",
                        "calibrate", "campaign"):
            with pytest.raises(SystemExit) as excinfo:
                main([removed, "--monte-carlo", "3"])
            assert excinfo.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        import repro
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro-campaign" in out
        assert repro.__version__ in out

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "study.toml", "--set", "campaign.samples=40",
             "--set", "seed=7", "--workers", "2", "--backend",
             "multiprocess"])
        assert args.study == "study.toml"
        assert args.set == ["campaign.samples=40", "seed=7"]
        assert args.backend == "multiprocess"
        with pytest.raises(SystemExit):  # the study spec is mandatory
            build_parser().parse_args(["run"])

    def test_mp_context_flag(self):
        from repro.engine.cli import _build_backend
        args = build_parser().parse_args(
            [*RUN, "--workers", "2", "--mp-context", "spawn"])
        assert args.mp_context == "spawn"
        assert _build_backend(args).mp_context == "spawn"
        assert build_parser().parse_args(RUN).mp_context is None
        with pytest.raises(SystemExit):
            build_parser().parse_args([*RUN, "--mp-context", "threads"])

    def test_backend_choices(self):
        args = build_parser().parse_args([*RUN, "--backend", "multiprocess"])
        assert args.backend == "multiprocess"
        assert build_parser().parse_args(RUN).backend is None
        for removed in ("bogus", "shm"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([*RUN, "--backend", removed])

    def test_backend_resolution(self):
        from repro.engine.cli import _build_backend
        assert _build_backend(
            build_parser().parse_args(RUN)).name == "serial"
        assert _build_backend(build_parser().parse_args(
            [*RUN, "--workers", "2"])).name == "multiprocess"
        pool = _build_backend(build_parser().parse_args(
            [*RUN, "--workers", "2", "--backend", "multiprocess"]))
        assert pool.name == "multiprocess"
        assert pool.workers == 2
        # an explicit pool backend with --workers 1 still runs a 1-wide pool
        single = _build_backend(build_parser().parse_args(
            [*RUN, "--backend", "multiprocess"]))
        assert single.name == "multiprocess" and single.workers == 1

    def test_batch_size_flag(self):
        """The old `--batch-size` flag is the `campaign.batch_size` spec
        entry: default 1, any positive value, and 0 is refused before
        anything runs."""
        from repro.circuit import EngineError
        assert _campaign_params(RUN)["batch_size"] == 1
        assert _campaign_params(
            [*RUN, "--set", "campaign.batch_size=64"])["batch_size"] == 64
        with pytest.raises(EngineError):  # must be a positive int
            _study_plan([*RUN, "--set", "campaign.batch_size=0"])

    def test_cache_subcommands(self):
        args = build_parser().parse_args(
            ["cache", "stats", "--cache-dir", "c"])
        assert args.cache_command == "stats"
        args = build_parser().parse_args(
            ["cache", "evict", "--cache-dir", "c",
             "--cache-max-age", "60"])
        assert args.cache_command == "evict"
        assert args.cache_max_age == 60.0
        with pytest.raises(SystemExit):  # --cache-dir is mandatory here
            build_parser().parse_args(["cache", "stats"])

    def test_campaign_defaults(self):
        """`run calibrate-then-campaign` keeps the old `campaign`
        subcommand's defaults: seed 1, 50 Monte Carlo samples, k = 5,
        60 LWRS samples, threshold 120, stop on detection, serial and
        uncached."""
        args = build_parser().parse_args(RUN)
        assert args.workers == 1
        assert args.cache_dir is None
        plan = _study_plan(RUN)
        assert (plan.spec.seed, plan.n_monte_carlo, plan.k) == (1, 50, 5.0)
        assert plan.stop_on_detection
        params = _campaign_params(RUN)
        assert params["samples"] == 60
        assert params["exhaustive_threshold"] == 120

    def test_calibrate_options(self):
        argv = ["run", "calibrate", "--set", "calibrate.n_monte_carlo=7",
                "--workers", "3", "--set", "windows.k=4"]
        assert build_parser().parse_args(argv).workers == 3
        plan = _study_plan(argv)
        assert plan.n_monte_carlo == 7
        assert plan.k == 4.0

    def test_cache_eviction_options(self):
        args = build_parser().parse_args(
            ["run", "block-study", "--cache-dir", "c",
             "--cache-max-bytes", "1000", "--cache-max-age", "3600"])
        assert args.cache_max_bytes == 1000
        assert args.cache_max_age == 3600.0


#: A canned campaign study: the parse target of the option tests.
RUN = ["run", "calibrate-then-campaign"]


def _study_spec(argv):
    from repro.engine.cli import _load_spec_with_overrides
    return _load_spec_with_overrides(build_parser().parse_args(argv))


def _study_plan(argv):
    from repro.studies import build_study
    return build_study(_study_spec(argv))


def _campaign_params(argv):
    """The resolved campaign-stage parameters of `run` arguments."""
    from repro.engine.registry import stage_definition
    spec = _study_spec(argv)
    entry = next(stage for stage in spec.stages if stage.stage == "campaign")
    return stage_definition("campaign").resolve_params(
        spec.params, entry.params, "campaign")


class TestCalibrateCommand:
    def test_writes_json(self, tmp_path, capsys):
        """`run calibrate` writes the whole window calibration, equal to
        `calibrate_windows` under the same seed."""
        import numpy as np
        from repro.core import calibrate_windows
        out = tmp_path / "cal.json"
        status = main(["run", "calibrate", "--set", "calibrate.n_monte_carlo=3",
                       "--json", str(out)])
        assert status == 0
        payload = json.loads(out.read_text())
        assert set(payload["deltas"]) == {"msb_sum", "lsb_sum", "dac_sum",
                                          "preamp_cm", "sign", "latch_sum"}
        assert payload["k"] == 5.0
        assert payload["n_samples"] == 3
        calibration = calibrate_windows(n_monte_carlo=3,
                                        rng=np.random.default_rng(1))
        for key in ("sigmas", "means", "deltas"):
            assert payload[key] == getattr(calibration, key), key
        assert "blocks" not in payload
        assert "SymBIST window calibration" in capsys.readouterr().out


class TestCampaignCommand:
    """`run calibrate-then-campaign`, the old `campaign` subcommand."""

    def test_block_campaign_with_cache_and_workers(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        out = tmp_path / "campaign.json"
        argv = [*RUN, "--workers", "2", "--cache-dir", str(cache_dir),
                "--json", str(out)] + _study_overrides()
        assert main(argv) == 0
        cold = json.loads(out.read_text())
        assert cold["blocks"][0]["block"] == "vcm_generator"
        assert cold["blocks"][0]["n_simulated"] == \
            cold["blocks"][0]["n_defects"]
        assert 0.0 <= cold["blocks"][0]["coverage"] <= 1.0
        assert "L-W defect coverage" in capsys.readouterr().out

        # One engine report spans the sweep: graph-wide numbers live at the
        # top level only, never inside the per-block payloads.
        assert "engine" in cold
        assert "engine" not in cold["blocks"][0]
        assert "engine_wall_time" not in cold["blocks"][0]["timing"]

        # Warm rerun: same coverage, everything replayed from the cache.
        assert main(argv) == 0
        warm = json.loads(out.read_text())
        assert warm["blocks"][0]["coverage"] == cold["blocks"][0]["coverage"]
        assert "(100%)" in warm["engine"]

    def test_bare_blocks_flag_means_every_block(self, tmp_path):
        """An empty `campaign.blocks` (the old bare `--blocks`) runs all
        blocks, exactly like omitting it."""
        out = tmp_path / "out.json"
        assert main([*RUN, "--json", str(out)] + _study_overrides(
            **{"campaign.samples": 5, "campaign.blocks": ""})) == 0
        payload = json.loads(out.read_text())
        assert len(payload["blocks"]) == 10  # every A/M-S block
        assert "engine" in payload

    def test_block_subset_is_order_invariant(self, tmp_path):
        """Blocks A,B and B,A simulate the same defects."""
        out = tmp_path / "out.json"

        def run(blocks):
            assert main([*RUN, "--json", str(out)] + _study_overrides(
                **{"seed": 5, "campaign.samples": 10,
                   "campaign.exhaustive_threshold": 20,
                   "campaign.blocks": blocks})) == 0
            return json.loads(out.read_text())

        forward = run("vcm_generator,offset_compensation")
        backward = run("offset_compensation,vcm_generator")
        by_block = lambda payload: {b["block"]: (b["n_simulated"],
                                                 b["n_detected"],
                                                 b["coverage"])
                                    for b in payload["blocks"]}
        assert by_block(forward) == by_block(backward)


def _study_overrides(**overrides):
    """``--set`` arguments: the shared tiny-universe knobs plus extras."""
    values = {"seed": 1, "calibrate.n_monte_carlo": 3,
              "campaign.blocks": "vcm_generator", **overrides}
    return [arg for key, value in values.items()
            for arg in ("--set", f"{key}={value}")]


class TestPipelineCommand:
    def test_matches_two_invocation_flow(self, tmp_path, capsys):
        """`run calibrate-then-campaign --workers 2` == `run calibrate`
        followed by a plain `DefectCampaign.run` with its windows."""
        import numpy as np
        from repro.adc import SarAdc
        from repro.defects import DefectCampaign, SamplingPlan
        pipe_out = tmp_path / "pipe.json"
        cal_out = tmp_path / "cal.json"
        assert main(["run", "calibrate-then-campaign", "--workers", "2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--json", str(pipe_out)] + _study_overrides()) == 0
        assert main(["run", "calibrate", "--json", str(cal_out),
                     "--set", "calibrate.n_monte_carlo=3"]) == 0

        pipe = json.loads(pipe_out.read_text())
        cal = json.loads(cal_out.read_text())
        assert pipe["deltas"] == cal["deltas"]
        campaign = DefectCampaign(adc=SarAdc(), deltas=cal["deltas"])
        result = campaign.run(SamplingPlan(exhaustive=True),
                              blocks=["vcm_generator"],
                              rng=np.random.default_rng(1))
        report = result.block_report("vcm_generator")
        (block,) = pipe["blocks"]
        assert block["block"] == "vcm_generator"
        assert block["n_simulated"] == report.n_simulated
        assert block["n_detected"] == result.n_detected
        assert block["coverage"] == report.coverage.value
        assert block["ci_half_width"] == report.coverage.ci_half_width
        assert "calibrate-then-campaign stage 2" in capsys.readouterr().out

    def test_warm_rerun_is_fully_cached(self, tmp_path, capsys):
        argv = ["run", "calibrate-then-campaign",
                "--cache-dir", str(tmp_path / "cache"),
                "--json", str(tmp_path / "out.json")] + _study_overrides()
        assert main(argv) == 0
        cold = json.loads((tmp_path / "out.json").read_text())
        assert main(argv) == 0
        warm = json.loads((tmp_path / "out.json").read_text())
        assert warm["deltas"] == cold["deltas"]
        for w, c in zip(warm["blocks"], cold["blocks"]):
            assert w["n_detected"] == c["n_detected"]
            assert w["coverage"] == c["coverage"]
        assert "(100%)" in warm["engine"]

class TestBlockStudyCommand:
    def test_matches_sequential_campaign_flow(self, tmp_path, capsys):
        """`run block-study` == `run calibrate-then-campaign` (per-block
        windows and summaries vs one global calibration and a per-block
        sweep) under the same seed, with the identical JSON schema."""
        study_out = tmp_path / "study.json"
        camp_out = tmp_path / "camp.json"
        overrides = _study_overrides(
            **{"campaign.samples": 10, "campaign.exhaustive_threshold": 20,
               "campaign.blocks": "vcm_generator,offset_compensation"})
        assert main(["run", "block-study", "--workers", "2",
                     "--json", str(study_out)] + overrides) == 0
        assert main([*RUN, "--json", str(camp_out)] + overrides) == 0

        study = json.loads(study_out.read_text())
        camp = json.loads(camp_out.read_text())
        assert study["deltas"] == camp["deltas"]
        assert set(study) == set(camp)  # identical top-level schema
        for s, c in zip(study["blocks"], camp["blocks"]):
            assert set(s) == set(c)  # identical per-block schema
            assert s["block"] == c["block"]
            assert s["n_defects"] == c["n_defects"]
            assert s["n_simulated"] == c["n_simulated"]
            assert s["n_detected"] == c["n_detected"]
            assert s["n_escaped"] == c["n_escaped"]
            assert s["coverage"] == c["coverage"]
            assert s["ci_half_width"] == c["ci_half_width"]
        printed = capsys.readouterr().out
        assert "block-study stage 1" in printed
        assert "stages: " in printed

    def test_batched_run_matches_unbatched(self, tmp_path):
        """`--batch-size N` changes the task decomposition, never the
        per-block numbers."""
        common = ["run", "block-study"] + _study_overrides(
            **{"campaign.samples": 8, "campaign.exhaustive_threshold": 20,
               "campaign.blocks": "vcm_generator,offset_compensation"})
        unbatched_out = tmp_path / "unbatched.json"
        batched_out = tmp_path / "batched.json"
        assert main(common + ["--json", str(unbatched_out)]) == 0
        assert main(common + ["--set", "campaign.batch_size=4",
                              "--json", str(batched_out)]) == 0

        unbatched = json.loads(unbatched_out.read_text())
        batched = json.loads(batched_out.read_text())
        assert batched["deltas"] == unbatched["deltas"]
        for b, u in zip(batched["blocks"], unbatched["blocks"]):
            assert set(b) == set(u)
            for key in ("block", "n_defects", "n_simulated", "n_detected",
                        "n_escaped", "coverage", "ci_half_width"):
                assert b[key] == u[key], key

    def test_warm_rerun_is_fully_cached(self, tmp_path):
        argv = ["run", "block-study",
                "--cache-dir", str(tmp_path / "cache"),
                "--json", str(tmp_path / "out.json")] + _study_overrides()
        assert main(argv) == 0
        cold = json.loads((tmp_path / "out.json").read_text())
        assert main(argv) == 0
        warm = json.loads((tmp_path / "out.json").read_text())
        assert warm["deltas"] == cold["deltas"]
        for w, c in zip(warm["blocks"], cold["blocks"]):
            assert w["n_detected"] == c["n_detected"]
            assert w["coverage"] == c["coverage"]
        assert "(100%)" in warm["engine"]


class TestPerBlockJsonSchema:
    def test_identical_keys_across_subcommands(self, tmp_path):
        """`run` of every canned campaign study emits the same per-block
        keys, with the engine report at the top level only."""
        payloads = {}
        for name, extra in [("calibrate-then-campaign", {}),
                            ("block-study", {}),
                            ("yield-loss-study",
                             {"yield.k_values": "[5]",
                              "escape.max_escape_defects": 1})]:
            out = tmp_path / f"{name}.json"
            assert main(["run", name, "--json", str(out)]
                        + _study_overrides(**extra)) == 0
            payloads[name] = json.loads(out.read_text())

        block_keys = {name: frozenset(payload["blocks"][0])
                      for name, payload in payloads.items()}
        assert len(set(block_keys.values())) == 1, block_keys
        for name, payload in payloads.items():
            assert "engine" in payload, name
            block = payload["blocks"][0]
            assert "engine" not in block, name
            assert "engine_wall_time" not in block["timing"], name
            assert "cache_hit_rate" not in block["timing"], name
            # Same seed, same draws: the numbers agree across studies.
            reference = payloads["calibrate-then-campaign"]["blocks"][0]
            assert block["coverage"] == reference["coverage"], name
            assert block["n_detected"] == reference["n_detected"], name


class TestRunCommand:
    COMMON = ["--set", "calibrate.n_monte_carlo=3", "--set", "seed=1",
              "--set", "campaign.blocks=vcm_generator"]

    def test_canned_study_matches_example_spec(self, tmp_path, capsys):
        """`run block-study` == `run examples/studies/block_study.toml`:
        same JSON schema, same numbers."""
        import os
        example = os.path.join(os.path.dirname(__file__), "..", "..",
                               "examples", "studies", "block_study.toml")
        run_out = tmp_path / "run.json"
        legacy_out = tmp_path / "legacy.json"
        assert main(["run", "block-study", "--json", str(run_out)]
                    + self.COMMON) == 0
        assert main(["run", example, "--json", str(legacy_out)]
                    + self.COMMON) == 0
        run_payload = json.loads(run_out.read_text())
        legacy_payload = json.loads(legacy_out.read_text())
        assert set(run_payload) == set(legacy_payload)
        assert run_payload["deltas"] == legacy_payload["deltas"]
        for r, l in zip(run_payload["blocks"], legacy_payload["blocks"]):
            assert set(r) == set(l)
            assert r["coverage"] == l["coverage"]
            assert r["n_detected"] == l["n_detected"]
        assert "block-study stage 1" in capsys.readouterr().out

    def test_toml_spec_with_set_overrides(self, tmp_path, capsys):
        from repro.studies import CALIBRATE_THEN_CAMPAIGN
        spec_path = tmp_path / "study.toml"
        spec_path.write_text(CALIBRATE_THEN_CAMPAIGN.to_toml())
        out = tmp_path / "out.json"
        assert main(["run", str(spec_path), "--json", str(out),
                     "--set", "campaign.samples=10",
                     "--set", "campaign.exhaustive_threshold=20"]
                    + self.COMMON) == 0
        payload = json.loads(out.read_text())
        assert payload["seed"] == 1
        assert [b["block"] for b in payload["blocks"]] == ["vcm_generator"]
        assert payload["blocks"][0]["n_simulated"] == 10  # samples override
        assert "engine" in payload
        assert "calibrate-then-campaign stage 1" in capsys.readouterr().out

    def test_bad_set_assignment_is_actionable(self, capsys):
        assert main(["run", "block-study", "--set", "bogus"]) == 1
        assert "KEY=VALUE" in capsys.readouterr().err
        assert main(["run", "block-study", "--set", "nope.k=1"]) == 1
        assert "known stages" in capsys.readouterr().err

    def test_unknown_study_names_the_canned_ones(self, capsys):
        assert main(["run", "missing.toml"]) == 1
        err = capsys.readouterr().err
        assert "missing.toml" in err
        assert "yield-loss-study" in err


class TestYieldStudyCommand:
    def test_end_to_end_on_multiprocess_backend(self, tmp_path, capsys):
        out = tmp_path / "study.json"
        common = ["run", "yield-loss-study",
                  "--cache-dir", str(tmp_path / "cache"),
                  "--json", str(out)] + _study_overrides(
            **{"yield.k_values": "3,5", "escape.max_escape_defects": 2})
        assert main(common + ["--workers", "2", "--backend",
                              "multiprocess"]) == 0
        cold = json.loads(out.read_text())
        assert [p["k"] for p in cold["yield_loss"]] == [3.0, 5.0]
        assert all(p["analytic_ppm"] > 0 for p in cold["yield_loss"])
        assert cold["escapes"]["n_analyzed"] <= 2
        assert cold["escapes"]["n_analyzed"] == \
            cold["escapes"]["n_functional_escapes"] + \
            cold["escapes"]["n_benign"]
        printed = capsys.readouterr().out
        assert "yield loss versus k" in printed
        assert "escape analysis:" in printed
        assert "via multiprocess" in printed

        # Warm serial rerun must replay the pool run's artifacts bit-for-bit.
        assert main(common) == 0
        warm = json.loads(out.read_text())
        assert warm["yield_loss"] == cold["yield_loss"]
        assert warm["escapes"] == cold["escapes"]
        assert warm["deltas"] == cold["deltas"]
        assert "(100%)" in warm["engine"]


class TestCacheCommand:
    def _warm_cache(self, tmp_path):
        """Three Monte Carlo artifacts plus the windows reduction."""
        cache_dir = tmp_path / "cache"
        assert main(["run", "calibrate", "--set", "calibrate.n_monte_carlo=3",
                     "--cache-dir", str(cache_dir)]) == 0
        return cache_dir

    def test_stats_reports_footprint(self, tmp_path, capsys):
        cache_dir = self._warm_cache(tmp_path)
        out = tmp_path / "stats.json"
        assert main(["cache", "stats", "--cache-dir", str(cache_dir),
                     "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["artifacts"] == 4
        assert payload["total_bytes"] > 0
        assert payload["oldest_age"] >= payload["newest_age"] >= 0
        assert f"4 artifacts" in capsys.readouterr().out

    def test_stats_counts_expired(self, tmp_path, capsys):
        cache_dir = self._warm_cache(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(cache_dir),
                     "--cache-max-age", "0.000001"]) == 0
        assert "expired" in capsys.readouterr().out

    def test_evict_applies_bounds(self, tmp_path, capsys):
        cache_dir = self._warm_cache(tmp_path)
        out = tmp_path / "evict.json"
        assert main(["cache", "evict", "--cache-dir", str(cache_dir),
                     "--cache-max-age", "0.000001",
                     "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["evicted"] == 4
        assert payload["artifacts"] == 0
        assert "evicted 4 artifacts" in capsys.readouterr().out

    def test_evict_requires_a_bound(self, tmp_path, capsys):
        assert main(["cache", "evict",
                     "--cache-dir", str(tmp_path / "cache")]) == 1
        assert "at least one bound" in capsys.readouterr().err


class TestPipelineCacheSharing:
    def test_calibrate_artifacts_are_shared_with_pipeline(self, tmp_path):
        """`run calibrate --cache-dir X` warms the pipeline's calibrate and
        windows stages."""
        cache = str(tmp_path / "cache")
        assert main(["run", "calibrate", "--set", "calibrate.n_monte_carlo=3",
                     "--set", "seed=1", "--cache-dir", cache]) == 0
        out = tmp_path / "out.json"
        assert main(["run", "calibrate-then-campaign", "--cache-dir", cache,
                     "--json", str(out)] + _study_overrides()) == 0
        engine = json.loads(out.read_text())["engine"]
        # 3 Monte Carlo parents and their windows reduction replayed from
        # the standalone calibrate run.
        assert "4 cached" in engine


class TestWarehouseCommand:
    def _study_with_warehouse(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        db = str(tmp_path / "wh.sqlite")
        out = tmp_path / "blocks.json"
        assert main(["run", "block-study", "--cache-dir", cache_dir,
                     "--warehouse", db, "--json", str(out), "--quiet"]
                    + _study_overrides(
            seed=3, **{"campaign.samples": 4,
                       "campaign.blocks":
                           "vcm_generator,offset_compensation"})) == 0
        return cache_dir, db, json.loads(out.read_text())

    def test_warehouse_flag_requires_cache_dir(self, tmp_path, capsys):
        assert main(["run", "block-study",
                     "--warehouse", str(tmp_path / "wh.sqlite")]
                    + _study_overrides()) == 1
        assert "--cache-dir" in capsys.readouterr().err

    def test_run_with_warehouse_answers_canned_query(self, tmp_path,
                                                     capsys):
        _, db, payload = self._study_with_warehouse(tmp_path)
        out = tmp_path / "coverage.json"
        assert main(["warehouse", "query", "per-block-coverage",
                     "--db", db, "--json", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
        rows = [dict(zip(report["headers"], row))
                for row in report["rows"]]
        expected = {entry["block"]: entry for entry in payload["blocks"]}
        assert {row["block"] for row in rows} == set(expected)
        for row in rows:
            for column in ("n_defects", "n_simulated", "n_detected",
                           "n_escaped", "coverage", "ci_half_width"):
                assert row[column] == expected[row["block"]][column]

    def test_offline_index_backfills_equal_rows(self, tmp_path):
        cache_dir, db, _ = self._study_with_warehouse(tmp_path)
        db2 = str(tmp_path / "wh2.sqlite")
        out = tmp_path / "index.json"
        assert main(["warehouse", "index", cache_dir, "--db", db2,
                     "--study", "block-study", "--json", str(out),
                     "--quiet"]) == 0
        assert json.loads(out.read_text())["rows"] > 0
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target, path in ((db, a), (db2, b)):
            assert main(["warehouse", "query", "per-block-coverage",
                         "--db", target, "--json", str(path),
                         "--quiet"]) == 0
        assert json.loads(a.read_text())["rows"] == \
            json.loads(b.read_text())["rows"]

    def test_sql_passthrough_is_read_only(self, tmp_path, capsys):
        _, db, _ = self._study_with_warehouse(tmp_path)
        out = tmp_path / "sql.json"
        assert main(["warehouse", "sql",
                     "SELECT COUNT(*) AS n FROM results",
                     "--db", db, "--json", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["rows"][0][0] > 0
        assert main(["warehouse", "sql", "DELETE FROM results",
                     "--db", db]) == 1
        assert "readonly" in capsys.readouterr().err

    def test_query_missing_db_is_actionable(self, tmp_path, capsys):
        assert main(["warehouse", "query", "per-block-coverage",
                     "--db", str(tmp_path / "absent.sqlite")]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_report_is_actionable(self, tmp_path, capsys):
        _, db, _ = self._study_with_warehouse(tmp_path)
        assert main(["warehouse", "query", "nope", "--db", db]) == 1
        assert "per-block-coverage" in capsys.readouterr().err

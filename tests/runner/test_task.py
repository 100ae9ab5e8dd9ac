"""Tests for the runner task model: hashing, serialisation, seeding."""

import pytest

from repro.benchgen import adder_equivalence_miter
from repro.rl import RandomAgent
from repro.runner import Task, TaskError, default_hard_timeout, resolve_pipeline_kwargs
from repro.sat import kissat_like

from tests.helpers import ripple_adder_aig


@pytest.fixture()
def adder():
    return ripple_adder_aig(3)


class TestFingerprint:
    def test_stable_and_content_addressed(self, adder):
        first = Task.from_aig(adder, "Baseline", config=kissat_like(),
                              time_limit=10.0)
        second = Task.from_aig(ripple_adder_aig(3), "Baseline",
                               config=kissat_like(), time_limit=10.0)
        assert first.fingerprint() == first.fingerprint()
        assert first.fingerprint() == second.fingerprint()

    def test_differs_with_inputs(self, adder):
        base = Task.from_aig(adder, "Baseline", time_limit=10.0)
        variants = [
            Task.from_aig(ripple_adder_aig(4), "Baseline", time_limit=10.0),
            Task.from_aig(adder, "Ours", time_limit=10.0),
            Task.from_aig(adder, "Baseline", time_limit=20.0),
            Task.from_aig(adder, "Baseline", time_limit=10.0,
                          config=kissat_like()),
            Task.from_aig(adder, "Ours", time_limit=10.0,
                          pipeline_kwargs={"lut_size": 6}),
        ]
        fingerprints = {task.fingerprint() for task in variants}
        assert base.fingerprint() not in fingerprints
        assert len(fingerprints) == len(variants)

    def test_config_seed_does_not_split_cache_key(self, adder):
        """The runner derives the solver seed from content, so a configured
        seed cannot change the outcome and must map to the same cell."""
        from dataclasses import replace

        base = kissat_like()
        first = Task.from_aig(adder, "Baseline", config=base, time_limit=10.0)
        second = Task.from_aig(adder, "Baseline", config=replace(base, seed=42),
                               time_limit=10.0)
        assert first.fingerprint() == second.fingerprint()

    def test_group_is_pure_relabelling(self, adder):
        plain = Task.from_aig(adder, "Ours", time_limit=10.0)
        labelled = Task.from_aig(adder, "Ours", time_limit=10.0,
                                 group="w/o RL")
        assert plain.fingerprint() == labelled.fingerprint()
        assert labelled.group_name == "w/o RL"
        assert plain.group_name == "Ours"

    def test_non_serialisable_kwargs_rejected(self, adder):
        task = Task.from_aig(adder, "Ours",
                             pipeline_kwargs={"agent": RandomAgent(seed=0)})
        with pytest.raises(TaskError):
            task.fingerprint()


class TestPinnedFingerprints:
    """Literal cache keys: a change here invalidates every stored result.

    Python randomises ``str`` hashing per process, so these literals also
    hold the keys independent of ``PYTHONHASHSEED``.
    """

    @staticmethod
    def _miter_task(pipeline, **extra):
        return Task.from_aig(adder_equivalence_miter(3, mutated=True, seed=1),
                             pipeline, instance_name="m", config=kissat_like(),
                             time_limit=10.0, **extra)

    def test_sequential_baseline_key(self):
        assert self._miter_task("Baseline").fingerprint() == (
            "c88a5ee51e6c0a425f9a4d4a2d52d364b26756855bb3f4197a41c92029201363")

    def test_portfolio_ours_key(self):
        task = self._miter_task("Ours", backend="portfolio",
                                backend_kwargs={"num_workers": 2})
        assert task.fingerprint() == (
            "6b233e9b6e969153b81381e299d8e758b816966a96b63352537888993076b070")


class TestKindFingerprints:
    def test_each_kind_hashes_only_what_it_reads(self, adder):
        text = Task.from_aig(adder, "Baseline").payload

        def key(**fields):
            return Task(instance_name="x", payload=text, **fields).fingerprint()

        assert key(kind="preprocess") == key(
            kind="preprocess", config=kissat_like(), time_limit=5.0,
            backend="portfolio", mem_limit_mb=64.0)
        assert key(kind="preprocess") != key(kind="preprocess",
                                             pipeline="Ours")
        assert key(kind="sweep") == key(kind="sweep", pipeline="Ours",
                                        time_limit=5.0)
        assert key(kind="sweep") != key(kind="sweep", config=kissat_like())
        assert len({key(), key(kind="preprocess"), key(kind="sweep")}) == 3


class TestSeed:
    def test_deterministic_and_in_range(self, adder):
        task = Task.from_aig(adder, "Baseline", time_limit=10.0)
        assert task.seed() == task.seed()
        assert 0 <= task.seed() < 2 ** 32

    def test_varies_with_content(self, adder):
        first = Task.from_aig(adder, "Baseline")
        second = Task.from_aig(adder, "Ours")
        assert first.seed() != second.seed()


class TestRoundTrip:
    def test_aig_round_trip(self, adder):
        task = Task.from_aig(adder, "Baseline")
        restored = task.aig()
        assert restored.num_pis == adder.num_pis
        assert restored.num_pos == adder.num_pos
        assert task.instance_name == adder.name


class TestHelpers:
    def test_default_hard_timeout(self):
        assert default_hard_timeout(None) is None
        assert default_hard_timeout(60.0) == pytest.approx(150.0)

    def test_resolve_agent_to_recipe(self, adder):
        resolved = resolve_pipeline_kwargs(
            adder, {"agent": RandomAgent(seed=4), "max_steps": 3})
        assert "agent" not in resolved
        assert isinstance(resolved["recipe"], list)
        assert 0 < len(resolved["recipe"]) <= 3

    def test_resolve_none_agent_dropped(self, adder):
        resolved = resolve_pipeline_kwargs(adder, {"agent": None, "lut_size": 6})
        assert resolved == {"lut_size": 6}

    def test_resolve_passthrough_copies(self, adder):
        kwargs = {"lut_size": 6}
        resolved = resolve_pipeline_kwargs(adder, kwargs)
        assert resolved == kwargs
        assert resolved is not kwargs


class TestBackendKwargsFingerprint:
    def test_empty_backend_kwargs_keeps_legacy_fingerprint(self, adder):
        plain = Task.from_aig(adder, "Baseline", time_limit=10.0)
        explicit = Task.from_aig(adder, "Baseline", time_limit=10.0,
                                 backend_kwargs={})
        assert plain.fingerprint() == explicit.fingerprint()

    def test_backend_kwargs_split_the_cache_key(self, adder):
        base = Task.from_aig(adder, "Baseline", time_limit=10.0,
                             backend="portfolio")
        workers = Task.from_aig(adder, "Baseline", time_limit=10.0,
                                backend="portfolio",
                                backend_kwargs={"num_workers": 4})
        cube = Task.from_aig(adder, "Baseline", time_limit=10.0,
                             backend="portfolio",
                             backend_kwargs={"num_workers": 4,
                                             "cube_depth": 3})
        prints = {base.fingerprint(), workers.fingerprint(),
                  cube.fingerprint()}
        assert len(prints) == 3

    def test_portfolio_task_executes(self, adder):
        from repro.runner.batch import execute_task

        task = Task.from_aig(adder, "Baseline", backend="portfolio",
                             backend_kwargs={"num_workers": 2})
        run = execute_task(task)
        assert run.status in ("SAT", "UNSAT")

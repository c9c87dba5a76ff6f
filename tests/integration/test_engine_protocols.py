"""Integration tests: the crypto kernel engine under every protocol layer.

The acceptance bar for the engine is behavioural equivalence: every
protocol variant must decrypt to the same sums with an engine-backed
scheme as without one, and seeded runs must be deterministic across
worker counts.
"""

import pytest

from repro.crypto.engine import CryptoEngine
from repro.crypto.paillier import PaillierScheme
from repro.datastore.workload import WorkloadGenerator
from repro.spfe.batching import BatchedSelectedSumProtocol
from repro.spfe.combined import CombinedSelectedSumProtocol
from repro.spfe.context import ExecutionContext
from repro.spfe.grouped import GroupedSumProtocol
from repro.spfe.multiclient import MultiClientSelectedSumProtocol
from repro.spfe.preprocessing import PreprocessedSelectedSumProtocol
from repro.spfe.selected_sum import SelectedSumProtocol

KEY_BITS = 128
N = 24


@pytest.fixture(scope="module")
def workload():
    generator = WorkloadGenerator("engine-protocols")
    database = generator.database(N, value_bits=16)
    selection = generator.random_selection(N, 8)
    return database, selection


def engine_context(engine, seed):
    return ExecutionContext(
        scheme=PaillierScheme(engine=engine),
        key_bits=KEY_BITS,
        mode="measured",
        rng=seed,
    )


VARIANTS = [
    ("plain", lambda ctx, eng: SelectedSumProtocol(ctx)),
    ("batched", lambda ctx, eng: BatchedSelectedSumProtocol(ctx, batch_size=5)),
    (
        "preprocessed",
        lambda ctx, eng: PreprocessedSelectedSumProtocol(ctx, engine=eng),
    ),
    ("combined", lambda ctx, eng: CombinedSelectedSumProtocol(ctx, batch_size=5)),
    (
        "multiclient",
        lambda ctx, eng: MultiClientSelectedSumProtocol(ctx, num_clients=2),
    ),
]


class TestEngineBackedVariants:
    @pytest.mark.parametrize("name,build", VARIANTS, ids=[v[0] for v in VARIANTS])
    def test_variant_correct_under_engine(self, workload, name, build):
        database, selection = workload
        with CryptoEngine(workers=2, chunk_size=8) as engine:
            ctx = engine_context(engine, "ev-%s" % name)
            result = build(ctx, engine).run(database, selection)
        assert result.value == database.select_sum(selection)

    @pytest.mark.parametrize("name,build", VARIANTS, ids=[v[0] for v in VARIANTS])
    def test_seeded_runs_match_across_worker_counts(self, workload, name, build):
        database, selection = workload
        values = []
        for workers in (1, 3):
            with CryptoEngine(workers=workers, chunk_size=8) as engine:
                ctx = engine_context(engine, "det-%s" % name)
                values.append(build(ctx, engine).run(database, selection).value)
        assert values[0] == values[1] == database.select_sum(selection)

    def test_grouped_protocol_under_engine(self, workload):
        database, _ = workload
        groups = [i % 3 for i in range(len(database))]
        with CryptoEngine(workers=2, chunk_size=8) as engine:
            ctx = engine_context(engine, "grouped")
            result = GroupedSumProtocol(ctx).run_grouped(database, groups)
        expected = [0, 0, 0]
        for value, group in zip(database.values, groups):
            expected[group] += value
        assert result.group_sums == expected

    def test_fixed_base_engine_variant(self, workload):
        database, selection = workload
        with CryptoEngine(workers=1, fixed_base=True, chunk_size=8) as engine:
            ctx = engine_context(engine, "fixed-base")
            result = SelectedSumProtocol(ctx).run(database, selection)
        assert result.value == database.select_sum(selection)

"""Unit tests for the evolutionary co-exploration alternative."""

import pytest

from repro.core import EvolutionConfig, EvolutionarySearch
from repro.workloads import w3


@pytest.fixture(scope="module")
def ea_run():
    search = EvolutionarySearch(w3(), config=EvolutionConfig(
        population=12, generations=5, elite=2, seed=11))
    return search, search.run()


class TestRunMechanics:
    def test_evaluation_budget(self, ea_run):
        _, result = ea_run
        # population + (generations-1) * (population - elite) evaluations
        assert len(result.explored) == 12 + 4 * 10

    def test_designs_within_budget(self, ea_run):
        _, result = ea_run
        for solution in result.explored:
            assert solution.accelerator.total_pes <= 4096
            assert solution.accelerator.total_bandwidth_gbps <= 64

    def test_finds_feasible(self, ea_run):
        _, result = ea_run
        assert result.best is not None
        assert result.best.feasible

    def test_accounting(self, ea_run):
        search, result = ea_run
        assert result.pricing.requests == len(result.explored)
        assert result.trainings_run > 0


class TestDeterminism:
    def test_same_seed_reproducible(self):
        cfg = EvolutionConfig(population=8, generations=3, elite=1,
                              seed=13)
        r1 = EvolutionarySearch(w3(), config=cfg).run()
        r2 = EvolutionarySearch(w3(), config=cfg).run()
        assert ([s.genotypes for s in r1.explored]
                == [s.genotypes for s in r2.explored])


class TestGenomeOperations:
    @pytest.fixture
    def search(self):
        return EvolutionarySearch(w3(), config=EvolutionConfig(
            population=8, generations=2, elite=1, seed=17))

    def test_random_genes_decode(self, search):
        for _ in range(20):
            genes = search._random_genes()
            joint = search.space.decode(genes)
            assert joint.accelerator.total_pes <= 4096

    def test_repair_fixes_budget_violations(self, search):
        genes = search._random_genes()
        # Force both slots to the maximum PE option: invalid as-is.
        pe_positions = [i for i, d in enumerate(search.space.decisions)
                        if d.name.endswith(".pes")]
        for pos in pe_positions:
            genes[pos] = search.space.decisions[pos].num_options - 1
        repaired = search._repair(genes)
        joint = search.space.decode(repaired)
        assert joint.accelerator.total_pes <= 4096

    def test_crossover_produces_valid_child(self, search):
        a = search._random_genes()
        b = search._random_genes()
        child = search._crossover(a, b)
        search.space.decode(child)  # must not raise

    def test_mutation_produces_valid_child(self, search):
        genes = search._random_genes()
        for _ in range(10):
            genes = search._mutate(genes)
            search.space.decode(genes)  # must not raise


class TestConfigValidation:
    def test_population(self):
        with pytest.raises(ValueError):
            EvolutionConfig(population=1)

    def test_tournament(self):
        with pytest.raises(ValueError):
            EvolutionConfig(population=4, tournament=5)

    def test_elite(self):
        with pytest.raises(ValueError):
            EvolutionConfig(population=4, elite=4)

    def test_mutation_rate(self):
        with pytest.raises(ValueError):
            EvolutionConfig(mutation_rate=1.5)

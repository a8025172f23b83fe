import numpy as np
import pytest

from qgrnn import seeding

# derive_seed(0, tag) of every stream tag. A change to a tag or to the
# derivation changes every run's data, so a seed recorded in an old run.json
# would no longer reproduce it.
PINNED = {
    "EDGE_WEIGHTS": 5836529245451711556,
    "INITIAL_STATE": 17195319236771816063,
    "EVOLUTION_TIMES": 6582426945856704739,
    "PARAM_INIT": 4989270442267675056,
    "RESTART": 12204779488828829237,
    "RECONSTRUCT_SAMPLE": 7313090617662718344,
}


class TestDeriveSeed:
    @pytest.mark.parametrize("tag", sorted(PINNED))
    def test_pinned_values(self, tag):
        assert seeding.derive_seed(0, getattr(seeding, tag)) == PINNED[tag]

    def test_distinct_tags_give_distinct_seeds(self):
        tags = [getattr(seeding, tag) for tag in PINNED]
        assert len(set(tags)) == len(tags)
        assert len({seeding.derive_seed(7, tag) for tag in tags}) == len(tags)

    def test_distinct_master_seeds_give_distinct_seeds(self):
        seeds = {seeding.derive_seed(master, seeding.EDGE_WEIGHTS) for master in range(100)}
        assert len(seeds) == 100

    def test_extra_tags_give_distinct_seeds(self):
        # the restart stream is tagged with the attempt number as well
        seeds = {seeding.derive_seed(0, seeding.RESTART, attempt) for attempt in range(1, 10)}
        assert len(seeds) == 9
        assert seeding.derive_seed(0, seeding.RESTART) not in seeds

    def test_is_a_64_bit_integer(self):
        seed = seeding.derive_seed(2**40, seeding.INITIAL_STATE)
        assert isinstance(seed, int) and 0 <= seed < 2**64


class TestDeriveRng:
    def test_repeats_its_draws(self):
        a = seeding.derive_rng(3, seeding.EVOLUTION_TIMES).random(5)
        b = seeding.derive_rng(3, seeding.EVOLUTION_TIMES).random(5)
        assert np.array_equal(a, b)

    def test_seeded_by_derive_seed(self):
        a = seeding.derive_rng(3, seeding.PARAM_INIT).random(5)
        b = np.random.default_rng(seeding.derive_seed(3, seeding.PARAM_INIT)).random(5)
        assert np.array_equal(a, b)

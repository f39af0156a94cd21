"""Block draws from a seeded stream against the scalar draws they replace."""

import random

import numpy as np
import pytest

from mcmforms.util import child_rng, randrange_block


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 2 ** 16, 2 ** 31 - 1, 2 ** 32 - 1])
@pytest.mark.parametrize("count", [0, 1, 1000, 40_000])
def test_block_draws_equal_the_scalar_loop(n, count):
    ref = child_rng(3, "census", f"{n},{count}")
    expected = [ref.randrange(n) for _ in range(count)]
    rng = child_rng(3, "census", f"{n},{count}")
    got = randrange_block(rng, n, count)
    assert got.shape == (count,) and got.dtype == np.int64
    assert got.tolist() == expected
    assert rng.getstate() == ref.getstate()  # every word taken, no more
    assert rng.randrange(n) == ref.randrange(n)


def test_consecutive_blocks_continue_the_stream():
    ref, rng = random.Random(11), random.Random(11)
    expected = [ref.randrange(5) for _ in range(700)]
    got = np.concatenate([randrange_block(rng, 5, k) for k in (0, 1, 299, 400)])
    assert got.tolist() == expected
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [0, -3, 2 ** 32, 2 ** 40])
def test_a_range_outside_one_word_is_refused_untouched(n):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="2\\*\\*32"):
        randrange_block(rng, n, 10)
    assert rng.getstate() == state


def test_a_negative_count_is_refused_untouched():
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match=">= 0"):
        randrange_block(rng, 5, -1)
    with pytest.raises(TypeError):
        randrange_block(rng, 5, 2.0)
    assert rng.getstate() == state


class _Subclass(random.Random):
    pass


@pytest.mark.parametrize("rng", [np.random.default_rng(1), random.SystemRandom(),
                                 _Subclass(1), random, None, 7],
                         ids=["numpy", "system", "subclass", "module", "none", "int"])
def test_anything_but_a_plain_mersenne_twister_is_refused(rng):
    state = rng.getstate() if isinstance(rng, _Subclass) else None
    with pytest.raises(TypeError, match="random.Random"):
        randrange_block(rng, 5, 10)
    if state is not None:
        assert rng.getstate() == state

"""The in-house Philox4x64-10 stream against numpy's Generator(Philox(seed)):
keys, draws and types, bit for bit, and the criterion-1 campaigns drawn
from either."""

import numpy as np
import pytest

from emdenlab import identities
from emdenlab.philox import _CHUNK, Philox, _key

#: seeds of one, two, three and seven 32-bit words (the last exceeds the
#: SeedSequence pool of four words)
KEY_SEEDS = [0, 42, 146, 2**32 - 1, 2**32, 2**64 + 3, 3**140 + 17]


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_key_is_numpys(seed):
    key = np.random.Philox(seed).state["state"]["key"]
    assert _key(seed) == tuple(int(k) for k in key)


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_key_refuses_what_numpy_refuses(seed):
    with pytest.raises((ValueError, TypeError)):
        np.random.Philox(seed)
    with pytest.raises((ValueError, TypeError)):
        _key(seed)


def _call(rng, kind, k, d):
    """One draw of the given kind from rng, with sizes k and d."""
    return {
        "uniform(a, b)": lambda: rng.uniform(-1.5, 2.25),
        "uniform()": lambda: rng.uniform(),
        "uniform(k,)": lambda: rng.uniform(0.15, 3.0, size=k),
        "uniform(k, d)": lambda: rng.uniform(-2.7, 2.7, size=(k, d)),
        "integers(k)": lambda: rng.integers(k),
        "integers(a, b)": lambda: rng.integers(-d, k),
        # rejects about half of its 32-bit draws
        "integers(2**31 + 1)": lambda: rng.integers(2**31 + 1),
        "integers(2**32)": lambda: rng.integers(2**32),
    }[kind]()


KINDS = ["uniform(a, b)", "uniform()", "uniform(k,)", "uniform(k, d)", "integers(k)",
         "integers(a, b)", "integers(2**31 + 1)", "integers(2**32)"]


def _same(x, y):
    assert type(x) is type(y)
    if isinstance(x, np.ndarray):
        assert (x.dtype, x.shape) == (y.dtype, y.shape) and x.tobytes() == y.tobytes()
    else:
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("seed", [0, 42, 146, 2**64 + 3])
def test_interleaved_draws_are_numpys(seed):
    # about 0.1 s: 1500 random calls; the sized draws cross the buffer's
    # refill boundary (4 * _CHUNK words) several times
    ours, ref = Philox(seed), np.random.Generator(np.random.Philox(seed))
    plan = np.random.Generator(np.random.Philox(1000 + seed))
    for _ in range(1500):
        kind = KINDS[int(plan.integers(len(KINDS)))]
        k, d = int(plan.integers(1, 40)), int(plan.integers(1, 5))
        _same(_call(ours, kind, k, d), _call(ref, kind, k, d))


def test_long_and_empty_draws_are_numpys():
    ours, ref = Philox(7), np.random.Generator(np.random.Philox(7))
    for size in [0, 4 * _CHUNK + 3, (0, 3), 1, (3 * _CHUNK, 2)]:
        _same(ours.uniform(size=size), ref.uniform(size=size))
        _same(ours.integers(3), ref.integers(3))
    # a single value draws nothing, so the streams stay aligned after it
    _same(ours.integers(5, 6), ref.integers(5, 6))
    _same(ours.uniform(), ref.uniform())


@pytest.mark.parametrize("words", [0, 1, 7, 149, 4 * _CHUNK, 10**6])
def test_sized_first_refill_is_numpys(words):
    # the first refill makes ceil(words / 4) blocks, at least one and at
    # most _CHUNK, and later ones _CHUNK; the draws cross both boundaries
    ours, ref = Philox(42, words), np.random.Generator(np.random.Philox(42))
    first = min(_CHUNK, max(1, -(-words // 4)))
    _same(ours.integers(5), ref.integers(5))
    assert ours._counter == first
    for size in (3, 4 * first, 2 * _CHUNK):
        _same(ours.uniform(-1.0, 2.0, size=size), ref.uniform(-1.0, 2.0, size=size))
        _same(ours.integers(2**31 + 1), ref.integers(2**31 + 1))
        _same(ours.uniform(), ref.uniform())
    assert ours._counter == first + _CHUNK


def test_wide_or_empty_integer_ranges_are_refused():
    with pytest.raises(NotImplementedError):
        Philox(0).integers(2**32 + 1)
    with pytest.raises(ValueError, match="low >= high"):
        Philox(0).integers(3, 3)


def _draws(monkeypatch, camp, rng):
    """What camp's draw hands the jets, with every draw from rng(seed): each
    field (the repr of its ScalarField, which shows every drawn parameter
    and its type) and its candidates, then the batch's u and frame jets."""
    seen = []
    first_kept = identities._first_kept
    with monkeypatch.context() as m:
        m.setattr(identities, "_rng", rng)
        m.setattr(identities, "_first_kept",
                  lambda fld, cands, per: seen.append((repr(getattr(fld, "field", fld)),
                                                       cands.tobytes()))
                  or first_kept(fld, cands, per))
        batch = identities._draw(camp)
    return seen + [a.tobytes() for a in (batch.u, batch.jets.g, batch.jets.h)]


def test_criterion_1_campaigns_draw_numpys_batches(monkeypatch):
    # the nine criterion-1 campaigns at seed 42, drawn from the in-house
    # stream and from numpy's generator (about 0.3 s)
    numpys = lambda seed, words: np.random.Generator(np.random.Philox(seed))
    for dim in (2, 3, 4):
        for model in ("euclidean", "sphere", "hyperbolic"):
            camp = identities.Campaign(model_name=model, dim=dim, p_values=(1.5, 2.0, 3.0),
                                       samples=1000, seed=42)
            assert _draws(monkeypatch, camp, Philox) == _draws(monkeypatch, camp, numpys), (
                model, dim)

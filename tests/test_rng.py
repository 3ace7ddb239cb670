"""Stream determinism, splitting semantics, and statistical batteries."""

import numpy as np
import pytest

import oracle
from mlpicard import rng
from mlpicard.mlp import CostLedger, mlp_estimate_batch
from mlpicard.problems import builtin
from mlpicard.rng import SplittableStream, StreamBundle, root

# 5-sigma band half-widths for the Monte Carlo checks below; each matches
# the sample size used at the call site.
UNIFORM_MEAN_BAND = 0.002    # 1e6 draws, sigma = 1/sqrt(12)
UNIFORM_VAR_BAND = 0.002
GAUSS_MEAN_BAND = 0.005      # 1e6 draws, sigma = 1
GAUSS_VAR_BAND = 0.01
CORR_BAND_1E5 = 5.0 / np.sqrt(1e5)


def test_root_is_deterministic():
    first = [root(42).next_uniform() for _ in range(3)]
    second = [root(42).next_uniform() for _ in range(3)]
    assert first == second
    s = root(42)
    pair = (s.next_uniform(), s.next_uniform())
    t = root(42)
    assert pair == (t.next_uniform(), t.next_uniform())


def test_zero_seed_is_not_special():
    s = root(0)
    u = s.next_uniform()
    assert 0.0 <= u < 1.0
    assert root(0).next_uniform() == u


def test_seed_validation():
    with pytest.raises(ValueError):
        root(-1)
    with pytest.raises(ValueError):
        root(1 << 64)
    with pytest.raises(TypeError):
        root(1.5)
    with pytest.raises(TypeError):
        root(True)


def test_distinct_seeds_give_uncorrelated_streams():
    a = root(42).uniforms(10**4)
    b = root(43).uniforms(10**4)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_long_run_independence_across_seed_and_path():
    # 1e6-draw battery: distinct (seed, path) pairs stay inside the 5-sigma
    # correlation band 5/sqrt(n).
    n = 10**6
    band = 5.0 / np.sqrt(n)
    a = root(1).uniforms(n)
    for other in (root(2), root(1).spawn(0), root(1).spawn(1).spawn(1)):
        assert abs(np.corrcoef(a, other.uniforms(n))[0, 1]) < band


def test_spawn_builds_paths():
    s = root(7)
    assert s.path == ()
    assert s.spawn(1).spawn(-3).path == (1, -3)
    assert s.spawn(0).path == (0,)


def test_spawn_is_idempotent_and_pure():
    s = root(7)
    s.next_uniform()
    before = (s.path, s.counter)
    c1 = s.spawn(5)
    c2 = s.spawn(5)
    assert (s.path, s.counter) == before
    assert c1 == c2
    assert c1.counter == 0
    assert c1.next_uniform() == c2.next_uniform()


def test_spawn_independent_of_parent_counter():
    a = root(9)
    b = root(9)
    for _ in range(17):
        b.next_uniform()
    assert a.spawn(3).next_uniform() == b.spawn(3).next_uniform()


def test_index_validation():
    s = root(1)
    with pytest.raises(ValueError):
        s.spawn(1 << 63)
    with pytest.raises(ValueError):
        s.spawn(-(1 << 63) - 1)
    assert s.spawn(-(1 << 63)).path == (-(1 << 63),)
    assert s.spawn((1 << 63) - 1).path == ((1 << 63) - 1,)


def test_sibling_interleaving_does_not_couple_streams():
    s = root(11)
    a, b = s.spawn(1), s.spawn(2)
    interleaved_a, interleaved_b = [], []
    for _ in range(50):
        interleaved_a.append(a.next_uniform())
        interleaved_b.append(b.next_uniform())
    a2, b2 = s.spawn(1), s.spawn(2)
    assert interleaved_a == [a2.next_uniform() for _ in range(50)]
    assert interleaved_b == [b2.next_uniform() for _ in range(50)]


def test_uniform_range_mean_variance():
    u = root(1).uniforms(10**6)
    assert ((0.0 <= u) & (u < 1.0)).all()
    assert abs(u.mean() - 0.5) < UNIFORM_MEAN_BAND
    assert abs(u.var() - 1.0 / 12.0) < UNIFORM_VAR_BAND


def test_gaussian_mean_variance_determinism():
    s = root(777)
    g = s.gaussians(10**6)
    assert abs(g.mean()) < GAUSS_MEAN_BAND
    assert abs(g.var(ddof=1) - 1.0) < GAUSS_VAR_BAND
    r = root(777)
    assert r.next_gaussian() == g[0]
    assert r.next_gaussian() == g[1]


def test_block_draws_match_scalar_draws():
    a, b = root(5), root(5)
    assert np.array_equal(a.uniforms(64), np.array([b.next_uniform() for _ in range(64)]))
    a, b = root(5), root(5)
    assert np.array_equal(a.gaussians(64), np.array([b.next_gaussian() for _ in range(64)]))
    assert a.counter == b.counter == 128


def _gaussian_bytes(w1, w2):
    """The package's Gaussians for two word arrays, checking the inputs are left intact."""
    k1, k2 = w1.copy(), w2.copy()
    g = rng._gaussian_from_words(w1, w2)
    assert np.array_equal(w1, k1) and np.array_equal(w2, k2)
    return g.tobytes()


def test_draw_kernel_matches_fresh_array_oracle_on_random_words():
    words = np.random.default_rng(2021).integers(0, 2**64, size=(2, 10**5), dtype=np.uint64)
    assert np.array_equal(rng._mix64_np(words[0].copy()), oracle.mix64_np(words[0]))
    assert _gaussian_bytes(words[0], words[1]) == oracle.gaussian_from_words(words[0], words[1]).tobytes()


def test_draw_kernel_matches_fresh_array_oracle_on_edge_words():
    top = (2**53 - 1) << 11  # w >> 11 == 2^53 - 1: u1 == 1 gives a signed zero
    edge = np.array([0, 2**64 - 1, top, 1 << 11, 0x7FF], dtype=np.uint64)
    w1, w2 = (a.ravel() for a in np.meshgrid(edge, edge, indexing="ij"))
    got = _gaussian_bytes(w1, w2)
    assert got == oracle.gaussian_from_words(w1, w2).tobytes()
    assert np.signbit(np.frombuffer(got)[w1 == top]).any()
    assert np.array_equal(rng._mix64_np(edge.copy()), oracle.mix64_np(edge))


def test_stream_block_draws_match_oracle_through_strided_views():
    # gaussians() hands the kernel the even and odd words as strided views.
    s = root(31).spawn(4).spawn(-2)
    s.next_uniform()  # an odd counter offset
    words = np.array([rng._word(s._key, c) for c in range(1, 2004)], dtype=np.uint64)
    want = oracle.gaussian_from_words(words[0:2000:2], words[1:2000:2])
    assert s.gaussians(1000).tobytes() == want.tobytes()
    assert np.array_equal(s.uniforms(3), (words[2000:] >> np.uint64(11)) * 2.0**-53)


def _battery_paths():
    """Fixed adversarial path pairs: siblings, sign flips, prefixes, depth
    jumps; length <= 4, entries in [-8, 8]."""
    paths = [
        (0,), (1,), (-1,), (2,), (8,), (-8,),
        (1, 1), (1, -1), (-1, 1), (2, 2), (1, 2), (2, 1),
        (3, -3), (-3, 3), (0, 0), (0, 1),
        (1, 1, 1), (1, 1, -1), (2, 2, 2), (0, 0, 0),
        (1, 1, 1, 1), (1, 1, 1, -1), (8, -8, 8, -8), (4, 4, 4, 4),
    ]
    pairs = [(paths[i], paths[j]) for i in range(len(paths)) for j in range(i + 1, len(paths))]
    # Thin deterministically to keep runtime modest while covering all kinds.
    return pairs[::7] + [
        ((1,), (1, 1)), ((2,), (2, 2)), ((0,), (0, 0)),
        ((1, 1), (1, 1, 1)), ((1, 1, 1), (1, 1, 1, 1)),
    ]


def test_path_tree_independence_battery():
    seed = 99
    n = 10**5
    cache = {}

    def draws(path):
        if path not in cache:
            s = root(seed)
            for e in path:
                s = s.spawn(e)
            cache[path] = s.uniforms(n)
        return cache[path]

    for p, q in _battery_paths():
        c = np.corrcoef(draws(p), draws(q))[0, 1]
        assert abs(c) < CORR_BAND_1E5, f"paths {p} vs {q}: corr {c}"


def test_bundle_matches_scalar_streams():
    bundle = StreamBundle.root_children(99, np.arange(1, 9))
    streams = [root(99).spawn(j) for j in range(1, 9)]
    assert np.array_equal(
        bundle.next_uniform(), np.array([s.next_uniform() for s in streams])
    )
    assert np.array_equal(
        bundle.next_gaussian(), np.array([s.next_gaussian() for s in streams])
    )
    child = bundle.spawn(-4)
    child_scalar = [s.spawn(-4) for s in streams]
    assert np.array_equal(
        child.next_uniform(), np.array([s.next_uniform() for s in child_scalar])
    )


def test_bundle_spawn_block_layout():
    bundle = StreamBundle.root_children(3, [5, 6])
    block = bundle.spawn_block([1, 2, 3])
    assert block.shape == (3, 2)
    u = block.next_uniform()
    for i, k in enumerate((1, 2, 3)):
        for j, lane in enumerate((5, 6)):
            assert u[i, j] == root(3).spawn(lane).spawn(k).next_uniform()


def test_returned_arrays_never_share_the_scratch():
    # Kernel temporaries live in per-thread scratch; every array a public
    # method returns must be fresh, and stay unchanged by later draws of
    # every kind on the same thread.
    bundle = StreamBundle.root_children(7, np.arange(1, 301))
    stream = root(7).spawn(3)

    def draw_everything():
        return [
            bundle.next_gaussian(),
            bundle.next_uniform(),
            bundle.spawn(2).keys,
            bundle.spawn_block(np.arange(1, 9)).keys,
            bundle.spawn_block(np.arange(1, 9)).next_gaussian(),
            StreamBundle.root_children(7, np.arange(1, 301)).keys,
            stream.uniforms(500),
            stream.gaussians(500),
        ]

    first = draw_everything()
    kept = [a.copy() for a in first]
    draw_everything()
    mlp_estimate_batch(builtin("linear_meanfield"), 3, 4, 1.0, bundle.spawn(5), CostLedger())
    scratch = list(rng._scratch.__dict__.values())
    assert scratch
    for got, want in zip(first, kept):
        assert np.array_equal(got, want)
        assert not any(np.shares_memory(got, buf) for buf in scratch)


def test_stream_repr_and_equality():
    s = root(4).spawn(2)
    assert "path=(2,)" in repr(s)
    assert s == root(4).spawn(2)
    assert s != root(5).spawn(2)


@pytest.mark.parametrize(
    "indices,error",
    [
        ([1.7], TypeError),
        (np.array([1.0]), TypeError),
        ([True], TypeError),
        (np.array([True]), TypeError),
        (["1"], TypeError),
        ([1 << 63], ValueError),
        (np.array([1 << 63], dtype=np.uint64), ValueError),
        ([-(1 << 63) - 1], ValueError),
    ],
)
def test_bundle_indices_are_checked_before_any_key(monkeypatch, indices, error):
    # [1.7] would give the keys of [1], so two replications could share a
    # stream; every index is checked as SplittableStream.spawn checks one.
    def refuse(*args, **kwargs):
        raise AssertionError("a key was derived before the indices were checked")

    bundle = StreamBundle.root_children(3, [5, 6])
    monkeypatch.setattr(rng, "_child_keys_np", refuse)
    with pytest.raises(error):
        StreamBundle.root_children(3, indices)
    with pytest.raises(error):
        bundle.spawn_block(indices)


def test_bundle_indices_accept_integer_sequences_and_arrays():
    big = (1 << 63) - 1
    want = StreamBundle.root_children(3, np.array([1, -2, big])).keys
    for indices in ([1, -2, big], (np.int32(1), np.int64(-2), np.uint64(big)), np.array([1, -2, big], dtype=object)):
        assert np.array_equal(StreamBundle.root_children(3, indices).keys, want)
    assert np.array_equal(StreamBundle.root_children(3, np.array([1], np.uint8)).keys, want[:1])
    assert StreamBundle.root_children(3, []).shape == (0,)
    with pytest.raises(TypeError):
        root(3).spawn(True)


@pytest.mark.parametrize("counter,error", [(-3, ValueError), (True, TypeError), (1.5, TypeError)])
def test_stream_and_bundle_counters_are_checked(counter, error):
    # At counter -3, next_uniform() wrapped to counter 2**64 - 3 while the
    # block draws raised OverflowError.
    keys = StreamBundle.root_children(3, [1, 2]).keys
    with pytest.raises(error, match="counter"):
        SplittableStream(3, (1,), counter)
    with pytest.raises(error, match="counter"):
        StreamBundle(keys, counter)
    assert SplittableStream(3, (1,), np.int64(2)).next_uniform() == StreamBundle(keys, 2).next_uniform()[0]


@pytest.mark.parametrize("count,error", [(True, TypeError), (2.5, TypeError), (-1, ValueError)])
def test_stream_block_counts_are_checked_before_any_word(count, error):
    s = root(3).spawn(1)
    for draw in (s.uniforms, s.gaussians):
        with pytest.raises(error):
            draw(count)
        assert s.counter == 0
    assert s.uniforms(np.int64(0)).shape == (0,)

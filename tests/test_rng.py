"""Stream determinism, splitting semantics, and statistical batteries."""

import math

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


# The kernel takes its cosines in the order of the angle word's top 7 bits,
# tile by tile, and writes each back to its lane: every shape must come out
# as the oracle's plain np.cos does, 0-d, empty and more than one tile too.
@pytest.mark.parametrize("shape", [(), (0,), (1,), (2, 3), (33, 1000), (4, 5, 6)])
def test_draw_kernel_matches_oracle_at_every_shape(shape):
    w1, w2 = np.random.default_rng(26).integers(0, 2**64, size=(2, *shape), dtype=np.uint64)
    assert _gaussian_bytes(w1, w2) == oracle.gaussian_from_words(w1, w2).tobytes()


def test_draw_kernel_matches_oracle_within_and_across_angle_buckets():
    words = np.random.default_rng(27).integers(0, 2**64, size=(2, 5000), dtype=np.uint64)
    w1, w2 = words[0], (words[1] >> np.uint64(7)) | np.uint64(37 << 57)  # all in bucket 37
    assert _gaussian_bytes(w1, w2) == oracle.gaussian_from_words(w1, w2).tobytes()
    # Angle words at each side of a bucket edge, low 57 bits all zeros and all ones.
    edge = np.array([(t << 57) | low for t in (0, 63, 64, 127) for low in (0, 2**57 - 1)], dtype=np.uint64)
    w1, w2 = (a.ravel() for a in np.meshgrid(np.array([0, 2**64 - 1, 12345], dtype=np.uint64), edge))
    assert _gaussian_bytes(w1, w2) == oracle.gaussian_from_words(w1, w2).tobytes()


def test_bundle_gaussians_on_two_dimensional_keys_match_scalar_streams():
    indices = np.arange(-60, 60).reshape(4, 30)
    bundle = StreamBundle.root_children(2021, indices)
    streams = [root(2021).spawn(int(i)) for i in indices.ravel()]
    for _ in range(2):
        want = np.array([s.next_gaussian() for s in streams]).reshape(indices.shape)
        assert bundle.next_gaussian().tobytes() == want.tobytes()


# Box-Muller angles near glibc cos's region edges (|x| = 0.855469 and
# 2.426265, whose high words it compares with 0x3feb6000 and 0x400368fd),
# next to pi/2, pi and 3*pi/2, and the largest angle the kernel makes.
COS_EDGE_ANGLES = [
    0x3FEB5FFFFFFFFFFF, 0x3FEB600000000000, 0x3FEB600000000001,
    0x400368FCFFFFFFFF, 0x400368FD00000000, 0x400368FD00000001,
    0x3FF921FB54442D17, 0x3FF921FB54442D18, 0x3FF921FB54442D19,
    0x400921FB54442D17, 0x400921FB54442D18, 0x400921FB54442D19,
    0x4012D97C7F3321D1, 0x4012D97C7F3321D2, 0x4012D97C7F3321D3,
    0x401921FB54442D17,
]


def test_float64_cos_is_elementwise_as_the_kernel_assumes():
    words = np.random.default_rng(28).integers(0, 2**64, size=1 << 16, dtype=np.uint64)
    edges = np.array(COS_EDGE_ANGLES, dtype=np.uint64).view(np.float64)
    x = np.concatenate([(words >> np.uint64(11)) * rng._ANGLE_2_53, edges])
    p = np.random.default_rng(29).permutation(x.size)
    assert np.cos(x[p]).tobytes() == np.cos(x)[p].tobytes(), (
        "numpy's float64 cos gives an angle other bits at another position in the array, as a SIMD loop with a "
        "scalar tail may: the Gaussian kernel takes its cosines in angle-bucket order and relies on cos being "
        "elementwise, so its Gaussians would no longer match the oracle's or the SHA pins"
    )
    assert np.cos(edges).tolist() == [math.cos(a) for a in edges.tolist()], (
        "numpy's float64 cos is not the C library's scalar cos, with which every SHA pin was computed"
    )


# Inputs whose float64 log numpy 2.4.6 rounds differently in its AVX-512
# loop and in its baseline loop (671 of 200,000 uniforms on [0, 1) differ,
# each by one ulp), with the AVX-512 bits, the loop every SHA pin was
# computed with.
LOG_KNOWN_ANSWERS = {
    0x3FB2BE3AF3E6C8D0: 0xC004EA319E24F35F,  # 0.0732..., baseline ...F35E
    0x3FCF7E2A6CF80E1C: 0xBFF66FB2E2E0D58E,  # 0.2460..., baseline ...D58D
    0x3FDE565FA18A67B2: 0xBFE7E357FCEEACA0,  # 0.4740..., baseline ...ACA1
    0x3FE20888BF16DD87: 0xBFE25A39AA6E2D79,  # 0.5635..., baseline ...2D78
    0x3FEA4EAB9A7020C6: 0xBFC912E5C960E743,  # 0.8221..., baseline ...E744
    0x3FEF988A989D7CEC: 0xBF8A0784830148ED,  # 0.9873..., baseline ...48EC
}


def test_float64_log_rounds_as_the_pins_assume():
    # Box-Muller takes the log of every u1, so a host whose numpy rounds
    # these inputs otherwise draws other Gaussians than the pins hold.
    u = np.array(list(LOG_KNOWN_ANSWERS), dtype=np.uint64).view(np.float64)
    got = np.log(u).view(np.uint64).tolist()
    assert got == list(LOG_KNOWN_ANSWERS.values()), (
        "numpy's float64 log rounds known inputs to other bits than its AVX-512 loop, with which every SHA pin "
        "was computed: numpy picks its log loop at run time by the CPU's SIMD features (run-time SIMD dispatch; "
        "see numpy.show_runtime()).  On this host the pin of raw estimates fails, and artifact bytes may differ"
    )


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
    # The node blocks of the estimator: a leading axis of child indices.
    bundle = StreamBundle.root_children(3, [5, 6])
    block = rng._spawn_block(bundle, np.array([1, 2, 3]))
    assert block.shape == (3, 2)
    u = block.next_uniform()
    for i, k in enumerate((1, 2, 3)):
        for j, lane in enumerate((5, 6)):
            assert u[i, j] == root(3).spawn(lane).spawn(k).next_uniform()
    # root_children keeps the shape of its indices, here two lane axes.
    grid = StreamBundle.root_children(3, [[5, 6], [7, 8]])
    assert grid.shape == (2, 2)
    assert np.array_equal(grid.keys[0], bundle.keys)


def test_returned_arrays_stay_unchanged_by_later_draws():
    # Every array a public method returns must be fresh, and stay unchanged
    # by later draws of every kind on the same thread.
    bundle = StreamBundle.root_children(7, np.arange(1, 301))
    stream = root(7).spawn(3)

    def draw_everything():
        return [
            bundle.next_gaussian(),
            bundle.next_uniform(),
            bundle.spawn(2).keys,
            rng._spawn_block(bundle, np.arange(1, 9)).keys,
            rng._spawn_block(bundle, np.arange(1, 9)).next_gaussian(),
            StreamBundle.root_children(7, np.arange(1, 301)).keys,
            stream.uniforms(500),
            stream.gaussians(500),
        ]

    first = draw_everything()
    kept = [a.copy() for a in first]
    draw_everything()
    mlp_estimate_batch(builtin("linear_meanfield"), 3, 4, 1.0, bundle.spawn(5), CostLedger())
    for got, want in zip(first, kept):
        assert np.array_equal(got, want)


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

    monkeypatch.setattr(rng, "_child_keys_np", refuse)
    with pytest.raises(error):
        StreamBundle.root_children(3, indices)


def test_bundle_indices_accept_integer_sequences_and_arrays():
    big = (1 << 63) - 1
    want = StreamBundle.root_children(3, np.array([1, -2, big])).keys
    for indices in ([1, -2, big], (np.int32(1), np.int64(-2), np.uint64(big)), np.array([1, -2, big], dtype=object)):
        assert np.array_equal(StreamBundle.root_children(3, indices).keys, want)
    assert np.array_equal(StreamBundle.root_children(3, np.array([1], np.uint8)).keys, want[:1])
    assert StreamBundle.root_children(3, []).shape == (0,)
    with pytest.raises(TypeError):
        root(3).spawn(True)


@pytest.mark.parametrize("keys", [np.array([0.5, 1.7]), [0.5], np.array([True]), [True], np.array([1], dtype=object)])
def test_bundle_keys_must_be_integers(keys):
    # [0.5, 1.7] used to draw as the keys [0, 1], and [True] as key 1.
    with pytest.raises(TypeError, match="keys"):
        StreamBundle(keys)


def test_int64_bundle_keys_keep_their_bits():
    keys = StreamBundle.root_children(3, np.arange(1, 9)).keys
    signed = keys.view(np.int64)
    assert (signed < 0).any()
    assert np.array_equal(StreamBundle(signed).keys, keys)
    assert np.array_equal(StreamBundle(list(signed)).keys, keys)


@pytest.mark.parametrize("counter,error", [(-3, ValueError), (True, TypeError), (1.5, TypeError), (1 << 64, ValueError)])
def test_stream_and_bundle_counters_are_checked(counter, error):
    # At counter -3, next_uniform() wrapped to counter 2**64 - 3 while the
    # block draws raised OverflowError; at 2**64 it drew the word of counter 0.
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


def test_draws_stop_at_the_last_counter(monkeypatch):
    # At counter 2**64 - 2 one counter is left: a uniform may be drawn, a
    # Gaussian (two counters) may not, by all six draw methods alike.
    last = (1 << 64) - 2
    keys = StreamBundle.root_children(3, [1]).keys
    u = SplittableStream(3, (1,), last).next_uniform()
    assert SplittableStream(3, (1,), last).uniforms(1)[0] == u == StreamBundle(keys, last).next_uniform()[0]
    s = SplittableStream(3, (1,), last)
    s.next_uniform()
    assert s.counter == (1 << 64) - 1 and s.uniforms(0).shape == s.gaussians(0).shape == (0,)

    def refuse(*args, **kwargs):
        raise AssertionError("a word was made before the counters were checked")

    monkeypatch.setattr(rng, "_word", refuse)
    monkeypatch.setattr(rng, "_mix64_np", refuse)
    s, b = SplittableStream(3, (1,), last), StreamBundle(keys, last)
    for draw in (s.next_gaussian, lambda: s.gaussians(1), lambda: s.uniforms(2), b.next_gaussian):
        with pytest.raises(ValueError, match="counter"):
            draw()
    assert s.counter == b.counter == last
    s.counter = b.counter = last + 1
    for draw in (s.next_uniform, lambda: s.uniforms(1), b.next_uniform):
        with pytest.raises(ValueError, match="counter"):
            draw()

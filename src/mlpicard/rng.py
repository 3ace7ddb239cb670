"""Deterministic splittable random streams.

The estimators in this package consume an unbounded family of random draws
indexed by finite integer paths: every stream can spawn child streams by a
signed integer index, to any depth, and every stream owns its own infinite
draw sequence.  This module realises that family with a counter-based
construction.  A stream is identified by ``(seed, path)``; its draws are

    word(seed, path, counter) = mix64((key ^ DRAW_SALT) + (counter + 1) * GOLDEN)

where ``key`` is a per-element chained hash of the seed and the path and
``mix64`` is the SplitMix64 finaliser (Stafford variant 13).  Consequences:

* spawning is O(1) and never touches the parent's counter or path,
* a draw is a pure function of (seed, path, counter), so the same
  (seed, path) reproduces the identical words and uniforms on every run
  and platform (Gaussians go through numpy's float64 ``log`` and ``cos``,
  whose bits may differ with the CPU's SIMD features), and sibling
  streams can be advanced in any interleaving,
* independence across streams is the usual engineering surrogate
  (hash quality rather than a theorem); the test suite runs correlation
  batteries over the path tree to back it up statistically.

Uniforms take the top 53 bits of a word, giving exact float64 values in
[0, 1).  Gaussians use the Box-Muller cosine branch, frozen so that a seed
pins the whole experiment output::

    g = sqrt(-2 ln u1) * cos(2 pi u2)

with u1 in (0, 1] and u2 in [0, 1) built from two consecutive words (the
sine partner is discarded; one gaussian always consumes two counters).
The array kernel takes the cosines in angle-bucket order, which glibc's
branchy ``cos`` predicts well, and puts each back in its lane; the bits
hold because numpy's float64 ``cos`` is elementwise.
A counter lies in [0, 2^64), and a draw that would take the counter past
2^64 - 1 raises ``ValueError`` before it makes a word, so counters never
wrap onto the words of counter 0.

:class:`SplittableStream` is the scalar, object-per-stream interface.
:class:`StreamBundle` advances many streams in lockstep with numpy and
produces bit-identical values lane by lane; the estimators are built on
it alone and run a stream as a 1-lane bundle on the stream's key.

The array kernels allocate their own temporaries, and every array a public
method returns is fresh.  Importing the module allocates and frees one
8 MiB array, a heap warm-up for glibc (see the comment above it).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "GAUSSIAN_ALGORITHM",
    "RNG_ALGORITHM",
    "SplittableStream",
    "StreamBundle",
    "root",
]

RNG_ALGORITHM = "splitmix64-keyed-counter"
GAUSSIAN_ALGORITHM = "box-muller-cosine"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15     # 2^64 / golden ratio, odd
_ROOT_SALT = 0x5851F42D4C957F2D
_SPAWN_SALT = 0xD1342543DE82EF95
_DRAW_SALT = 0x2545F4914F6CDD1D

_INV_2_53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi
_ANGLE_2_53 = _TWO_PI * _INV_2_53  # exact: a power-of-two scaling

_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_SPAWN = np.uint64(_SPAWN_SALT)
_U64_DRAW = np.uint64(_DRAW_SALT)
_SH30, _SH27, _SH31, _SH11, _SH57 = (np.uint64(s) for s in (30, 27, 31, 11, 57))
_COS_TILE = 1 << 13  # lanes per cosine permutation: small enough for L2 and flat peak RSS
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

# glibc mmaps every block above its dynamic mmap threshold (128 KiB at
# start) and gives the heap top back above its trim threshold; freeing an
# mmapped block raises the mmap threshold to its size and the trim
# threshold to twice that.  Freeing this one untouched 8 MiB array lifts
# both above every temporary of the kernels, so a fresh process reuses its
# heap instead of faulting it in again block after block.  On other C
# libraries it is a harmless allocation.
np.empty(1 << 20)


def _mix64(z: int) -> int:
    """SplitMix64 finaliser on Python ints (mod 2^64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser on uint64 arrays (wrapping arithmetic).

    Works in place: ``z`` must be an array that the caller owns; it is
    overwritten with the result and returned.
    """
    z = np.asarray(z)
    for shift, mult in ((_SH30, _M1), (_SH27, _M2)):
        z ^= z >> shift
        z *= mult
    z ^= z >> _SH31
    return z


def _root_key(seed: int) -> int:
    return _mix64(seed ^ _ROOT_SALT)


def _child_key(key: int, index: int) -> int:
    return _mix64((key ^ _SPAWN_SALT) + ((index & _MASK) * _GOLDEN))


def _word(key: int, counter: int) -> int:
    return _mix64((key ^ _DRAW_SALT) + (((counter + 1) & _MASK) * _GOLDEN))


def _child_keys_np(keys: np.ndarray, indices) -> np.ndarray:
    """Vector form of :func:`_child_key`; broadcasts keys against indices."""
    idx = np.asarray(indices, dtype=np.int64).view(np.uint64)
    return _mix64_np(np.add(keys ^ _U64_SPAWN, idx * _U64_GOLDEN))


def _spawn_block(bundle: "StreamBundle", indices: np.ndarray) -> "StreamBundle":
    """The child bundle over a block of int64 ``indices``, keys shape
    ``(len(indices), *bundle.shape)``."""
    keys = bundle.keys
    return StreamBundle(_child_keys_np(keys, indices.reshape((-1,) + (1,) * keys.ndim)))


def _words_np(keys: np.ndarray, counter: int, count: int) -> np.ndarray:
    """The words at counters ``counter .. counter+count-1`` of every key,
    one ``_mix64_np`` call, shape ``(count, *keys.shape)``.  Checks the
    counters first (:func:`_check_draw`)."""
    _check_draw(counter, count)
    steps = np.arange(count, dtype=np.uint64) + np.uint64((counter + 1) & _MASK)
    steps *= _U64_GOLDEN
    return _mix64_np(np.add(keys ^ _U64_DRAW, steps.reshape((count,) + (1,) * keys.ndim)))


def _top53(words: np.ndarray) -> np.ndarray:
    """The top 53 bits of each word as a fresh float64 array, 0-d words
    too (hence ``out=``).  The shifted words are below 2^53, so converting
    their int64 view is exact (and faster than uint64)."""
    top = np.right_shift(words, _SH11, out=np.empty(words.shape, np.uint64))
    return top.view(np.int64).astype(np.float64)


def _uniform_from_words(words: np.ndarray) -> np.ndarray:
    u = _top53(words)
    u *= _INV_2_53
    return u


def _gaussian_from_words(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    # u1 in (0,1] keeps the log finite; u2 in [0,1).  Every step before log
    # and cos is exact: top53 + 1 <= 2^53 is representable, and scaling by
    # 2^-53 commutes with rounding, so 2*pi*2^-53 folds into one constant.
    # glibc's cos branches on the angle's range and quadrant, so each tile's
    # cosines are taken in the order of their angle word's top 7 bits (a
    # stable radix argsort) and put back in their lanes; np.cos is elementwise,
    # so no bit moves.  Cosines first: the sort's temporaries go before g.
    c = _top53(w2)
    c *= _ANGLE_2_53
    flat, buckets = c.reshape(-1), np.right_shift(w2, _SH57).astype(np.uint8).reshape(-1)
    for lo in range(0, flat.size, _COS_TILE):
        tile, order = flat[lo:lo + _COS_TILE], np.argsort(buckets[lo:lo + _COS_TILE], kind="stable")
        part = tile.take(order)
        tile[order] = np.cos(part, out=part)
    g = _top53(w1)
    g += 1.0
    g *= _INV_2_53
    np.log(g, out=g)
    g *= -2.0
    np.sqrt(g, out=g)
    g *= c
    return g


def _check_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as a Python int in ``[low, high)`` (``high=None``: no upper
    bound).  Bools and non-integers raise ``TypeError`` (numpy integers are
    accepted), an integer outside the range ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < low or (high is not None and value >= high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be an integer {bounds}, got {value}")
    return value


def _check_real(value, name: str, low: float, high: float = math.inf, *, open_low: bool = False) -> float:
    """``value`` as a finite float in ``[low, high]``, or ``(low, high]`` when
    ``open_low``.  Bools and non-reals raise ``TypeError`` (numpy floats and
    integers are accepted), a value outside the range or not finite
    ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not (math.isfinite(value) and (value > low if open_low else value >= low) and value <= high):
        bounds = f"{'(' if open_low else '['}{low}, {high}]"
        raise ValueError(f"{name} must be a finite real number in {bounds}, got {value}")
    return value


def _check_counter(counter: int) -> int:
    return _check_int(counter, "counter", 0, 1 << 64)


def _check_draw(counter: int, count: int) -> None:
    """Raise ``ValueError`` unless ``count`` draws from ``counter`` leave a
    valid counter (``counter + count <= 2**64 - 1``): past that, counters
    would wrap and repeat the words of counter 0 onwards."""
    if counter + count > _MASK:
        raise ValueError(f"{count} draws at counter {counter} would pass {_MASK - 1}, the last counter to draw")


def _check_seed(seed: int) -> int:
    return _check_int(seed, "seed", 0, 1 << 64)


def _check_index(index: int) -> int:
    return _check_int(index, "stream index", -(1 << 63), 1 << 63)


def _check_indices(indices) -> np.ndarray:
    """``indices`` as an int64 array, each checked as by :func:`_check_index`:
    an integer array dtype, or a sequence of integers (bools are neither)."""
    if not isinstance(indices, np.ndarray) or indices.dtype == object:
        flat = np.asarray(indices, dtype=object)
        return np.array([_check_index(i) for i in flat.ravel()], np.int64).reshape(flat.shape)
    if indices.dtype.kind not in "iu":
        raise TypeError(f"stream indices must be integers, got dtype {indices.dtype}")
    if indices.dtype.kind == "u" and indices.size:
        _check_index(indices.max())
    return indices.astype(np.int64, copy=False)


class SplittableStream:
    """One deterministic draw sequence, identified by (seed, path).  Streams
    compare equal when their keys and counters are: they draw alike.

    Single-owner while being advanced; spawned children are independent of
    the parent and of each other and may be advanced concurrently.
    """

    __slots__ = ("seed", "path", "counter", "_key")

    def __init__(self, seed: int, path: tuple[int, ...] = (), counter: int = 0):
        self.seed = _check_seed(seed)
        self.path = tuple(_check_index(i) for i in path)
        self.counter = _check_counter(counter)
        key = _root_key(self.seed)
        for element in self.path:
            key = _child_key(key, element)
        self._key = key

    @classmethod
    def root(cls, seed: int) -> "SplittableStream":
        """Stream with empty path and counter 0 for the given master seed."""
        return cls(seed)

    def spawn(self, index: int) -> "SplittableStream":
        """Child stream with path ``self.path + (index,)`` and counter 0.

        Depends only on (seed, path, index); the parent's counter and path
        are left untouched, and repeated calls return equal streams.  The
        child of a stream known only by its key has path ``None`` too.
        """
        index = _check_index(index)
        path = None if self.path is None else self.path + (index,)
        return _keyed_stream(_child_key(self._key, index), 0, self.seed, path)

    def next_uniform(self) -> float:
        """Next uniform draw in [0, 1); advances the counter by one."""
        _check_draw(self.counter, 1)
        w = _word(self._key, self.counter)
        self.counter += 1
        return (w >> 11) * _INV_2_53

    def next_gaussian(self) -> float:
        """Next standard normal draw; consumes two counters.

        Uses numpy's scalar log/cos so the value is bit-identical to the
        vectorised path in :class:`StreamBundle`.
        """
        _check_draw(self.counter, 2)
        w1 = _word(self._key, self.counter)
        w2 = _word(self._key, self.counter + 1)
        self.counter += 2
        u1 = ((w1 >> 11) + 1) * _INV_2_53
        u2 = (w2 >> 11) * _INV_2_53
        return float(np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2))

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms as a float64 array (counter advances)."""
        count = _check_int(count, "count", 0)
        words = _words_np(np.uint64(self._key), self.counter, count)
        self.counter += count
        return _uniform_from_words(words)

    def gaussians(self, count: int) -> np.ndarray:
        """The next ``count`` gaussians (2*count counters), matching
        repeated :meth:`next_gaussian` calls bit for bit."""
        count = _check_int(count, "count", 0)
        words = _words_np(np.uint64(self._key), self.counter, 2 * count)
        self.counter += 2 * count
        return _gaussian_from_words(words[0::2], words[1::2])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SplittableStream):
            return NotImplemented
        return (self._key, self.counter) == (other._key, other.counter)

    def __hash__(self):
        return hash((self._key, self.counter))

    def __repr__(self) -> str:
        return f"SplittableStream(seed={self.seed}, path={self.path}, counter={self.counter})"


root = SplittableStream.root


def _keyed_stream(key: int, counter: int, seed: int | None = None, path: tuple | None = None) -> SplittableStream:
    """The stream of ``key`` at ``counter``, labelled ``seed`` and ``path``
    unchecked; both are ``None`` for a stream known only by its key."""
    stream = object.__new__(SplittableStream)
    stream.seed, stream.path, stream.counter, stream._key = seed, path, counter, key
    return stream


def _lane_bundle(stream: SplittableStream) -> "StreamBundle":
    """``stream`` as a 1-lane bundle, with the same key and counter."""
    return StreamBundle(np.array([stream._key], dtype=np.uint64), stream.counter)


class StreamBundle:
    """Many streams advanced in lockstep (one shared counter).

    ``keys`` is an integer array of any shape, kept as uint64 (int64 keys
    by their two's-complement bits); element ``i`` of every draw is
    bit-identical to the corresponding :class:`SplittableStream` draw for
    that key's (seed, path).  Used by the vectorised estimators, where all
    lanes consume draws in the same pattern.
    """

    __slots__ = ("keys", "counter")

    def __init__(self, keys: np.ndarray, counter: int = 0):
        keys = np.asarray(keys)
        if keys.dtype.kind not in "iu":
            raise TypeError(f"stream keys must be integers, got dtype {keys.dtype}")
        self.keys = keys.astype(np.uint64, copy=False)
        self.counter = _check_counter(counter)

    @classmethod
    def root_children(cls, seed: int, indices) -> "StreamBundle":
        """Bundle of ``root(seed).spawn(i)`` for each i in ``indices``."""
        rk = np.uint64(_root_key(_check_seed(seed)))
        return cls(_child_keys_np(rk, _check_indices(indices)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.keys.shape

    def spawn(self, index: int) -> "StreamBundle":
        """Elementwise child bundle for one index; counter resets to 0."""
        return StreamBundle(_child_keys_np(self.keys, np.int64(_check_index(index))))

    def next_uniform(self) -> np.ndarray:
        u = _uniform_from_words(_words_np(self.keys, self.counter, 1)[0])
        self.counter += 1
        return u

    def next_gaussian(self) -> np.ndarray:
        words = _words_np(self.keys, self.counter, 2)
        self.counter += 2
        return _gaussian_from_words(words[0], words[1])

    def __repr__(self) -> str:
        return f"StreamBundle(shape={self.keys.shape}, counter={self.counter})"

"""Low-discrepancy sampling of product spaces.

Points are drawn in [0,1)^d from a scrambled Sobol stream (a Latin
supercube of Sobol blocks in very high dimension) and turned into standard
normals by the Box-Muller transform (two unit coordinates per pair of
normals).  The scrambles, the supercube's block seeds and run orders and
every Monte-Carlo draw of moluq come from :class:`PCG64Stream`, numpy's
default generator rebuilt here so that no stage loads numpy's random
package.  Also provides the B-factor -> sigma conversion and an
anchored-box star discrepancy estimator.
"""

from __future__ import annotations

import importlib.util
import math
import operator
import os
import zipfile

import numpy as np

# Largest dimension of the Joe-Kuo direction-number table; wider streams are
# Latin supercubes of Sobol blocks of at most this many coordinates.
SOBOL_MAX_DIM = 21201

# Bits per coordinate, as in scipy.stats.qmc.Sobol's default; a stream holds
# at most 2**_SOBOL_BITS points.
_SOBOL_BITS = 30
_MSB_FIRST = np.uint32(1) << np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
_LSB_FIRST = _MSB_FIRST[::-1]
_LOWER = np.tri(_SOBOL_BITS, dtype=np.uint32)  # np.tril as a product

# Dimensions whose LMS matrices are drawn and applied at once (450 KiB per
# temporary).  Chunks of 1024 (3.5 MiB each) set the peak memory of a
# 900-dimension draw, 6 MiB above this, and ran no faster.
_LMS_CHUNK = 128

# PCG64's 128-bit LCG multiplier, and how many consecutive states a stream
# advances at once: it holds seven uint64 arrays of this length.  Stepping
# and output took about 14, 11.5 and 10 ns a word at 2**12, 2**13 and 2**14
# lanes (2 cores, numpy 2.4), but 2**14 lifted the traced peak of a
# 3000-dimension scramble above 2 MiB.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_LANES = 2**13
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """PCG64's first 128-bit (state, increment) for ``seed``, as
    numpy's ``PCG64(seed)`` sets them from ``SeedSequence(seed)``: the
    seed's 32-bit words hashed into a pool of four, the pool hashed into
    four 64-bit words (state high, state low, sequence high, sequence low),
    then PCG's ``srandom``."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, not {seed}")
    entropy = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    const, words = 0x8B51F9DD, []
    for i in range(8):  # generate_state(4, np.uint64): 32-bit words paired low first
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        words.append(value ^ value >> 16)
    state, sequence = (words[0] << 64 | words[1] << 96 | words[2] | words[3] << 32,
                       words[4] << 64 | words[5] << 96 | words[6] | words[7] << 32)
    inc = (sequence << 1 | 1) & _M128
    return ((inc + state) * _PCG_MULT + inc) & _M128, inc


class PCG64Stream:
    """The stream of numpy's ``default_rng(seed)`` for the four draws
    moluq makes, bit for bit: :meth:`bits`, :meth:`seeds`,
    :meth:`permutation` and :meth:`random` give what the ``Generator``
    methods named in their docstrings give, in any interleaving.

    PCG64 (O'Neill, HMC-CS-2014-0905) steps a 128-bit LCG and outputs the
    XOR of the state's halves rotated right by its top 6 bits (XSL-RR).  The
    state is held as (high, low) uint64 lanes of ``_PCG_LANES`` consecutive
    states, all advanced at once by the multiplier and increment of that
    many steps.  As in numpy, a 32-bit draw takes the low half of a fresh
    word and keeps the high half for the next 32-bit draw; 64-bit draws
    leave that half waiting.  Owning the stream keeps moluq's draws fixed
    where numpy does not promise to (NEP 19 lets ``Generator`` methods
    change their algorithms) and spares each stage the 6 MiB that importing
    numpy's random package costs.  A stream has one owner: two threads must
    not draw from it.
    """

    def __init__(self, seed: int):
        state, self._inc = _pcg64_seed(seed)
        first = (state * _PCG_MULT + self._inc) & _M128
        # the lanes hold the next states, from which no word was made yet
        self._hi = np.array([first >> 64], dtype=np.uint64)
        self._lo = np.array([first & _M64], dtype=np.uint64)
        self._scratch = np.empty((5, 1), dtype=np.uint64)  # the last row takes words
        self._spare = self._lo[:0]  # words made and not drawn yet
        self._half = None  # the high half of the last word a 32-bit draw split
        self._jumps: dict[int, tuple] = {}

    def _jump(self, steps: int) -> tuple:
        """uint64 parts of the (multiplier, increment) of ``steps`` LCG steps:
        multiplier high and low word, the low word's 32-bit halves, increment
        high and low word, the low word's 32-bit halves."""
        if steps not in self._jumps:
            # square-and-multiply over s -> m s + c, starting from one step
            mult, add, m, c, k = 1, 0, _PCG_MULT, self._inc, steps
            while k:
                if k & 1:
                    mult, add = mult * m & _M128, (add * m + c) & _M128
                m, c, k = m * m & _M128, (c * m + c) & _M128, k >> 1
            lo, add_lo = mult & _M64, add & _M64
            self._jumps[steps] = tuple(map(np.uint64, (
                mult >> 64, lo, lo & _M32, lo >> 32, add >> 64, add_lo, add_lo & _M32,
                add_lo >> 32)))
        return self._jumps[steps]

    def _advance(self, hi: np.ndarray, lo: np.ndarray, steps: int) -> None:
        """Step each 128-bit state (hi, lo) ``steps`` times, in place:
        s <- (multiplier s + increment) mod 2**128."""
        mult_hi, mult_lo, m0, m1, add_hi, add_lo, c0, c1 = self._jump(steps)
        a, b, c, d = self._scratch[:4, :lo.size]
        # the high word of the 128-bit lo * mult_lo + add_lo, from the 32-bit
        # halves lo0, lo1 of lo, m0, m1 of mult_lo and c0, c1 of add_lo; no
        # partial sum overflows
        np.bitwise_and(lo, _M32, out=a)
        np.right_shift(lo, 32, out=b)
        np.multiply(a, m0, out=c)
        c += c0
        c >>= 32
        a *= m1
        a += c
        a += c1  # lo0 m1 + ((lo0 m0 + c0) >> 32) + c1
        np.multiply(b, m0, out=c)
        np.bitwise_and(a, _M32, out=d)
        c += d  # lo1 m0 + low half of the above
        b *= m1
        a >>= 32
        b += a
        c >>= 32
        b += c
        hi *= mult_lo
        hi += b
        np.multiply(lo, mult_hi, out=b)
        hi += b
        hi += add_hi
        lo *= mult_lo
        lo += add_lo

    def _output(self, out: np.ndarray) -> np.ndarray:
        """The XSL-RR words of the lanes' states, written to ``out``."""
        rot, shifted = self._scratch[:2, :out.size]
        np.bitwise_xor(self._hi, self._lo, out=out)
        np.right_shift(self._hi, 58, out=rot)
        np.right_shift(out, rot, out=shifted)
        np.subtract(64, rot, out=rot)
        np.left_shift(out, rot, out=out)  # a shift by 64 gives 0 in numpy
        out |= shifted
        return out

    def _blocks(self, count: int):
        """The next ``count`` 64-bit words, as ``bit_generator.random_raw``
        gives them, in consecutive uint64 blocks: the spare words, then a
        round of the lanes at a time.  A block is overwritten by the next
        round, so it is used up before the next one is asked for."""
        if self._spare.size:
            block, self._spare = self._spare[:count], self._spare[count:]
            count -= block.size
            yield block
        while count > 0:
            while self._lo.size < min(count, _PCG_LANES):  # double the lanes
                hi, lo = self._hi.copy(), self._lo.copy()
                self._advance(hi, lo, lo.size)
                self._hi, self._lo = np.concatenate([self._hi, hi]), np.concatenate([self._lo, lo])
                self._scratch = np.empty((5, lo.size * 2), dtype=np.uint64)
            words = self._output(self._scratch[4])
            self._advance(self._hi, self._lo, words.size)
            if count < words.size:
                self._spare = words[count:].copy()
            yield words[:count]
            count -= words.size

    def _words(self, count: int) -> np.ndarray:
        """The next ``count`` 64-bit words in one array."""
        out = np.empty(count, dtype=np.uint64)
        done = 0
        for block in self._blocks(count):
            out[done:done + block.size] = block
            done += block.size
        return out

    def _halves(self, count: int) -> np.ndarray:
        """The next ``count`` 32-bit draws: a waiting high half first, then
        each word's low half and high half."""
        out = np.empty(count, dtype=np.uint32)
        done = int(count > 0 and self._half is not None)
        if done:
            out[0], self._half = self._half, None
        for block in self._blocks((count - done + 1) // 2):
            halves = block.astype("<u8", copy=False).view("<u4")
            take = min(halves.size, count - done)
            out[done:done + take] = halves[:take]
            done += take
            if take < halves.size:
                self._half = halves[take]
        return out

    def bits(self, shape) -> np.ndarray:
        """uint32 0/1 array: ``integers(2, size=shape, dtype=np.uint32)``.
        Lemire's bounded draw (ACM TOMACS 29(1), 2019) of range 2 never
        rejects and returns the top bit of each 32-bit draw."""
        halves = self._halves(math.prod(shape))
        halves >>= 31
        return halves.reshape(shape)

    def seeds(self, count: int) -> np.ndarray:
        """int64 array: ``integers(2**63, size=count)``, each word shifted
        right once (Lemire's draw of range 2**63 never rejects)."""
        words = self._words(count)
        words >>= 1
        return words.view(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """int64 array: ``permutation(n)``, Fisher-Yates from the top down,
        each index drawn as a 32-bit draw masked to the bits of the bound
        and redrawn while above it."""
        order = list(range(n))
        i = n - 1
        while i > 0:
            # every index takes at least one draw, so these are all used
            for half in self._halves(i).tolist():
                j = half & ((1 << i.bit_length()) - 1)
                if j <= i:
                    order[i], order[j] = order[j], order[i]
                    i -= 1
        return np.array(order, dtype=np.int64)

    def random(self, shape) -> np.ndarray:
        """float64 array: ``random(shape)``, (word >> 11) 2**-53 per value."""
        out = np.empty(shape)
        done = 0
        for block in self._blocks(out.size):
            block >>= 11
            np.multiply(block, 2.0**-53, out=out.reshape(-1)[done:done + block.size])
            done += block.size
        return out


def _direction_table(dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Primitive polynomials and initial direction numbers of Joe & Kuo
    (SIAM J. Sci. Comput. 30:2635, 2008) for the first ``dimension``
    coordinates, read from the table file scipy installs, without importing
    scipy."""
    spec = importlib.util.find_spec("scipy")
    roots = (spec.submodule_search_locations or []) if spec is not None else []
    for root in roots:
        path = os.path.join(root, "stats", "_sobol_direction_numbers.npz")
        if os.path.isfile(path):
            with zipfile.ZipFile(path) as table:
                return (_npy_rows(table, "poly.npy", dimension),
                        _npy_rows(table, "vinit.npy", dimension))
    raise FileNotFoundError(
        "Sobol direction numbers not found: moluq reads "
        "scipy/stats/_sobol_direction_numbers.npz from the installed scipy")


def _npy_rows(archive: zipfile.ZipFile, name: str, rows: int) -> np.ndarray:
    """The first ``rows`` rows of the 1-D or 2-D ``.npy`` array ``name`` in an
    ``.npz`` archive, as ``np.load(...)[name][:rows]`` gives them.

    The member is inflated as a stream and only what the rows need is kept:
    a prefix of a C-order array, the head of each column of a Fortran-order
    one (``vinit`` is stored so), read one column at a time.
    """
    with archive.open(name) as stream:
        version = np.lib.format.read_magic(stream)
        shape, fortran, dtype = {(1, 0): np.lib.format.read_array_header_1_0,
                                 (2, 0): np.lib.format.read_array_header_2_0}[version](stream)
        rows = min(rows, shape[0])
        if not fortran:
            count = rows * math.prod(shape[1:])
            return np.frombuffer(stream.read(count * dtype.itemsize), dtype,
                                 count).reshape(rows, *shape[1:])
        out = np.empty((rows, shape[1]), dtype)
        for column in out.T:
            column[:] = np.frombuffer(stream.read(shape[0] * dtype.itemsize), dtype, rows)
        return out


def _direction_numbers(dimension: int) -> np.ndarray:
    """Unscrambled (dimension, 30) uint32 direction numbers, column b holding
    v_b scaled to the top bits, as scipy's ``_initialize_v`` builds them.

    The Bratley-Fox recurrence v_j = v_{j-m} ^ (v_{j-m} << m) ^ ... runs on
    every coordinate at once; coordinate 0 is the van der Corput sequence.
    """
    poly, vinit = _direction_table(dimension)
    deg = np.frexp(poly.astype(float))[1] - 1
    # coef[k]: coefficient of x^(m-1-k) in each coordinate's polynomial (0 for k >= m)
    coef = [np.where(deg > k, (poly >> np.maximum(deg - 1 - k, 0)) & 1, 0).astype(np.uint32)
            for k in range(int(deg.max(initial=0)))]
    # every number stays below 2**30, so uint32 holds the recurrence exactly
    v = np.zeros((dimension, _SOBOL_BITS), dtype=np.uint32)
    v[:, :vinit.shape[1]] = vinit
    rows = np.arange(dimension)
    # column j of a coordinate of degree m is vinit for j < m, the recurrence
    # over columns j - m .. j - 1 (already final) for j >= m
    for j in range(_SOBOL_BITS):
        recur = deg <= j
        newv = v[rows, j - deg]
        for k in range(min(j, len(coef))):
            newv ^= coef[k] * (v[:, j - k - 1] << (k + 1))
        v[recur, j] = newv[recur]
    v[0] = 1
    v <<= np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    return v


def _parity(words: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each 32-bit word, computed in place."""
    half = np.empty_like(words)
    for shift in (16, 8, 4, 2, 1):
        np.right_shift(words, shift, out=half)
        words ^= half
    words &= 1
    return words


def _scrambled_net(dimension: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Digital shift and LMS-scrambled direction numbers of the net that
    ``scipy.stats.qmc.Sobol(dimension, scramble=True, seed=seed)`` draws.

    The bits are scipy's draws from numpy's ``default_rng(seed)``, taken
    from :class:`PCG64Stream` in scipy's order: the (d, 30) shift bits
    first, then the (d, 30, 30) lower-triangular matrices, drawn here in
    chunks of dimensions (the stream does not depend on how a draw is split).
    """
    stream = PCG64Stream(seed)
    shift = stream.bits((dimension, _SOBOL_BITS)) @ _LSB_FIRST
    sv = _direction_numbers(dimension)
    diag = np.arange(_SOBOL_BITS)
    for lo in range(0, dimension, _LMS_CHUNK):
        hi = min(lo + _LMS_CHUNK, dimension)
        ltm = stream.bits((hi - lo, _SOBOL_BITS, _SOBOL_BITS))
        ltm *= _LOWER
        ltm[:, diag, diag] = 1
        # row p of each matrix as one word, its column 0 the top bit; bit
        # 29 - p of a scrambled number is the parity of row p AND the number
        ltm *= _MSB_FIRST
        words = ltm.sum(axis=2, dtype=np.uint32)
        bits = np.bitwise_and(words[:, None, :], sv[lo:hi, :, None], out=ltm)
        _parity(bits)
        bits *= _MSB_FIRST
        bits.sum(axis=2, dtype=np.uint32, out=sv[lo:hi])
    return shift, sv


def _net_points(shift: np.ndarray, sv: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Points number ``indices`` of a scrambled net, as floats in [0, 1).

    Point k is the shift XOR the direction numbers of the bits of k's Gray
    code, which is where k Gray-code steps from the shift land: point 0 is
    the shift itself, as in scipy's first draw.
    """
    gray = indices ^ (indices >> 1)
    words = np.repeat(shift[None, :], len(indices), axis=0)
    for b in range(int(gray.max(initial=0)).bit_length()):
        np.bitwise_xor(words, sv[:, b], out=words, where=((gray >> b) & 1 == 1)[:, None])
    return np.multiply(words, 1.0 / 2**_SOBOL_BITS)


class LowDiscrepancySequence:
    """Deterministic scrambled Sobol point stream in [0,1)^d.

    Up to ``SOBOL_MAX_DIM`` coordinates it is the stream of
    ``scipy.stats.qmc.Sobol(d, scramble=True, seed=scramble_seed)``, bit for
    bit (``kind`` "sobol-scrambled").  Wider streams are Latin supercubes
    (Owen, ACM TOMACS 8:71, 1998; ``kind`` "sobol-supercube"): the
    coordinates split into near-equal blocks of at most ``SOBOL_MAX_DIM``,
    each block is its own scrambled Sobol stream with a seed drawn from
    ``scramble_seed``, and each block's run order is a seeded permutation of
    the ``n_samples`` draws, so a supercube needs ``n_samples`` up front.
    ``blocks`` lists each block's (start, stop, seed).  ``n_samples``, when
    given, also caps how many points the stream may draw.

    The same (dimension, scramble_seed, n_samples) always reproduces the same
    stream.  Instances are single-owner iterators: advancing one from two
    threads is not safe, but independent instances may run concurrently.
    """

    def __init__(self, dimension: int, scramble_seed: int = 0, n_samples: int | None = None):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if n_samples is not None and n_samples < 0:
            raise ValueError("n_samples must be >= 0")
        self.dimension = dimension
        self.scramble_seed = scramble_seed
        self.index = 0
        self._limit = 2**_SOBOL_BITS if n_samples is None else min(n_samples, 2**_SOBOL_BITS)
        if dimension <= SOBOL_MAX_DIM:
            self.kind = "sobol-scrambled"
            self.blocks = ((0, dimension, scramble_seed),)
            self._nets = [(*_scrambled_net(dimension, scramble_seed), None)]
            return
        if n_samples is None:
            raise ValueError(f"a stream of more than {SOBOL_MAX_DIM} dimensions is a "
                             "Latin supercube and needs n_samples")
        self.kind = "sobol-supercube"
        stream = PCG64Stream(scramble_seed)
        n_blocks = -(-dimension // SOBOL_MAX_DIM)
        edges = [dimension * b // n_blocks for b in range(n_blocks + 1)]
        self.blocks = tuple(zip(edges[:-1], edges[1:], stream.seeds(n_blocks).tolist()))
        self._nets = [(*_scrambled_net(hi - lo, seed), stream.permutation(n_samples))
                      for lo, hi, seed in self.blocks]

    def next_points(self, count: int) -> np.ndarray:
        """The next ``count`` points as a (count, d) array."""
        if count < 0:
            raise ValueError("count must be >= 0")
        end = self.index + count
        if end > self._limit:
            raise ValueError(f"at most {self._limit} points can be drawn from this stream; "
                             f"{self.index} were drawn, then {count} more were asked for")
        runs = np.arange(self.index, end)
        blocks = [_net_points(shift, sv, runs if order is None else order[runs])
                  for shift, sv, order in self._nets]
        self.index = end
        return blocks[0] if len(blocks) == 1 else np.hstack(blocks)


def normals_from_unit(points: np.ndarray, count: int) -> np.ndarray:
    """First ``count`` standard normals from a unit-cube point, or from each
    point of a stack along its last axis.

    Consecutive coordinate pairs (u[2t], u[2t+1]) feed Box-Muller, so a
    point must have at least 2*ceil(count/2) coordinates.  Coordinates equal
    to 0 are nudged to the smallest positive double to dodge the log
    singularity (measure-zero for scrambled streams).
    """
    need = 2 * ((count + 1) // 2)
    if points.shape[-1] < need:
        raise ValueError(f"need {need} unit coordinates for {count} normals")
    u = np.asarray(points[..., :need], dtype=float).reshape(*points.shape[:-1], -1, 2)
    z = np.empty(points.shape[:-1] + (need,))
    # theta into the even slots and r into the odd ones, then r*cos and r*sin
    # over them, so that the only temporary is sin(theta)
    theta, r = z[..., 0::2], z[..., 1::2]
    np.multiply(u[..., 1], 2.0 * np.pi, out=theta)
    np.maximum(u[..., 0], np.finfo(float).tiny, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    sin = np.sin(theta)
    np.cos(theta, out=theta)
    theta *= r
    r *= sin
    return z[..., :count]


def gaussian_dimension(n_normals: int) -> int:
    """Unit-cube dimension needed to produce ``n_normals`` Box-Muller normals."""
    return 2 * ((n_normals + 1) // 2)


def sigma_from_b(b):
    """Positional standard deviation (Angstrom) from a B-value (Angstrom^2),
    elementwise for an array.

    Uses B = 8 pi^2 sigma^2, so B of 20/80/180 maps to roughly 0.5/1.0/1.5 A.
    """
    from moluq.molio import EIGHT_PI_SQ

    if np.any(np.less(b, 0)):
        raise ValueError("B-value must be >= 0")
    return np.sqrt(b / EIGHT_PI_SQ)


def star_discrepancy_estimate(points, resolution: int | None = None) -> float:
    """Estimate the star discrepancy on an anchored-box grid.

    Scans every box [0, g) with g on a ``resolution``-per-axis lattice
    (64 for d <= 3 and 16 beyond when not given) and
    returns the largest |empirical fraction - box volume|.  This lower-bounds
    the true star discrepancy and converges to it as the resolution grows
    (the exact quantity is NP-hard in the dimension).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.size == 0:
        raise ValueError("point set must be non-empty")
    n, d = pts.shape
    if np.any(pts < 0.0) or np.any(pts >= 1.0):
        raise ValueError("points must lie in [0, 1)^d")
    if resolution is None:
        resolution = 64 if d <= 3 else 16
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    res = resolution
    # histogram on the res^d lattice, then prefix sums along every axis give
    # the count inside [0, (i+1)/res) for every lattice cell at once
    idx = np.minimum((pts * res).astype(int), res - 1)
    flat = np.ravel_multi_index(idx.T, (res,) * d)
    counts = np.bincount(flat, minlength=res**d).reshape((res,) * d).astype(float)
    for axis in range(d):
        counts = np.cumsum(counts, axis=axis)
    edges = (np.arange(res) + 1) / res
    volume = edges.copy()
    for _ in range(d - 1):
        volume = np.multiply.outer(volume, edges)
    return float(np.max(np.abs(counts / n - volume)))

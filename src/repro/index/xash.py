"""XASH: the super-key hash of MATE (Esmailoghli et al., VLDB 2022).

XASH maps each cell token to a sparse bitmask built from the token's
*least frequent* characters (rare characters discriminate better), with
the character's position quantised into location buckets and the whole
mask rotated by the token length. A row's **super key** is the bitwise OR
of its cells' hashes.

The super key acts as a bloom filter for multi-column joins: a candidate
row can only contain all values of a query tuple if every query value's
hash is bit-contained in the row's super key. False positives are
possible (bits contributed by other cells may cover a missed value); false
negatives are not -- recall stays 100 % (paper Table V).

The default hash width is 63 bits so super keys fit a signed int64 column
in the column store; MATE's 128-bit variant is available via ``hash_size``.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from ..lake.table import Cell, normalize_cell

# English-corpus character frequencies (rare -> strong discriminators).
# Characters outside this table are treated as maximally rare.
_CHAR_FREQUENCY = {
    "e": 12.70, "t": 9.06, "a": 8.17, "o": 7.51, "i": 6.97, "n": 6.75,
    "s": 6.33, "h": 6.09, "r": 5.99, "d": 4.25, "l": 4.03, "c": 2.78,
    "u": 2.76, "m": 2.41, "w": 2.36, "f": 2.23, "g": 2.02, "y": 1.97,
    "p": 1.93, "b": 1.29, "v": 0.98, "k": 0.77, "j": 0.15, "x": 0.15,
    "q": 0.10, "z": 0.07, "0": 3.0, "1": 3.0, "2": 2.0, "3": 2.0,
    "4": 2.0, "5": 2.0, "6": 2.0, "7": 2.0, "8": 2.0, "9": 2.0,
    " ": 10.0, "-": 1.5, ".": 1.5, "_": 1.0, "/": 1.0,
}

DEFAULT_HASH_SIZE = 63
DEFAULT_NUM_CHARS = 2
_LOCATION_BUCKETS = 4
_SPREAD_PRIME = 0x9E3779B1  # golden-ratio prime: spreads character codes


def _rotate_left(value: int, shift: int, width: int) -> int:
    """Rotate a *width*-bit integer left by *shift* bits."""
    shift %= width
    mask = (1 << width) - 1
    return ((value << shift) | (value >> (width - shift))) & mask


@lru_cache(maxsize=200_000)
def xash(
    token: str,
    hash_size: int = DEFAULT_HASH_SIZE,
    num_chars: int = DEFAULT_NUM_CHARS,
) -> int:
    """The XASH bitmask of a normalised token.

    Deterministic; the cache makes repeated indexing of skewed value
    distributions cheap.
    """
    if not token:
        return 0
    # Select the `num_chars` least frequent characters, most discriminating
    # first; stable by first occurrence for determinism.
    seen: dict[str, int] = {}
    for position, char in enumerate(token):
        if char not in seen:
            seen[char] = position
    ranked = sorted(
        seen.items(), key=lambda item: (_CHAR_FREQUENCY.get(item[0], 0.0), item[1])
    )
    mask = 0
    length = len(token)
    char_space = max(1, hash_size // _LOCATION_BUCKETS)
    for char, position in ranked[:num_chars]:
        char_slot = (ord(char) * _SPREAD_PRIME) % char_space
        location = min(_LOCATION_BUCKETS - 1, (position * _LOCATION_BUCKETS) // length)
        bit = (char_slot * _LOCATION_BUCKETS + location) % hash_size
        mask |= 1 << bit
    return _rotate_left(mask, length, hash_size)



# ASCII-indexed view of _CHAR_FREQUENCY for the vectorised path. Index 128
# is a shared "unknown" slot (frequency 0.0); every key in the table is
# ASCII, so clipping codes to 128 preserves the scalar lookup semantics.
_FREQ_TABLE = np.zeros(129, dtype=np.float64)
for _char, _freq in _CHAR_FREQUENCY.items():
    _FREQ_TABLE[ord(_char)] = _freq
del _char, _freq

# Rank key = frequency * _POSITION_SCALE + position. Frequencies differ by
# >= 0.01, so any two distinct frequencies are separated by >= 1e7 key
# units -- far above any realistic token length -- while the sum stays well
# inside float64's 2^53 exact-integer range.
_POSITION_SCALE = 1e9

# Tokens longer than this fall back to the scalar path inside xash_batch
# (the batch matrix pads every token to the longest, so outliers would
# blow up memory quadratically with the per-row sorts).
_MAX_VECTOR_TOKEN_LEN = 64


def hash_dtype(hash_size: int):
    """Array dtype for *hash_size*-bit hashes: ``int64`` up to 63 bits
    (the column store's ``SuperKey`` width), object arrays of Python ints
    beyond (MATE's 128-bit variant). One definition shared by every
    batch producer."""
    return object if hash_size > 63 else np.int64


def xash_batch(
    tokens: Sequence[str],
    hash_size: int = DEFAULT_HASH_SIZE,
    num_chars: int = DEFAULT_NUM_CHARS,
) -> np.ndarray:
    """Vectorised :func:`xash` over a batch of normalised tokens.

    Bit-identical to calling ``xash`` per token; the offline indexer calls
    this over each table's *unique* tokens and broadcasts the result back
    with an inverse index, replacing the per-call cached loop.

    The final left-rotation by token length distributes over the OR of
    single-bit masks, so it is folded into the per-bit position arithmetic
    (``(bit + len) % hash_size``) and no wide-integer rotate is needed.

    Returns an ``int64`` array when ``hash_size <= 63`` (the column-store
    ``SuperKey`` width) and an object array of Python ints otherwise
    (MATE's 128-bit variant).
    """
    n = len(tokens)
    wide = hash_size > 63
    out_dtype = hash_dtype(hash_size)
    if n == 0:
        return np.empty(0, dtype=out_dtype)
    lengths = np.fromiter((len(t) for t in tokens), dtype=np.int64, count=n)
    if int(lengths.max()) > _MAX_VECTOR_TOKEN_LEN:
        # The vector path pads every token to the batch maximum, so one
        # huge cell (embedded JSON, long description) would inflate the
        # UCS4 matrix to n x max_len. Outlier-long tokens take the scalar
        # path instead; the rest stay vectorised at bounded width.
        out = np.empty(n, dtype=out_dtype)
        long_mask = lengths > _MAX_VECTOR_TOKEN_LEN
        short_positions = np.nonzero(~long_mask)[0]
        out[short_positions] = xash_batch(
            [tokens[i] for i in short_positions], hash_size, num_chars
        )
        for i in np.nonzero(long_mask)[0]:
            out[i] = xash(tokens[i], hash_size, num_chars)
        return out
    arr = np.asarray(tokens, dtype=np.str_)
    width = arr.dtype.itemsize // 4
    if width == 0:
        return np.zeros(n, dtype=out_dtype)
    codes = np.ascontiguousarray(arr).view(np.uint32).reshape(n, width)
    positions = np.arange(width, dtype=np.int64)
    pad = positions[None, :] >= lengths[:, None]

    # Duplicate characters: keep only each character's first occurrence
    # (the scalar path dedups before ranking). A stable per-row sort by
    # character code puts the earliest occurrence of each code first; any
    # later equal neighbour is a duplicate, scattered back to token order.
    order = np.argsort(codes, axis=1, kind="stable")
    sorted_codes = np.take_along_axis(codes, order, axis=1)
    dup_sorted = np.zeros((n, width), dtype=bool)
    dup_sorted[:, 1:] = sorted_codes[:, 1:] == sorted_codes[:, :-1]
    dup = np.zeros((n, width), dtype=bool)
    np.put_along_axis(dup, order, dup_sorted, axis=1)

    key = _FREQ_TABLE[np.minimum(codes, 128)] * _POSITION_SCALE
    key = key + positions[None, :]
    key[pad | dup] = np.inf

    select = np.argsort(key, axis=1, kind="stable")[:, :num_chars]
    valid = np.isfinite(np.take_along_axis(key, select, axis=1))
    chosen_codes = np.take_along_axis(codes, select, axis=1)

    char_space = max(1, hash_size // _LOCATION_BUCKETS)
    char_slot = (chosen_codes.astype(np.uint64) * np.uint64(_SPREAD_PRIME)) % np.uint64(char_space)
    safe_len = np.maximum(lengths, 1)[:, None]
    location = np.minimum(_LOCATION_BUCKETS - 1, (select * _LOCATION_BUCKETS) // safe_len)
    bit = (char_slot * np.uint64(_LOCATION_BUCKETS) + location.astype(np.uint64)) % np.uint64(hash_size)
    # Fold the length rotation into the bit position (see docstring).
    final_bit = (bit + lengths[:, None].astype(np.uint64)) % np.uint64(hash_size)

    if not wide:
        bits = np.where(valid, np.uint64(1) << final_bit, np.uint64(0))
        return np.bitwise_or.reduce(bits, axis=1).astype(np.int64)
    ones = np.ones(final_bit.shape, dtype=object)
    bits = np.left_shift(ones, final_bit.astype(object))
    bits[~valid] = 0
    return np.bitwise_or.reduce(bits, axis=1)


# Query-side token -> XASH memo, one dict per (hash_size, num_chars),
# shared by every thread of the process. Reads take no lock; a write that
# would push a config past the bound clears it wholesale first.
_MEMO_SIZE = 200_000
_memo: dict[tuple[int, int], dict[str, int]] = {}
_memo_lock = threading.Lock()


def xash_memoized(
    tokens: Sequence[str],
    hash_size: int = DEFAULT_HASH_SIZE,
    num_chars: int = DEFAULT_NUM_CHARS,
) -> np.ndarray:
    """:func:`xash_batch` through the token memo: only unseen tokens are
    hashed, in one ``xash_batch`` call (the scalar :func:`xash` cache
    would hash them one by one). It pays off when query tokens repeat
    across requests. The result is assembled from this call's own
    lookups and fresh hashes, never re-read from the memo, so a
    concurrent clear cannot lose an entry mid-call."""
    memo = _memo.setdefault((hash_size, num_chars), {})  # atomic: one C call
    hashes = [memo.get(token) for token in tokens]
    missing = [token for token, cached in zip(tokens, hashes) if cached is None]
    if missing:
        fresh = dict(zip(missing, xash_batch(missing, hash_size, num_chars).tolist()))
        hashes = [fresh[t] if h is None else h for t, h in zip(tokens, hashes)]
        with _memo_lock:
            if len(memo) + len(fresh) > _MEMO_SIZE:
                memo.clear()
            if len(fresh) <= _MEMO_SIZE:
                memo.update(fresh)
    return np.array(hashes, dtype=hash_dtype(hash_size))


def segmented_or(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """OR-reduce contiguous segments of *values* (``int64`` or object
    Python ints) starting at *starts* -- the offline ingest's super-key
    fold over each row's cell hashes."""
    if len(values) == 0:
        return np.empty(0, dtype=values.dtype)
    return np.bitwise_or.reduceat(values, starts)


# Bound on the (candidates x hashes) bitwise matrix: ~32 MB of int64.
_CONTAIN_BLOCK_CELLS = 1 << 22


def may_contain_batch(super_keys: np.ndarray, query_hashes: np.ndarray) -> np.ndarray:
    """Vectorised :func:`may_contain`: for each row super key, can it
    bit-contain *any* of the query hashes?

    The int64 fast path runs one broadcast bitwise-AND over the full
    (candidates x hashes) matrix, blocked over hash columns to bound peak
    memory; the 128-bit variant (object arrays of Python ints) falls back
    to one pass per distinct hash.
    """
    mask = np.zeros(len(super_keys), dtype=bool)
    if len(super_keys) == 0 or len(query_hashes) == 0:
        return mask
    if super_keys.dtype == object or query_hashes.dtype == object:
        # Mixed widths happen: 128-bit query hashes are always object,
        # but a candidate batch whose super keys all fit 63 bits arrives
        # as int64 -- AND-ing a >2^63 Python int into an int64 array
        # would raise OverflowError, so promote the keys first.
        keys = super_keys if super_keys.dtype == object else super_keys.astype(object)
        for query_hash in query_hashes:
            mask |= (keys & query_hash) == query_hash
        return mask
    block = max(1, _CONTAIN_BLOCK_CELLS // max(len(super_keys), 1))
    keys = super_keys[:, None]
    for start in range(0, len(query_hashes), block):
        hashes = query_hashes[None, start : start + block]
        mask |= ((keys & hashes) == hashes).any(axis=1)
    return mask


def super_key(
    row: Iterable[Cell],
    hash_size: int = DEFAULT_HASH_SIZE,
    num_chars: int = DEFAULT_NUM_CHARS,
) -> int:
    """OR-aggregate XASH of all non-null cells in a row."""
    key = 0
    for value in row:
        token = normalize_cell(value)
        if token is not None:
            key |= xash(token, hash_size, num_chars)
    return key


def tuple_hash(
    values: Iterable[Cell],
    hash_size: int = DEFAULT_HASH_SIZE,
    num_chars: int = DEFAULT_NUM_CHARS,
) -> int:
    """OR-aggregate XASH of a query tuple (same as :func:`super_key`; kept
    as a named operation because callers hash *query* tuples with it)."""
    return super_key(values, hash_size, num_chars)


def may_contain(row_super_key: int, query_hash: int) -> bool:
    """Bloom-filter containment: can a row with *row_super_key* contain
    every value behind *query_hash*? No false negatives."""
    return (row_super_key & query_hash) == query_hash

"""Parity suite for the batched tokenisation kernel (PR 7).

``normalize_cell`` is the per-cell oracle; ``normalize_tokens`` (its
memoised C-map lane, and the scalar loop it runs for any other batch)
must be byte-identical to it cell-for-cell -- called on the whole batch
and called once per flush-sized buffer, as the ``AllTables`` build does --
on adversarial inputs chosen to break exactly the shortcuts a batch
kernel is tempted to take: unicode whitespace and casing traps, NULs
(where NumPy's fixed-width U dtype silently diverges from ``str``),
bool/int duality collisions, numeric strings vs numbers, and
integer-valued floats beyond 2**53 and 2**63.
"""

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from repro.lake.generators import CorpusConfig, generate_corpus
from repro.lake.table import (
    normalize_cell,
    normalize_tokens,
)


def normalize_tokens_per_flush(cells):
    """``normalize_tokens`` as the ``AllTables`` build calls it: once per
    buffer, each call with a fresh memo. The buffer sizes straddle the
    32-cell small-batch shortcut, so the scalar loop and the memo lane
    each tokenise part of every batch."""
    sizes = itertools.cycle((1, 31, 32, 33, 97))
    tokens = []
    start = 0
    while start < len(cells):
        stop = start + next(sizes)
        tokens.extend(normalize_tokens(cells[start:stop]))
        start = stop
    return tokens


KERNELS = [normalize_tokens, normalize_tokens_per_flush]


def _assert_matches_oracle(kernel, cells):
    got = kernel(cells)
    want = [normalize_cell(v) for v in cells]
    diverging = [
        (i, repr(cells[i]), got[i], want[i])
        for i in range(len(cells))
        if got[i] != want[i]
    ]
    assert not diverging, f"{kernel.__name__} diverged: {diverging[:5]}"


# Padded out beyond the kernel's small-batch scalar shortcut (n < 32) so
# the batch lanes really run.
_PAD = [f"pad{i}" for i in range(40)]


class TestAdversarialTokens:
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    def test_unicode_whitespace_and_casing(self, kernel):
        """str.strip() strips more than ASCII space (\\x1c-\\x1f, \\x85,
        NBSP, ideographic space); str.lower() expands U+0130 'İ' to two
        codepoints and leaves ß alone. The kernel must agree exactly."""
        cells = _PAD + [
            "  Mixed Case  ",
            "\x1c\x1d\x1e\x1ftok\x1c",
            "\x85leading-next-line",
            "\xa0nbsp\xa0",
            "　ideographic　",
            "İstanbul",
            "İ",
            "ı",  # dotless i lowers to itself
            "STRASSE",
            "straße",
            "ß",  # lower() keeps ß (casefold would expand -- not used)
            "ǅungla",  # titlecase digraph
            "ȺȾ",  # lowering grows UTF-8 byte length
            "　ＦＵＬＬ　Ｗｉｄｔｈ　",  # full-width forms stay full-width
            "",
            " ",
            "\t\n\r\v\f",
        ]
        _assert_matches_oracle(kernel, cells)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    def test_nul_bytes_survive_exactly(self, kernel):
        """NULs are where NumPy U-dtype round trips lose data (trailing
        NUL) or strip wrongly (interior NUL): every placement must still
        match Python ``str.strip().lower()`` exactly."""
        cells = _PAD + ["a\x00", "\x00a", "  \x00  ", "\x00", "ab\x00cd", "a\x00\x00"]
        _assert_matches_oracle(kernel, cells)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    def test_numeric_strings_vs_numbers(self, kernel):
        """'3.0' the string keeps its decimal point; 3.0 the float takes
        the minimal integer rendering. The kernel must keep them apart."""
        cells = _PAD + ["3.0", 3.0, "3", 3, "3.5", 3.5, " 3.0 ", "0", 0, "1", 1]
        tokens = kernel(cells)
        _assert_matches_oracle(kernel, cells)
        assert tokens[len(_PAD) : len(_PAD) + 4] == ["3.0", "3", "3", "3"]

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    def test_bool_int_duality_never_aliases(self, kernel):
        """True == 1 and False == 0 in Python; the tokens must still be
        'true'/'1' and 'false'/'0' no matter how the batch interleaves
        and repeats them (the memo-aliasing trap)."""
        cells = _PAD + [True, 1, 1.0, "1", False, 0, 0.0, "0"] * 8
        tokens = kernel(cells)
        _assert_matches_oracle(kernel, cells)
        assert tokens[len(_PAD) : len(_PAD) + 8] == [
            "true", "1", "1", "1", "false", "0", "0", "0",
        ]

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    def test_non_finite_floats_are_null(self, kernel):
        cells = _PAD + [float("nan"), float("inf"), float("-inf"), -0.0, 0.0]
        tokens = kernel(cells)
        _assert_matches_oracle(kernel, cells)
        assert tokens[len(_PAD) : len(_PAD) + 3] == [None, None, None]
        assert tokens[len(_PAD) + 3 :] == ["0", "0"]

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    def test_exotic_types_take_the_oracle(self, kernel):
        """Types outside the cell contract -- including ones whose
        equality collides with numbers the kernel may have memoised
        (Decimal('2.50') == 2.5) and NumPy scalars -- must still token
        exactly like normalize_cell."""
        cells = _PAD + [
            2.5,
            Decimal("2.50"),
            Decimal("2"),
            Fraction(5, 2),
            np.int64(7),
            np.float64(2.0),
            np.bool_(True),
            b"bytes",
            (1, 2),
        ]
        _assert_matches_oracle(kernel, cells)

    def test_unhashable_cells_take_the_scalar_loop(self):
        cells = _PAD + [["list"], {"d": 1}, {1, 2}, "plain", 7]
        _assert_matches_oracle(normalize_tokens, cells)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    def test_full_bmp_sweep(self, kernel):
        """Every BMP codepoint, bare and whitespace-wrapped: the string
        lane may not diverge from Python semantics on any of them."""
        chars = [chr(cp) for cp in range(0x0, 0x10000)]
        _assert_matches_oracle(kernel, chars)
        _assert_matches_oracle(kernel, [f"  {c}  " for c in chars])

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    def test_randomised_mixed_batches(self, kernel):
        rng = random.Random(2025)
        pool = [
            None, True, False, 0, 1, -1, 7, 2**70, -(2**70),
            0.0, -0.0, 1.0, 2.5, float("nan"), float("inf"),
            1e16, 1e300, 5e-324, 0.1, float(2**63), float(2**64),
            "", " ", "tok", "  PAD  ", "İ", "ß", "a\x00b", "3.0",
        ]
        for _ in range(50):
            cells = [rng.choice(pool) for _ in range(rng.randint(0, 400))]
            _assert_matches_oracle(kernel, cells)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    def test_generated_corpus_cell_for_cell(self, kernel):
        """Every cell of a Table-II-style generated lake (typed numeric
        columns, NULLs, Zipf-skewed strings) in one batch, as the offline
        build feeds it."""
        lake = generate_corpus(
            CorpusConfig(name="tokens", num_tables=50, min_rows=25, max_rows=100, seed=71)
        )
        cells = [value for table in lake for row in table.rows for value in row]
        _assert_matches_oracle(kernel, cells)


class TestHugeIntegralFloats:
    """Satellite audit: ``normalize_cell``'s float path for
    integer-valued floats beyond 2**53 (where float cannot represent
    every integer) and beyond 2**63 (where the kernel's int64 lane cannot
    hold the value).

    The pinned behavior: ``int(value)`` widening is *exact* at any
    magnitude (it returns the float's true mathematical value), so the
    token of a float always equals the token of the exactly-equal int --
    and only that int. This agrees with the engine's typed numeric-probe
    path (``normalize_numeric_probes`` keeps floats as floats and
    compares exactly), so tokenisation and numeric membership never
    disagree about which values are "the same".
    """

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    def test_beyond_2_53_exact_rendering(self, kernel):
        f = float(2**53 + 1)  # rounds to 2**53: int(f) must say so
        cells = _PAD + [f, float(2**53), 2**53, 2**53 + 1]
        tokens = kernel(cells)
        _assert_matches_oracle(kernel, cells)
        base = len(_PAD)
        assert tokens[base] == tokens[base + 1] == str(2**53)
        assert tokens[base + 2] == str(2**53)
        assert tokens[base + 3] == str(2**53 + 1)  # the int keeps its value

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    def test_beyond_2_63_exact_rendering(self, kernel):
        """Integral floats outside int64 range cannot take the int64
        lane; they must still render their exact integer value."""
        cells = _PAD + [float(2**63), float(2**64), -float(2**64), 1e300, -1e300]
        tokens = kernel(cells)
        _assert_matches_oracle(kernel, cells)
        base = len(_PAD)
        assert tokens[base] == str(2**63)
        assert tokens[base + 1] == str(2**64)
        assert tokens[base + 2] == str(-(2**64))
        assert tokens[base + 3] == str(int(1e300))

    def test_token_equality_tracks_exact_numeric_equality(self):
        """For any integral float f and int k: same token iff f == k
        (Python's int/float comparison is exact). Unequal neighbours
        beyond 2**53 -- which a double cannot distinguish from the float
        -- keep distinct tokens because the int lane never narrows."""
        for exponent in (53, 60, 64, 100):
            k = 2**exponent
            f = float(k)
            assert f == k and normalize_cell(f) == normalize_cell(k)
            assert f != k + 1 and normalize_cell(f) != normalize_cell(k + 1)
        # And the probe path agrees these are exact comparisons:
        from repro.engine.storage.column_store import normalize_numeric_probes

        probes = normalize_numeric_probes([float(2**53)])
        assert 2**53 + 1 not in probes and float(2**53) in probes

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    def test_int64_boundary_floats(self, kernel):
        """Exact int64 boundary: -2**63 is representable and must take
        the fast lane; 2**63 is out of range and must not overflow."""
        cells = _PAD + [
            -float(2**63),
            float(2**63),
            float(2**63) - 2048.0,  # largest integral double below 2**63
            math.nextafter(float(2**63), 0.0),
        ]
        _assert_matches_oracle(kernel, cells)


class TestTableIntegration:
    def test_small_batches_take_scalar_shortcut(self):
        cells = ["A ", 1, None]
        assert normalize_tokens(cells) == ["a", "1", None]

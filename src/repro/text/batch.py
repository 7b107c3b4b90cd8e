"""Batched name-distance kernel (Table I rows 8-15, many pairs at once).

:func:`name_distance_matrix` computes the eight name distances of
:func:`repro.text.similarity.name_distance_vector` for a whole list of
pairs in one pass.  It is the hot-loop replacement for calling the
scalar registry per pair: benchmark grids score tens of thousands of
pairs whose *unique* lowercase name pairs number in the low thousands,
and the scalar dynamic programs dominate the wall-clock otherwise.

Four layers of work avoidance:

* **deduplication** -- pairs are lowercased and canonically ordered
  (every distance is symmetric), and each unique pair is computed once;
  identical pairs short-circuit to the all-zero row;
* **length-banded batched DP** -- the three edit distances and the
  LCS-substring distance run as NumPy dynamic programs over all pairs
  of one *length band* simultaneously (lengths rounded up to a band
  edge, strings padded with non-matching sentinels): Levenshtein and
  OSA vectorise each DP row with a prefix-min scan and capture each
  pair's result at its true row, the full Damerau-Levenshtein runs the
  Lowrance-Wagner recurrence with per-band alphabet coding and batched
  transposition lookups.  Banding keeps small grids from fragmenting
  into hundreds of tiny per-``(len_a, len_b)`` DP launches;
* **CSR 3-gram profiles** -- the n-gram family is computed from one
  CSR-style gram x name count matrix: per-pair multiset overlap, dot
  product and set intersection all come from a single vectorised sorted
  key intersection, with no per-pair ``Counter`` arithmetic;
* **batched Jaro-Winkler** -- the greedy window matching, transposition
  ranking and common-prefix boost run across a whole band at once.

The scalar :func:`~repro.text.similarity.name_distance_vector` is only
this kernel's test oracle (no ``src/`` scorer calls it);
``tests/text/test_batch_distances.py`` asserts bit-level equivalence.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.text.ngrams import ngram_profile
from repro.text.similarity import PAIR_DISTANCE_NAMES

#: Column order of the returned matrix (same as ``name_distance_vector``).
COLUMNS: tuple[str, ...] = PAIR_DISTANCE_NAMES

#: Version of the kernel's *numeric contract* (not its implementation).
#: Every row is pinned bit-for-bit to the scalar ``name_distance_vector``
#: reference, so this only changes when that scalar semantics changes;
#: the persistent :mod:`repro.text.distance_cache` folds it into its
#: fingerprint to invalidate stale persisted rows.
KERNEL_VERSION = 1

_COL_OSA = COLUMNS.index("osa")
_COL_LEV = COLUMNS.index("levenshtein")
_COL_DAMERAU = COLUMNS.index("damerau_levenshtein")
_COL_LCS = COLUMNS.index("lcs")
_COL_NGRAM = COLUMNS.index("ngram")
_COL_COSINE = COLUMNS.index("ngram_cosine")
_COL_JACCARD = COLUMNS.index("ngram_jaccard")
_COL_JARO = COLUMNS.index("jaro_winkler")

#: Width of the DP length bands: lengths are grouped by ``ceil(len/6)``.
#: Only the quadratic-table DPs (Damerau, LCS) band; wider bands trade
#: padded cells for fewer kernel launches, and width 6 measures best on
#: the bench grids now that Levenshtein/OSA run bit-parallel unbanded.
_BAND_WIDTH = 6

#: Jaro-Winkler keeps no DP table, so padding waste is linear and wider
#: bands (fewer, larger launches) win.
_JARO_BAND_WIDTH = 8

#: Maximum short-side length served by the bit-parallel kernels (one
#: 64-bit word per pattern); longer pairs fall back to the banded DP.
_WORD_BITS = 64

#: Padding sentinels.  Negative, so they never equal a real codepoint,
#: and distinct from each other, so padding never matches padding.
_PAD_A = -1
_PAD_B = -2


def _band(length: int, width: int = _BAND_WIDTH) -> int:
    return (length + width - 1) // width


class _NameCodes:
    """Codepoint rows shared by every band of one kernel invocation.

    Names recur across many unique pairs, so codepoints are decoded
    once per distinct name; bands then gather padded sub-matrices with
    pure NumPy indexing instead of re-running ``ord`` loops.
    """

    def __init__(self, names: Sequence[str]) -> None:
        self.index: dict[str, int] = {}
        for name in names:
            self.index.setdefault(name, len(self.index))
        self.lengths = np.array(
            [len(name) for name in self.index], dtype=np.int64
        )
        width = int(self.lengths.max()) if len(self.lengths) else 0
        self._codes = np.full((len(self.index), width), _PAD_A, dtype=np.int64)
        for name, row in self.index.items():
            if name:
                self._codes[row, : len(name)] = [ord(char) for char in name]

    def rows(self, selection: np.ndarray, fill: int) -> np.ndarray:
        """Padded code matrix for ``selection``, ``fill`` as sentinel."""
        lengths = self.lengths[selection]
        width = int(lengths.max()) if len(lengths) else 0
        codes = self._codes[selection, :width]
        if fill != _PAD_A:
            codes = np.where(
                np.arange(width) < lengths[:, None], codes, fill
            )
        return codes


def _scan_min(t: np.ndarray, boundary: int, j_arr: np.ndarray) -> np.ndarray:
    """Row update ``c[j] = min(t[j], c[j-1] + 1)`` with ``c[0] = boundary``.

    The left-neighbour dependence unrolls to
    ``c[j] = min_{k <= j} (w[k] + j - k)`` with ``w[0] = boundary`` and
    ``w[k] = t[k]`` otherwise, which a running minimum of ``w[k] - k``
    computes without a Python loop over ``j``.
    """
    batch = t.shape[0]
    w = np.empty((batch, t.shape[1] + 1), dtype=t.dtype)
    w[:, 0] = boundary
    w[:, 1:] = t - j_arr[1:]
    np.minimum.accumulate(w, axis=1, out=w)
    w += j_arr
    return w


def _capture_rows(
    result: np.ndarray, previous: np.ndarray, m_real: np.ndarray,
    n_real: np.ndarray, i: int,
) -> None:
    """Record ``previous[r, n_real[r]]`` for every pair whose short side
    ends at DP row ``i`` (the prefix property makes later, padded rows
    irrelevant to these pairs)."""
    rows = np.nonzero(m_real == i)[0]
    if rows.size:
        result[rows] = previous[rows, n_real[rows]]


def _match_masks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-text-column pattern match bitmasks ``eq (B, n)``.

    Bit ``i`` of ``eq[r, j]`` is set iff ``a[r, i] == b[r, j]``; padding
    sentinels never match, so padded positions contribute no bits.
    """
    batch, m = a.shape
    n = b.shape[1]
    eq = np.zeros((batch, n), dtype=np.uint64)
    equal = np.empty((batch, n), dtype=bool)
    bits = np.empty((batch, n), dtype=np.uint64)
    for i in range(m):
        np.equal(a[:, i : i + 1], b, out=equal)
        np.multiply(equal, np.uint64(1 << i), out=bits)
        eq |= bits
    return eq


def _bit_parallel_edit(
    a: np.ndarray,
    b: np.ndarray,
    m_real: np.ndarray,
    n_real: np.ndarray,
    transpositions: bool,
) -> np.ndarray:
    """Levenshtein (or OSA) distances in one launch over all pairs.

    Myers' bit-parallel algorithm in Hyyro's global-distance
    formulation: the DP column's delta vector is packed into one 64-bit
    word per pair, so each text position costs ~a dozen bitwise ops on
    flat ``(B,)`` arrays instead of a DP row over a padded band.  With
    ``transpositions`` the ``D0`` recurrence gains Hyyro's adjacent
    transposition term, which computes the optimal-string-alignment
    distance.  High word bits beyond ``m_real`` carry garbage but never
    feed back below (only addition propagates between bits, and only
    upward), so the tracked score bit stays exact; each pair's distance
    is captured when its true text length is reached, exactly like the
    banded DP's row capture.  Requires every short side to fit one word
    (``m <= 64``); callers fall back to the banded DP above otherwise.
    """
    batch = a.shape[0]
    n = b.shape[1]
    eq = _match_masks(a, b)
    one = np.uint64(1)
    pv = np.full(batch, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    mv = np.zeros(batch, dtype=np.uint64)
    score = m_real.astype(np.int64, copy=True)
    top = one << (m_real.astype(np.uint64) - one)
    result = np.empty(batch, dtype=np.int64)
    d0 = np.zeros(batch, dtype=np.uint64)
    eq_prev = np.zeros(batch, dtype=np.uint64)
    for j in range(n):
        eq_j = eq[:, j]
        if transpositions:
            d0 = ((~d0 & eq_j) << one) & eq_prev
            d0 |= (((eq_j & pv) + pv) ^ pv) | eq_j | mv
            eq_prev = eq_j
        else:
            d0 = (((eq_j & pv) + pv) ^ pv) | eq_j | mv
        ph = mv | ~(d0 | pv)
        mh = pv & d0
        score += (ph & top) != 0
        score -= (mh & top) != 0
        ph = (ph << one) | one
        pv = (mh << one) | ~(d0 | ph)
        mv = ph & d0
        rows = np.nonzero(n_real == j + 1)[0]
        if rows.size:
            result[rows] = score[rows]
    return result


def _batched_levenshtein(
    a: np.ndarray, b: np.ndarray, m_real: np.ndarray, n_real: np.ndarray
) -> np.ndarray:
    """Levenshtein distances for padded code matrices ``a (B, m)``,
    ``b (B, n)`` with true lengths ``m_real``/``n_real`` per pair."""
    m, n = a.shape[1], b.shape[1]
    result = np.empty(a.shape[0], dtype=np.int64)
    j_arr = np.arange(n + 1, dtype=np.int64)
    previous = np.broadcast_to(j_arr, (a.shape[0], n + 1)).copy()
    for i in range(1, m + 1):
        cost = (a[:, i - 1 : i] != b).astype(np.int64)
        t = np.minimum(previous[:, 1:] + 1, previous[:, :-1] + cost)
        previous = _scan_min(t, i, j_arr)
        _capture_rows(result, previous, m_real, n_real, i)
    return result


def _batched_osa(
    a: np.ndarray, b: np.ndarray, m_real: np.ndarray, n_real: np.ndarray
) -> np.ndarray:
    """Optimal-string-alignment distances (adjacent transpositions)."""
    m, n = a.shape[1], b.shape[1]
    result = np.empty(a.shape[0], dtype=np.int64)
    j_arr = np.arange(n + 1, dtype=np.int64)
    previous = np.broadcast_to(j_arr, (a.shape[0], n + 1)).copy()
    before_previous: np.ndarray | None = None
    for i in range(1, m + 1):
        cost = (a[:, i - 1 : i] != b).astype(np.int64)
        t = np.minimum(previous[:, 1:] + 1, previous[:, :-1] + cost)
        if i > 1 and n > 1:
            transposable = (a[:, i - 1 : i] == b[:, :-1]) & (
                a[:, i - 2 : i - 1] == b[:, 1:]
            )
            candidate = before_previous[:, :-2] + 1
            t[:, 1:] = np.where(
                transposable, np.minimum(t[:, 1:], candidate), t[:, 1:]
            )
        before_previous = previous
        previous = _scan_min(t, i, j_arr)
        _capture_rows(result, previous, m_real, n_real, i)
    return result


def _batched_damerau_lcs(
    a: np.ndarray, b: np.ndarray, m_real: np.ndarray, n_real: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Full Damerau-Levenshtein distances (batched Lowrance-Wagner)
    plus longest-common-substring lengths, sharing one row loop.

    The transposition term ``d[row][col]`` indexes rows by the last
    occurrence of ``b[j-1]`` in ``a`` -- data-dependent, so the whole
    ``(B, m+2, n+2)`` table is kept and gathered with fancy indexing;
    the per-band alphabet keeps the last-occurrence table small.  The
    ``max_dist`` boundary only has to exceed every real distance to act
    as infinity, so padded band dimensions leave results unchanged.
    The LCS recurrence rides the same per-row equality mask (sentinels
    never match, so padded cells are zero and raise no pair's maximum);
    fusing it here halves the number of row launches for the two
    quadratic DPs.
    """
    batch, m = a.shape
    n = b.shape[1]
    alphabet = np.unique(np.concatenate([a.ravel(), b.ravel()]))
    a_codes = np.searchsorted(alphabet, a)
    b_codes = np.searchsorted(alphabet, b)
    max_dist = m + n
    # Distances are bounded by m + n: int32 state halves memory traffic.
    d = np.empty((batch, m + 2, n + 2), dtype=np.int32)
    d[:, 0, :] = max_dist
    d[:, :, 0] = max_dist
    d[:, 1, 1:] = np.arange(n + 1, dtype=np.int32)
    d[:, 1:, 1] = np.arange(m + 1, dtype=np.int32)
    alphabet_size = len(alphabet)
    last_row = np.zeros((batch, alphabet_size), dtype=np.int32)
    batch_idx = np.arange(batch)
    j_cells = np.arange(1, n + 1, dtype=np.int32)
    j_arr = np.arange(n + 1, dtype=np.int32)
    # All row-loop intermediates write into preallocated scratch: fresh
    # large temporaries per row would each fault in new pages, which is
    # what makes this kernel slow inside freshly forked workers.
    equal = np.empty((batch, n), dtype=bool)
    scratch = np.empty((batch, n), dtype=np.int32)
    row = np.empty((batch, n), dtype=np.int32)
    transposition = np.empty((batch, n), dtype=np.int32)
    substitution = np.empty((batch, n), dtype=np.int32)
    deletion = np.empty((batch, n), dtype=np.int32)
    col = np.zeros((batch, n), dtype=np.int32)
    w = np.empty((batch, n + 1), dtype=np.int32)
    lcs_prev = np.zeros((batch, n + 1), dtype=np.int32)
    lcs_cur = np.zeros((batch, n + 1), dtype=np.int32)
    lcs_best = np.zeros(batch, dtype=np.int32)
    lcs_max = np.empty(batch, dtype=np.int32)
    # Flat-index bases so the two data-dependent gathers per row can use
    # ``np.take(..., out=...)`` instead of allocating fancy-index results.
    last_row_flat = last_row.ravel()
    row_at = (batch_idx[:, None] * alphabet_size + b_codes).astype(np.int32)
    d_flat = d.ravel()
    d_base = (batch_idx[:, None] * ((m + 2) * (n + 2))).astype(np.int32)
    for i in range(1, m + 1):
        np.equal(a_codes[:, i - 1 : i], b_codes, out=equal)
        np.add(lcs_prev[:, :-1], 1, out=scratch)
        np.multiply(scratch, equal, out=lcs_cur[:, 1:])
        lcs_cur[:, 1:].max(axis=1, out=lcs_max)
        np.maximum(lcs_best, lcs_max, out=lcs_best)
        lcs_prev, lcs_cur = lcs_cur, lcs_prev
        # Last column (exclusive) where the current row character matched.
        np.multiply(equal, j_cells, out=scratch)
        np.maximum.accumulate(scratch, axis=1, out=scratch)
        col[:, 1:] = scratch[:, :-1]
        np.take(last_row_flat, row_at, out=row)
        # d[row][col] + (i - row - 1) + 1 + (j - col - 1), regrouped so
        # the constants collapse into in-place adds.
        np.multiply(row, n + 2, out=scratch)
        scratch += col
        scratch += d_base
        np.take(d_flat, scratch, out=transposition)
        transposition -= row
        transposition -= col
        transposition += j_cells
        transposition += np.int32(i - 1)
        np.subtract(d[:, i, 1 : n + 1], equal, out=substitution)
        substitution += 1
        np.add(d[:, i, 2 : n + 2], 1, out=deletion)
        np.minimum(substitution, deletion, out=substitution)
        np.minimum(substitution, transposition, out=substitution)
        # Prefix-min scan (see _scan_min), inlined over the scratch row.
        w[:, 0] = i
        np.subtract(substitution, j_arr[1:], out=w[:, 1:])
        np.minimum.accumulate(w, axis=1, out=w)
        w += j_arr
        d[:, i + 1, 1:] = w
        last_row[batch_idx, a_codes[:, i - 1]] = i
    return d[batch_idx, m_real + 1, n_real + 1], lcs_best


def _fill_dp_columns(
    items: list[tuple[int, str, str]], out: np.ndarray, codes: _NameCodes
) -> None:
    """Edit-distance and LCS columns via length-banded batched DP."""
    shorts: list[int] = []
    longs: list[int] = []
    rows: list[int] = []
    bands: dict[tuple[int, int], list[int]] = {}
    for row, first, second in items:
        if len(first) > len(second):
            first, second = second, first
        if not first:
            # One side empty (and the pair is not identical, so the
            # other side is not): every edit distance saturates at the
            # longer length, LCS overlap is zero.
            out[row, _COL_OSA] = 1.0
            out[row, _COL_LEV] = 1.0
            out[row, _COL_DAMERAU] = 1.0
            out[row, _COL_LCS] = 1.0
            continue
        member = len(shorts)
        shorts.append(codes.index[first])
        longs.append(codes.index[second])
        rows.append(row)
        bands.setdefault(
            (_band(len(first)), _band(len(second))), []
        ).append(member)
    if not rows:
        return
    short_idx = np.array(shorts, dtype=np.int64)
    long_idx = np.array(longs, dtype=np.int64)
    row_idx = np.array(rows, dtype=np.int64)
    # Levenshtein and OSA pack into 64-bit words: one unbanded launch
    # over every pair at once, unless a short side overflows the word.
    bit_parallel = int(codes.lengths[short_idx].max()) <= _WORD_BITS
    if bit_parallel:
        a = codes.rows(short_idx, _PAD_A)
        b = codes.rows(long_idx, _PAD_B)
        m_all = codes.lengths[short_idx]
        n_all = codes.lengths[long_idx]
        longest = n_all.astype(np.float64)
        out[row_idx, _COL_LEV] = np.minimum(
            1.0,
            _bit_parallel_edit(a, b, m_all, n_all, transpositions=False)
            / longest,
        )
        out[row_idx, _COL_OSA] = np.minimum(
            1.0,
            _bit_parallel_edit(a, b, m_all, n_all, transpositions=True)
            / longest,
        )
    for members in bands.values():
        sel = np.array(members, dtype=np.int64)
        a = codes.rows(short_idx[sel], _PAD_A)
        b = codes.rows(long_idx[sel], _PAD_B)
        m_real = codes.lengths[short_idx[sel]]
        n_real = codes.lengths[long_idx[sel]]
        idx = row_idx[sel]
        longest = n_real.astype(np.float64)
        if not bit_parallel:
            out[idx, _COL_OSA] = np.minimum(
                1.0, _batched_osa(a, b, m_real, n_real) / longest
            )
            out[idx, _COL_LEV] = np.minimum(
                1.0, _batched_levenshtein(a, b, m_real, n_real) / longest
            )
        damerau, lcs_length = _batched_damerau_lcs(a, b, m_real, n_real)
        out[idx, _COL_DAMERAU] = np.minimum(1.0, damerau / longest)
        out[idx, _COL_LCS] = 1.0 - lcs_length / longest


def _concat_rows(
    flat: np.ndarray, indptr: np.ndarray, selection: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised per-row gather from a CSR layout.

    Concatenates ``flat[indptr[s]:indptr[s+1]]`` for every ``s`` in
    ``selection`` and returns ``(values, owner)`` where ``owner[k]`` is
    the position in ``selection`` that produced ``values[k]``.
    """
    lengths = indptr[selection + 1] - indptr[selection]
    owner = np.repeat(np.arange(len(selection), dtype=np.int64), lengths)
    offsets = np.cumsum(lengths) - lengths
    positions = (
        np.arange(int(lengths.sum()), dtype=np.int64)
        - offsets[owner]
        + indptr[selection][owner]
    )
    return flat[positions], owner


def _fill_ngram_columns(
    items: list[tuple[int, str, str]], out: np.ndarray
) -> None:
    """The 3-gram family from one CSR gram x name count matrix.

    Every per-pair quantity -- multiset overlap, count dot product and
    set intersection -- drops out of one sorted-key intersection of the
    two sides' (pair, gram) streams; the arithmetic then mirrors
    :mod:`repro.text.ngrams` expression for expression so results stay
    bit-identical to the scalar path.
    """
    if not items:
        return
    name_index: dict[str, int] = {}
    for _, first, second in items:
        name_index.setdefault(first, len(name_index))
        name_index.setdefault(second, len(name_index))
    gram_index: dict[str, int] = {}
    flat_ids: list[int] = []
    flat_counts: list[int] = []
    indptr = np.zeros(len(name_index) + 1, dtype=np.int64)
    distinct = np.zeros(len(name_index), dtype=np.int64)
    totals = np.zeros(len(name_index), dtype=np.int64)
    sumsq = np.zeros(len(name_index), dtype=np.int64)
    for name, slot in name_index.items():
        profile = ngram_profile(name, 3)
        for gram, count in profile.items():
            gram_id = gram_index.setdefault(gram, len(gram_index))
            flat_ids.append(gram_id)
            flat_counts.append(count)
        indptr[slot + 1] = len(flat_ids)
        distinct[slot] = len(profile)
        totals[slot] = sum(profile.values())
        sumsq[slot] = sum(count * count for count in profile.values())
    ids = np.array(flat_ids, dtype=np.int64)
    counts = np.array(flat_counts, dtype=np.int64)
    norms = np.sqrt(sumsq.astype(np.float64))

    rows = np.array([row for row, _, _ in items], dtype=np.int64)
    left = np.array([name_index[a] for _, a, _ in items], dtype=np.int64)
    right = np.array([name_index[b] for _, _, b in items], dtype=np.int64)
    vocabulary = max(len(gram_index), 1)

    ids_l, pair_l = _concat_rows(ids, indptr, left)
    ids_r, pair_r = _concat_rows(ids, indptr, right)
    counts_l, _ = _concat_rows(counts, indptr, left)
    counts_r, _ = _concat_rows(counts, indptr, right)
    # (pair, gram) composite keys: unique within each side because gram
    # ids are unique per name, so the intersection enumerates exactly
    # the grams shared by each pair.
    common, at_l, at_r = np.intersect1d(
        pair_l * vocabulary + ids_l,
        pair_r * vocabulary + ids_r,
        assume_unique=True,
        return_indices=True,
    )
    pair_of = common // vocabulary
    pairs = len(items)
    overlap = np.bincount(
        pair_of,
        weights=np.minimum(counts_l[at_l], counts_r[at_r]),
        minlength=pairs,
    )
    dot = np.bincount(
        pair_of,
        weights=(counts_l[at_l] * counts_r[at_r]).astype(np.float64),
        minlength=pairs,
    )
    shared = np.bincount(pair_of, minlength=pairs).astype(np.int64)

    total = totals[left] + totals[right]
    safe_total = np.where(total == 0, 1, total)
    out[rows, _COL_NGRAM] = np.where(
        total == 0, 0.0, 1.0 - 2.0 * overlap / safe_total
    )

    empty_l = totals[left] == 0
    empty_r = totals[right] == 0
    norm_product = norms[left] * norms[right]
    similarity = dot / np.where(norm_product == 0.0, 1.0, norm_product)
    cosine = np.maximum(0.0, np.minimum(1.0, 1.0 - similarity))
    # Identical profiles must give exactly 0 despite float rounding.
    cosine = np.where(cosine < 1e-9, 0.0, cosine)
    out[rows, _COL_COSINE] = np.where(
        empty_l & empty_r, 0.0, np.where(empty_l | empty_r, 1.0, cosine)
    )

    union = distinct[left] + distinct[right] - shared
    safe_union = np.where(union == 0, 1, union)
    out[rows, _COL_JACCARD] = np.where(
        union == 0, 0.0, 1.0 - shared / safe_union
    )


def _fill_jaro_column(
    items: list[tuple[int, str, str]], out: np.ndarray, codes: _NameCodes
) -> None:
    """Batched Jaro-Winkler distances, banded like the DP columns.

    Replicates the scalar greedy matcher step for step: the sliding
    window match loop runs over short-side positions with the whole
    band's candidate masks evaluated at once, transpositions pair the
    k-th matched characters of both sides via a stable argsort, and the
    common-prefix boost is a cumulative product of leading equalities.
    Identical pairs never reach this kernel (their row stays zero), so
    the scalar ``a == b`` short-circuit needs no batched counterpart.
    """
    bands: dict[int, list[int]] = {}
    for member, (_, first, second) in enumerate(items):
        # The greedy match loops over first-side positions, so only that
        # side's width drives launch count: band on it alone and let the
        # masks absorb the mixed second-side lengths.
        bands.setdefault(_band(len(first), _JARO_BAND_WIDTH), []).append(
            member
        )
    for members in bands.values():
        idx = np.array([items[i][0] for i in members], dtype=np.int64)
        first_idx = np.array(
            [codes.index[items[i][1]] for i in members], dtype=np.int64
        )
        second_idx = np.array(
            [codes.index[items[i][2]] for i in members], dtype=np.int64
        )
        a = codes.rows(first_idx, _PAD_A)
        b = codes.rows(second_idx, _PAD_B)
        len_a = codes.lengths[first_idx]
        len_b = codes.lengths[second_idx]
        batch, width_a = a.shape
        width_b = b.shape[1]
        window = np.maximum(np.maximum(len_a, len_b) // 2 - 1, 0)
        matched_a = np.zeros((batch, width_a), dtype=bool)
        unmatched_b = np.ones((batch, width_b), dtype=bool)
        matches = np.zeros(batch, dtype=np.int64)
        j_idx = np.arange(width_b, dtype=np.int64)
        i_idx = np.arange(width_a, dtype=np.int64)
        batch_idx = np.arange(batch)
        # Window bounds for every short-side position, computed up front;
        # the sequential loop then runs a few buffer-reusing ops per
        # position (fresh temporaries would fault new pages every trip).
        lo = np.maximum(0, i_idx[None, :] - window[:, None])
        hi = np.minimum(
            len_b[:, None], i_idx[None, :] + window[:, None] + 1
        )
        candidates = np.empty((batch, width_b), dtype=bool)
        mask = np.empty((batch, width_b), dtype=bool)
        for i in range(width_a):
            np.equal(b, a[:, i : i + 1], out=candidates)
            candidates &= unmatched_b
            np.greater_equal(j_idx, lo[:, i : i + 1], out=mask)
            candidates &= mask
            np.less(j_idx, hi[:, i : i + 1], out=mask)
            candidates &= mask
            first_j = np.argmax(candidates, axis=1)
            hit = candidates[batch_idx, first_j]
            unmatched_b[batch_idx[hit], first_j[hit]] = False
            matched_a[hit, i] = True
            matches += hit
        matched_b = ~unmatched_b
        transpositions = np.zeros(batch, dtype=np.int64)
        depth = min(width_a, width_b)
        if depth:
            # Stable sort floats matched positions to the front in
            # ascending order: column k holds each side's k-th match.
            order_a = np.argsort(~matched_a, axis=1, kind="stable")
            order_b = np.argsort(~matched_b, axis=1, kind="stable")
            seq_a = np.take_along_axis(a, order_a, axis=1)[:, :depth]
            seq_b = np.take_along_axis(b, order_b, axis=1)[:, :depth]
            mismatch = (seq_a != seq_b) & (
                np.arange(depth) < matches[:, None]
            )
            transpositions = mismatch.sum(axis=1) // 2
        safe_a = np.maximum(len_a, 1)
        safe_b = np.maximum(len_b, 1)
        safe_m = np.maximum(matches, 1)
        jaro = np.where(
            matches > 0,
            (
                matches / safe_a
                + matches / safe_b
                + (matches - transpositions) / safe_m
            )
            / 3.0,
            0.0,
        )
        depth_p = min(4, width_a, width_b)
        if depth_p:
            prefix = np.cumprod(
                a[:, :depth_p] == b[:, :depth_p], axis=1
            ).sum(axis=1)
        else:
            prefix = np.zeros(batch, dtype=np.int64)
        winkler = jaro + prefix * 0.1 * (1.0 - jaro)
        out[idx, _COL_JARO] = 1.0 - winkler


def unique_lowered_pairs(
    pairs: Sequence[tuple[str, str]],
) -> tuple[list[tuple[str, str]], np.ndarray]:
    """Canonical unique (lowercased, sorted) pairs and the inverse map.

    ``uniq[inverse[i]]`` is the canonical form of ``pairs[i]``; all eight
    distances are symmetric, so one orientation suffices.
    """
    unique: dict[tuple[str, str], int] = {}
    inverse = np.empty(len(pairs), dtype=np.int64)
    for index, (first, second) in enumerate(pairs):
        first, second = first.lower(), second.lower()
        if first > second:
            first, second = second, first
        key = (first, second)
        slot = unique.get(key)
        if slot is None:
            slot = len(unique)
            unique[key] = slot
        inverse[index] = slot
    return list(unique), inverse


def name_distance_rows(uniq: Sequence[tuple[str, str]]) -> np.ndarray:
    """Distance rows for already-canonical unique pairs, ``(len(uniq), 8)``.

    The inner kernel behind :func:`name_distance_matrix`: callers that
    maintain their own deduplication (the pipeline's memo, the
    persistent :mod:`repro.text.distance_cache`) use this to compute
    exactly the missing canonical pairs.  Inputs must already be
    lowercased; orientation is free (every distance is symmetric, and
    the kernel canonicalises internally via :func:`unique_lowered_pairs`
    semantics being idempotent on lowercase input).
    """
    matrix = np.zeros((len(uniq), len(COLUMNS)))
    items = [
        (row, first, second)
        for row, (first, second) in enumerate(uniq)
        if first != second
    ]
    if not items:
        return matrix
    codes = _NameCodes(
        [name for _, first, second in items for name in (first, second)]
    )
    _fill_dp_columns(items, matrix, codes)
    _fill_ngram_columns(items, matrix)
    _fill_jaro_column(items, matrix, codes)
    return matrix


def name_distance_matrix(
    pairs: Sequence[tuple[str, str]],
    *,
    dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """The eight Table I name distances for every pair, ``(n_pairs, 8)``.

    Row ``i`` equals ``name_distance_vector(*pairs[i])`` exactly; columns
    follow :data:`~repro.text.similarity.PAIR_DISTANCE_NAMES`.  The
    kernel always computes in float64 (the bit-equivalence contract with
    the scalar path); ``dtype`` only casts the returned matrix, for
    callers storing columns at reduced precision.
    """
    if not pairs:
        return np.zeros((0, len(COLUMNS)), dtype=dtype)
    uniq, inverse = unique_lowered_pairs(pairs)
    gathered = name_distance_rows(uniq)[inverse]
    if np.dtype(dtype) == gathered.dtype:
        return gathered
    return gathered.astype(dtype)

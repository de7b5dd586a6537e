"""Exact batched products and Leibniz differentials for large elements.

The vectorised twin of the dict kernel in `graded` (`_products`) and
`dgca` (`_leibniz_terms`).  An element becomes an int8 exponent matrix
(terms x generators, restricted to the generators in use) and int64
numerators over one shared denominator, the lcm of its coefficients'
denominators.  For a pair of terms (a, b):

* the Koszul sign is the parity of (strict suffix sums of a's odd-degree
  bits) . (b's odd-degree bits), plus the same for odd-parity bits, which
  is exactly what `monomial_mul` counts; both sides are uint64 bit masks,
  so it is the parity of popcount(mask_a & mask_b);
* the pair vanishes when a and b share a square-zero generator, that is
  when their square-zero occupancy masks meet;
* the exponent row of the product is a + b, and since every packed field
  is wide enough for the sum, the packed key of the product is the word-wise
  sum of the packed keys of a and b.

Pairs are formed in steps, equal keys are merged by sort and
`np.add.reduceat` into a running accumulator, zero sums are dropped, and the
result is decoded back to canonical `(monomial, Fraction)` dict entries in
row blocks, with one shared tuple per (generator, exponent) and one
`Fraction` per distinct coefficient.  One step pairs each left row i with
its own run of right rows (all of them in a product, the d-image of the
hole's slot in a Leibniz block), so it costs the same few dozen numpy calls
however many slots or rows it spans.

The step is sized to the call: a call of P pairs takes steps of P / 32
pairs, at least 2**11 (below that the fixed cost of a step dominates) and
at most 2**17 (`_step`), and its accumulator
lets two steps of pairs, or as many as it holds merged entries, wait
before a merge.  A step's temporaries, the waiting pairs and the merge all
grow with the step, so a small call stays small: the 149,856-pair
d(g4 - mu4) on super-Poincare takes 4,683-pair steps and peaks at 3.0 MiB
of traced memory (numpy reports its buffers), where 2**17-pair steps take
14.2 MiB at about the same speed.  A large call keeps large steps: the
0.7-1.6M-pair d mu7, mu4**2 and d of the five-brane cocycle take
23k-50k-pair steps.

Every entry point returns None instead of an answer when one of its guards
trips, and the caller then takes the exact dict path:

* an output exponent sum (and so an input exponent) exceeds int8 (127);
* a numerator over the shared denominator, or max|numerator| *
  max|numerator| * (pairs that can meet in one output monomial), could
  reach 2**62, so an int64 product or sum could wrap.

The module uses only the signature's bit tables, not `Element` or
`apply_d`, so the dict path stays an independent reference for it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from math import lcm

import numpy as np

#: Pairs per vectorised step: P // STEPS for a call of P pairs, clamped to
#: [STEP_MIN, STEP_MAX] (see `_step` and the module docstring).
STEPS = 32
STEP_MIN = 1 << 11
STEP_MAX = 1 << 17
#: Rows per decoding block.
ROWS = 1 << 13
_LIMIT = 1 << 62
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)
_EMAX = 127


def product(sig, terms1: dict, terms2: dict) -> dict | None:
    """The canonical terms of terms1 * terms2, or None if a guard trips."""
    if not terms1 or not terms2:
        return {}
    a = _flat(terms1)
    b = _flat(terms2)
    if a is None or b is None:
        return None
    cols = _unique(np.concatenate([a.gens, b.gens]))
    colmax = _colmax(a, cols) + _colmax(b, cols)
    bound = a.maxnum * b.maxnum * min(len(terms1), len(terms2))
    if colmax.max(initial=0) > _EMAX or bound >= _LIMIT:
        return None
    ctx = _Context(sig, cols, colmax)
    left = ctx.operand(_dense(a, ctx), a.nums, left=True)
    right = ctx.operand(_dense(b, ctx), b.nums, left=False)
    step = _step(len(terms1) * len(terms2))
    acc = _Accumulator(ctx.words, step)
    na = len(terms1)
    for keys, vals in _pairs(left, right, np.zeros(na, np.int64),
                             np.full(na, len(terms2)), step):
        acc.add(keys, vals)
    return ctx.decode(*acc.result(), a.den * b.den)


def leibniz(sig, d_images, terms: dict) -> dict | None:
    """The canonical terms of d(terms) under the generator differentials
    `d_images` (Elements), or None if a guard trips.

    Per input term and slot, the hole row (exponent - 1 at the slot, its
    multiplicity e and the sign `_leibniz_terms` gives it) is multiplied by
    the slot's d-image through the pair kernel.  Input rows are processed in
    blocks of about one step of pairs, all slots of a block at once, so
    that terms which cancel meet early and the accumulator stays near the
    size of the result.
    """
    if not terms:
        return {}
    x = _flat(terms)
    if x is None:
        return None
    slots = [g for g in _unique(x.gens).tolist() if d_images[g]]
    if not slots:
        return {}
    images = [_flat(d_images[g].terms) for g in slots]
    if any(im is None for im in images):
        return None
    img_den = lcm(*(im.den for im in images))
    img_max = max(im.maxnum * (img_den // im.den) for im in images)
    cols = _unique(np.concatenate([x.gens] + [im.gens for im in images]))
    colmax = _colmax(x, cols) + np.max([_colmax(im, cols) for im in images],
                                       axis=0)
    emax = int(x.exps.max())
    meet = min(sum(len(im.nums) for im in images), len(terms) * len(slots))
    bound = x.maxnum * emax * img_max * meet
    if colmax.max(initial=0) > _EMAX or bound >= _LIMIT:
        return None
    ctx = _Context(sig, cols, colmax)
    ex = _dense(x, ctx)
    kx = ctx.pack(ex)
    xnums, den = x.nums, x.den
    del x
    colidx = np.searchsorted(cols, slots)
    # all d-images as one right operand: slot s owns rows off[s] + range(n[s])
    n = np.array([len(im.nums) for im in images], dtype=np.int64)
    off = np.cumsum(n) - n
    for im in images:
        im.nums *= img_den // im.den
    right = ctx.operand(np.concatenate([_dense(im, ctx) for im in images]),
                        np.concatenate([im.nums for im in images]), left=False)
    del images
    unit = np.stack([ctx.unit_key(c) for c in colidx.tolist()])
    holes_at = ex[:, colidx] != 0
    ends = np.cumsum(holes_at @ n)
    step = _step(int(ends[-1]))
    acc = _Accumulator(ctx.words, step)
    odd = ctx.odd
    par = ctx.par
    r0 = 0
    while r0 < len(ex):
        done = ends[r0 - 1] if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(ends, done + step, "right")))
        eb = ex[r0:r1]
        rows, s = np.nonzero(holes_at[r0:r1])
        c = colidx[s]
        bits_d = eb & odd
        bits_p = eb & par
        prefix = (np.cumsum(bits_d, axis=1) - bits_d)[rows, c]
        e = eb[rows, c].astype(np.int64)
        rest_d = _strict_suffix(bits_d)[rows, c] + (e - 1) * odd[c]
        rest_p = _strict_suffix(bits_p)[rows, c] + (e - 1) * par[c]
        cross = ((1 - odd[c]) * rest_d) ^ (par[c] * rest_p)
        flip = (prefix ^ cross) & 1
        nums = xnums[r0 + rows] * e * (1 - 2 * flip)
        holes = eb[rows]
        holes[np.arange(len(rows)), c] -= 1
        left = ctx.operand(holes, nums, left=True,
                           keys=kx[r0 + rows] - unit[s])
        for keys, vals in _pairs(left, right, off[s], n[s], step):
            acc.add(keys, vals)
        r0 = r1
    return ctx.decode(*acc.result(), den * img_den)


def _step(pairs: int) -> int:
    """Pairs per vectorised step for a call of `pairs` pairs."""
    return min(STEP_MAX, max(STEP_MIN, pairs // STEPS))


def _unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array.  (`np.unique` imports
    `numpy.ma` on its first call, ~2 MiB of RSS and ~0.1 s.)"""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


class _Flat:
    """The terms of a dict as flat arrays: per-term lengths, the (generator,
    exponent) pairs in order, and numerators over one denominator."""

    __slots__ = ("monos", "lens", "gens", "exps", "nums", "den", "maxnum")


def _flat(terms: dict) -> _Flat | None:
    f = _Flat()
    f.monos = monos = list(terms)
    coeffs = list(terms.values())
    f.den = den = lcm(*{c.denominator for c in coeffs})
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    f.maxnum = max(map(abs, nums))
    if f.maxnum >= _LIMIT:
        return None
    f.nums = np.array(nums, dtype=np.int64)
    f.lens = np.fromiter(map(len, monos), np.int64, len(monos))
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(monos)),
                        np.int64, 2 * int(f.lens.sum()))
    f.gens = pairs[0::2]
    f.exps = pairs[1::2]
    return f


def _colmax(f: _Flat, cols: np.ndarray) -> np.ndarray:
    out = np.zeros(len(cols), dtype=np.int64)
    np.maximum.at(out, np.searchsorted(cols, f.gens), f.exps)
    return out


def _dense(f: _Flat, ctx: "_Context") -> np.ndarray:
    e = np.zeros((len(f.monos), len(ctx.cols)), dtype=np.int8)
    rows = np.repeat(np.arange(len(f.monos)), f.lens)
    e[rows, np.searchsorted(ctx.cols, f.gens)] = f.exps
    return e


def _bitmask(bits: np.ndarray) -> np.ndarray:
    """Rows of nonzero / zero entries as little-endian uint64 bit masks,
    word-major: entry [w, i] is word w of row i."""
    packed = np.packbits(bits.astype(bool), axis=1, bitorder="little")
    out = np.zeros((len(bits), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return np.ascontiguousarray(out.view(np.uint64).T)


def _strict_suffix(bits: np.ndarray) -> np.ndarray:
    """Row-wise sums over the columns strictly to the right."""
    return np.cumsum(bits[:, ::-1], axis=1)[:, ::-1] - bits


class _Operand:
    """One side of a product: numerators, packed keys, and the sign and
    square-zero bit masks that `_Context.operand` describes."""

    __slots__ = ("nums", "keys", "sign", "occ")


class _Context:
    """Column layout, key packing and decoding for one operation."""

    def __init__(self, sig, cols: np.ndarray, colmax: np.ndarray):
        self.cols = cols
        self.gen_ids = cols.tolist()
        self.odd = np.array([sig.odd_bits[g] for g in self.gen_ids], np.int8)
        self.par = np.array([sig.parities[g] for g in self.gen_ids], np.int8)
        self.sqz = np.array([sig.sqz[g] for g in self.gen_ids], bool)
        # greedy packing: a field never straddles two 64-bit words
        widths = [max(1, int(m).bit_length()) for m in colmax]
        self.word = []
        self.shift = []
        w, used = 0, 0
        for b in widths:
            if used + b > 64:
                w, used = w + 1, 0
            self.word.append(w)
            self.shift.append(used)
            used += b
        self.words = w + 1
        self.mask = [(1 << b) - 1 for b in widths]
        self.colmax = colmax.tolist()

    def pack(self, e: np.ndarray) -> np.ndarray:
        keys = np.zeros((len(e), self.words), dtype=np.uint64)
        for c, (w, s) in enumerate(zip(self.word, self.shift)):
            keys[:, w] |= e[:, c].astype(np.uint64) << np.uint64(s)
        return keys

    def unit_key(self, c: int) -> np.ndarray:
        key = np.zeros(self.words, dtype=np.uint64)
        key[self.word[c]] = np.uint64(1 << self.shift[c])
        return key

    def operand(self, e: np.ndarray, nums: np.ndarray, left: bool,
                keys=None) -> _Operand:
        """One side of the pair kernel, with its bit masks: sign bits and
        square-zero occupancy, as uint64 words (`_bitmask`).

        Sign bits are a row's odd-degree bits followed by its odd-parity
        bits; on the left side each is replaced by the parity of the bits
        strictly to its right.  The Koszul sign of a pair is the parity of
        popcount(left & right), and the pair vanishes when the occupancies
        meet.
        """
        bits = np.concatenate([e & self.odd, e & self.par], axis=1)
        if left:
            n = len(self.gen_ids)
            bits = np.concatenate([_strict_suffix(bits[:, :n]),
                                   _strict_suffix(bits[:, n:])], axis=1) & 1
        op = _Operand()
        op.nums = nums
        op.keys = self.pack(e) if keys is None else keys
        op.sign = _bitmask(bits)
        op.occ = _bitmask(e[:, self.sqz])
        return op

    def decode(self, keys: np.ndarray, nums: np.ndarray, den: int) -> dict:
        """Canonical dict entries of merged packed keys and numerators over
        `den`."""
        out: dict = {}
        if not len(nums):
            return out
        uniq = _unique(nums)
        fracs = [Fraction(v, den) for v in uniq.tolist()]
        # one shared (generator, exponent) tuple per column and exponent
        table = []
        offset = []
        for g, m in zip(self.gen_ids, self.colmax):
            offset.append(len(table))
            table.extend((g, k) for k in range(m + 1))
        offset = np.array(offset, dtype=np.int64)
        for r0 in range(0, len(nums), ROWS):
            block = keys[r0:r0 + ROWS]
            e = np.empty((len(block), len(self.gen_ids)), dtype=np.int8)
            for c, (w, s) in enumerate(zip(self.word, self.shift)):
                e[:, c] = ((block[:, w] >> np.uint64(s))
                           & np.uint64(self.mask[c]))
            rows, cs = np.nonzero(e)
            it = map(table.__getitem__, (offset[cs] + e[rows, cs]).tolist())
            counts = np.bincount(rows, minlength=len(block)).tolist()
            monos = [tuple(islice(it, k)) for k in counts]
            inv = np.searchsorted(uniq, nums[r0:r0 + ROWS])
            out.update(zip(monos, map(fracs.__getitem__, inv.tolist())))
        return out


def _pairs(a: _Operand, b: _Operand, starts: np.ndarray,
           counts: np.ndarray, step: int):
    """Yield (keys, values) of the non-vanishing signed products of each
    row i of a with the rows starts[i] .. starts[i] + counts[i] - 1 of b,
    at most `step` pairs at a time, in row-major order."""
    ends = np.cumsum(counts)
    begins = ends - counts
    total = int(counts.sum())
    for p0 in range(0, total, step):
        p = np.arange(p0, min(p0 + step, total))
        ia = np.searchsorted(ends, p, "right")
        ib = starts[ia] + (p - begins[ia])
        dead = np.zeros(len(ia), dtype=np.uint64)
        for wa, wb in zip(a.occ, b.occ):
            dead |= wa[ia] & wb[ib]
        live = np.flatnonzero(dead == 0)
        ia = ia[live]
        ib = ib[live]
        # the parity of a popcount is that of the XOR of its words
        flip = np.zeros(len(ia), dtype=np.uint64)
        for wa, wb in zip(a.sign, b.sign):
            flip ^= wa[ia] & wb[ib]
        vals = a.nums[ia] * b.nums[ib]
        np.negative(vals, out=vals, where=(np.bitwise_count(flip) & 1) == 1)
        yield a.keys[ia] + b.keys[ib], vals


class _Accumulator:
    """Merges (packed keys, int64 values) batches, dropping zero sums.

    Batches wait until they outnumber the merged entries (and at least
    2 x step), so each entry is re-merged a bounded number of times."""

    def __init__(self, words: int, step: int):
        self.floor = 2 * step
        self.keys = np.zeros((0, words), dtype=np.uint64)
        self.vals = np.zeros(0, dtype=np.int64)
        self.pending: list = []
        self.size = 0

    def add(self, keys: np.ndarray, vals: np.ndarray):
        self.pending.append((keys, vals))
        self.size += len(vals)
        if self.size >= max(self.floor, len(self.vals)):
            self._merge()

    def _merge(self):
        keys = np.concatenate([self.keys] + [k for k, _ in self.pending])
        vals = np.concatenate([self.vals] + [v for _, v in self.pending])
        self.pending = []
        self.size = 0
        # sort by one uint64 word: the key itself, or a hash of its words
        # whose order is kept only if no two different keys share a hash
        # (then equal keys are exactly the runs of equal hashes)
        hashed = keys[:, 0].copy()
        for w in range(1, keys.shape[1]):
            hashed *= _HASH_MUL
            hashed ^= keys[:, w]
        order = np.argsort(hashed)
        keys = keys[order]
        vals = vals[order]
        del order
        new = np.ones(len(vals), dtype=bool)
        new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        hashed.sort()
        if (np.count_nonzero(hashed[1:] != hashed[:-1])
                < np.count_nonzero(new[1:])):
            fix = np.lexsort(keys.T[::-1])
            keys = keys[fix]
            vals = vals[fix]
            new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        del hashed
        starts = np.flatnonzero(new)
        sums = np.add.reduceat(vals, starts) if len(starts) else vals[:0]
        keep = sums != 0
        self.keys = keys[starts[keep]]
        self.vals = sums[keep]

    def result(self):
        """The merged (keys, values), sorted by key.

        The order of one operation's output is the order the next one
        processes its input in; in key order, terms that share most of their
        factors are neighbours, and their contributions cancel early."""
        if self.pending:
            self._merge()
        order = np.lexsort(self.keys.T[::-1])
        self.keys = self.keys[order]
        self.vals = self.vals[order]
        return self.keys, self.vals

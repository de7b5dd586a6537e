"""Exact batched sums of products for large elements.

The vectorised twin of `graded._products`, the dict path's one pair loop
for products and for the holes of `dgca._leibniz_terms`.  One core,
`_sum_of_products`, computes
sum_k A_k * B_k for one or more inputs at once: each left row comes from
one input and is tagged with the right block B_k it meets.  It has two
front-ends, and each leaves to the dict path what has fewer than
`BATCH_PAIRS` term pairs:

* `sum_of_products(sig, pairs)`: one untagged input, the a_k of the
  (terms, terms) pairs (a_k, b_k), whose terms meet block b_k; its pair
  count is the sum of len(a_k) * len(b_k) (`graded.sum_of_products`).
  One pair whose two sides are one dict, as `x * x` gives, is a square,
  tried first with each unordered pair formed once.  Where every term has
  even degree and even parity, the terms commute: term i meets itself
  with coefficient c_i and each later term j with 2 c_j, so a left row
  meets a range of right rows rather than a whole block (`_square_rows`:
  a row c_i on row i, a row 2 c_i on rows i + 1 on).  mu4^2 takes 416,328
  pairs of its 912 terms instead of 831,744.  The gate counts the
  len(terms)**2 ordered pairs either way;
* `leibniz(sig, d_images, inputs)`: d of each terms dict in `inputs`, with
  one block per slot generator g, d g, met by the holes at g: each term
  with a factor g^e, with g's exponent lowered by one, times e and the sign
  `_leibniz_terms` gives it.  An input's pair count is the sum over its
  terms and their factors g of the terms of d g.  An input of at least
  `ALONE_PAIRS` pairs runs alone; the others share one call if together
  they reach `BATCH_PAIRS`, and stay on the dict path if not
  (`dgca.apply_d_all`).  Its one call, alone or shared, is
  `_leibniz_call`; `leibniz_tagged(sig, d_images, inputs)` makes that
  call for all of `inputs` at once, whatever their pairs, and returns it
  tagged and undecoded, or None below the gate
  (`linalg.differential_matrix` keeps it as d's matrix).

Two constants route the calls.  `BATCH_PAIRS` = 1,000 is the measured
crossover: per call, in ms (kernel vs dict path, decoding included, median
of 25, 2-vCPU Xeon),

    pairs    superMink(11) product  super-Poincare product  poly_de_rham(8) d
    ~250     1.59 vs 0.84           2.16 vs 1.39            1.54 vs 1.82
    ~500     1.34 vs 1.73           2.76 vs 3.38            2.16 vs 4.62
    ~1,000   2.33 vs 3.48           3.35 vs 6.98            3.27 vs 9.11

so at 1,000 pairs the kernel is 1.5-2.8x faster on every algebra
measured; it takes, for example, tr(omega^4) (8,910 pairs) and each full
block of the flat-forms sampler (`rational_homotopy.forms_fiber_check`).
`ALONE_PAIRS` = 20,000 is where one Leibniz input gets a call of its own,
since in a shared call every row is as wide as the union of the inputs'
columns (see below).  One gate of 2,000 for both roles made `iso.d2`
0.24 -> 0.52 s and `resolvedpoincare.d2` 0.12 -> 0.33 s: their
2,000-20,000-pair d-images then each ran alone instead of sharing a call.

An element becomes an int8 exponent matrix (terms x generators in use)
and int64 numerators over one shared denominator; `_Context.operand`
packs its rows into keys and uint64 bit masks, bit c for column c.  For a
pair of terms (a, b):

* the Koszul sign is the parity of (strict suffix sums of a's odd-degree
  bits) . (b's odd-degree bits), plus the same for odd-parity bits, which
  is exactly what `monomial_mul` counts; a's suffix parities are taken on
  its words (`_suffix_parity`), so it is the parity of
  popcount(mask_a & mask_b);
* the pair vanishes when a and b share a square-zero generator, that is
  when their square-zero occupancy masks meet;
* the packed key of the product is the word-wise sum of the packed keys of
  a and b, since every packed field is wide enough for the sum.  A
  square-zero generator's field is 1 bit wide: a pair whose sides both
  have it is dropped before its keys are added, so that a live sum holds
  it at most once.  d mu7 and mu4^2 therefore get one layout, whatever
  their operands' exponent maxima.

A Leibniz hole at g is not packed again but derived from its term's words
and g's (`_hole_rows`): the key minus g's unit field, and each mask XOR
g's bit, since g^k -> g^(k-1) flips the low bit of k.  The holes' mask
words are XORed, scanned (`_suffix_parity` works in place, one word at a
time) and read where they lie, with g's words gathered one at a time
into one buffer: the traced peak of the 365,978-term Leibniz call of
`family` (alpha = beta = 1) is 334.6 MiB, against 371.1 MiB with
full-size gathers and scans and 448.8 MiB with the sign words scanned
into a second copy.

A call of several inputs adds a tag field to the packed key, after the
generators' fields: a left row carries its input's index there and a right
row 0.  The field has no sign and no square-zero bits, so it only keeps
the inputs' keys apart; a call of one input has no tag field, and its keys
are exactly those of that input alone.  In a shared call every row is as
wide as the union of the inputs' columns, which is why an input of
`ALONE_PAIRS` runs alone: sharing one call with resolved Poincare's
d(g4 - mu4) would widen its 149,856 pairs from 3 key words to 5.

Pairs are formed in steps, in left-row order (input-major, then
term-major and slot-minor for Leibniz), and merged into a running
accumulator that drops zero sums.  A merge sorts once, by an argsort of
one uint64 word per key, `_hash`: its words XORed in and multiplied by an
odd constant in turn, so that a one-word key's hash is a bijection of it.
Equal keys are then runs of equal hashes, unless two different keys share
a hash; the merge then lexsorts its rows by hash, then by key.  Either way
a merge lists its keys in (hash, key) order, which depends on the key set
alone.  Run starts are found one key word at a time and summed by
`np.add.reduceat`.  Key rows are moved with `np.take(..., axis=0)`:
numpy's 2-D fancy indexing (`keys[idx]`) copies rows this narrow element
by element, several times slower, with the same result.

A merge holds the concatenation of the merged entries and the waiting
batches, then a sorted copy of it.  A call of at least `PARTITION_PAIRS`
= 2**19 pairs therefore splits its accumulator into `BUCKETS` = 32
buckets (`_buckets`), by the top 5 bits of each row's hash: each step's
rows are split by one radix argsort of their uint8 bucket numbers and one
`np.take`, and each bucket keeps its own merged entries and waiting views
and merges alone.  Only one bucket's concatenation, argsort and sorted
copy are alive at a time, a 32nd of the whole, and they sort and move
rows in cache.  The multiply in `_hash` spreads every key bit into the top
bits, and a row's bucket depends on its hash alone, so the buckets in turn
list the keys in (hash, key) order, as one bucket would.  Measured on a
2-vCPU Xeon (numpy 2.4.6): the traced peak of d mu7 (741,888 pairs) falls
from 24.05 to 14.84 MiB, and the 31.7 M-pair Leibniz call of `family`
(alpha = 1) from 12.2 to 7.8 s.  Smaller calls keep one bucket and no
partition pass: the pass cost the 149,856-pair d(g4 - mu4) 26 -> 39 ms,
and poincare-forms makes many such calls.  A square counts the ordered
pairs it stands for, not those it forms: its result, whose merges the
buckets bound, is as large as the full product's.  Counted by the
416,328 pairs it forms, mu4^2 fell below PARTITION_PAIRS and merged in
one bucket, and the fivebrane run's peak RSS read 54.2 MiB, not 52.3.

The result of a call of one input stays packed (`Packed`: distinct keys
in (hash, key) order, numerators, denominator and layout), and the
front-ends return it.  It is decoded to canonical `(monomial, Fraction)`
entries (`_Context.decode`), with one shared tuple per
(generator, exponent) and one `Fraction` per distinct coefficient, only
when an `Element`'s terms are first read; a zero test reads the row
count, and `proportional` decides lhs = c * rhs on the arrays of two
results of one layout and equal key arrays, so that d mu7 = 15 mu4^2
decodes neither 194,992-term side.  A shared call of `leibniz` is decoded
as it returns, in one pass, into one dict per input (`Packed.split`): every
such call that has rows is read in full by its callers, so deferring its
decoding saved nothing.  A call of `leibniz_tagged` is split only when
its entries are read: `_Context.find` looks monomials up among its keys
as they are, so that a monomial none of them reaches is found with
nothing decoded.  Key order is paid for only where it is read:
`Packed.decode` and `Packed.split` sort the rows by key (one lexsort
each), so every decoded dict lists its terms in key order.  Equal key
sets in one layout come out as equal key arrays, whatever steps, buckets
and cancellations their calls took: `proportional` compares d mu7 and
mu4^2 row by row as they are, with no sort, and answers None for sides
whose keys differ in layout or row order.

A call of P pairs takes steps of P / 32 pairs clamped to [2**11, 2**17]
(`_step`), and a bucket merges once its waiting rows reach its merged
rows and 2 steps / buckets, so a small call stays small: the
149,856-pair d(g4 - mu4) on super-Poincare peaks at about 3 MiB of traced
memory, where 2**17-pair steps take 14.2 MiB at about the same speed.

The core returns None when a guard trips, and the caller then takes the
exact dict path:

* an output exponent sum (and so an input exponent) exceeds int8 (127),
  or an input holds a square-zero generator to a power above 1 (which the
  1-bit field could not hold);
* a numerator, or max|left| * max|right| * min(left rows, right rows),
  could reach 2**62, so that an int64 product or sum could wrap.  The left
  numerators include the Leibniz multiplicity e, and a square's its factor
  2.  In one output monomial a left row meets at most one row of its
  block, and a right row at most one left row tagged with its block,
  hence the min;
* in a square, a term has odd degree or odd parity: its two orders need
  not give one sign, and the square is formed in full instead.

`proportional` likewise answers None, and its caller compares the terms,
when max|nums_l| * max|nums_r| could reach 2**63.

The module uses only the signature's bit tables and the d-images' terms,
not `Element` or `apply_d`, so the dict path stays an independent
reference for it.  Its decoder keeps its own (generator, exponent) table
per layout, since `graded`, which holds the shared one, imports it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain, islice
from math import lcm

import numpy as np

#: Products and Leibniz differentials of fewer term pairs, summed over a
#: call's inputs, are left to the dict path: the measured crossover, above
#: which the kernel is faster (see the module docstring).
BATCH_PAIRS = 1_000
#: A Leibniz input of at least this many pairs runs in a call of its own,
#: so that its rows are not widened by the other inputs' columns.
ALONE_PAIRS = 20_000
#: Pairs per vectorised step: P // STEPS for a call of P pairs, clamped to
#: [STEP_MIN, STEP_MAX] (see `_step` and the module docstring).
STEPS = 32
STEP_MIN = 1 << 11
STEP_MAX = 1 << 17
#: A call of at least PARTITION_PAIRS pairs accumulates in BUCKETS buckets
#: (see `_buckets` and the module docstring).
PARTITION_PAIRS = 1 << 19
BUCKETS = 32
#: Rows per decoding block.
ROWS = 1 << 13
_LIMIT = 1 << 62
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)
_EMAX = 127


def sum_of_products(sig, pairs: list) -> Packed | None:
    """sum_k a_k * b_k over the (terms, terms) pairs (a_k, b_k), packed, or
    None below the gate, summed over the pairs, or if a guard trips.

    One pair whose two sides are one dict is a square, tried first with
    each unordered pair of terms formed once (`_square_rows`), and formed
    in full if its guards trip."""
    if sum(len(a) * len(b) for a, b in pairs) < BATCH_PAIRS:
        return None
    if len(pairs) == 1 and pairs[0][0] is pairs[0][1]:
        x = _flat([pairs[0][0]], tagged=False)
        out = _sum_of_products(sig, x, [x], _square_rows)
        if out is not None:
            return out
    return _sum_of_products(sig, _flat([a for a, _ in pairs], tagged=False),
                            [_flat([b]) for _, b in pairs], _term_rows)


def leibniz(sig, d_images, inputs: list) -> list:
    """Per terms dict in `inputs`, its d under the generator differentials
    `d_images` (Elements), or None where the dict path is left to compute
    it: below the gate, or if a guard trips.

    An input of at least ALONE_PAIRS Leibniz pairs runs alone; the others
    share one call if together they have at least BATCH_PAIRS.  The d of
    an input that had a call to itself stays a `Packed`; in a call of
    several inputs each d is a canonical dict (`Packed.split`)."""
    pairs = [_leibniz_pairs(d_images, terms) for terms in inputs]
    calls = [[i] for i, p in enumerate(pairs) if p >= ALONE_PAIRS]
    shared = [i for i, p in enumerate(pairs) if p < ALONE_PAIRS]
    if shared and sum(pairs[i] for i in shared) >= BATCH_PAIRS:
        calls.append(shared)
    out = [None] * len(inputs)
    for call in calls:
        res = _leibniz_call(sig, d_images, [inputs[i] for i in call])
        if res is None:
            continue
        if len(call) == 1:
            out[call[0]] = res
        else:
            for i, d in zip(call, res.split()):
                out[i] = d
    return out


def leibniz_tagged(sig, d_images, inputs: list) -> Packed | None:
    """d of every terms dict in `inputs` in one call, left packed and
    tagged with each input's index (untagged for one input), or None below
    the gate, the pairs summed over the inputs, or if a guard trips.
    `ALONE_PAIRS` plays no part: every input shares the call, which is
    what `linalg.differential_matrix` keeps as its columns."""
    if sum(_leibniz_pairs(d_images, terms) for terms in inputs) < BATCH_PAIRS:
        return None
    return _leibniz_call(sig, d_images, inputs)


def _leibniz_call(sig, d_images, inputs: list) -> Packed | None:
    """The one kernel call of a Leibniz front-end, ungated."""
    x = _flat(inputs)
    slots = [] if x is None else [g for g in _unique(x.gens).tolist()
                                  if d_images[g]]
    return _sum_of_products(sig, x, [_flat([d_images[g].terms])
                                     for g in slots],
                            partial(_hole_rows, slots))


def _leibniz_pairs(d_images, terms: dict) -> int:
    """The Leibniz pairs of d(terms): the sum, over the terms and their
    factors g, of the terms of d g.  The count stops at ALONE_PAIRS."""
    pairs = 0
    for mono in terms:
        if pairs >= ALONE_PAIRS:
            break
        for g, _ in mono:
            pairs += len(d_images[g].terms)
    return pairs


def _block_pairs(block: np.ndarray, sizes: np.ndarray):
    """(ends, shift) of left rows that each meet all of their block, the
    blocks having `sizes` rows each: the pairs p of row i end at ends[i],
    and p meets right row p + shift[i].  Built in place, with no
    temporary as long as the rows."""
    ends = sizes[block]
    np.cumsum(ends, out=ends)
    shift = np.cumsum(sizes)[block]
    shift -= ends
    return ends, shift


def _term_rows(ctx, e: np.ndarray, x: "_Flat", sizes: np.ndarray):
    """The left rows of a sum of products: each term of x on its block."""
    block = np.zeros(len(e), np.int64) if x.src is None else x.src
    return (ctx.operand(e, x.nums, left=True), x.maxnum,
            *_block_pairs(block, sizes), None)


def _square_rows(ctx, e: np.ndarray, x: "_Flat", sizes: np.ndarray):
    """The left rows of x * x, whose one block is x: per term i, a row of
    numerator c_i on right row i, then a row of 2 c_i on rows i + 1, ...
    Each unordered pair of terms is met once.  None if a term has odd
    degree or odd parity, since such a pair's two orders need not agree.

    The partition counts the len(x)**2 ordered pairs these rows stand for:
    the result, whose merges it bounds, is as large as that of the product
    formed in full, not half of it."""
    if ((np.count_nonzero(e & ctx.odd, axis=1) & 1).any()
            or (np.count_nonzero(e & ctx.par, axis=1) & 1).any()):
        return None
    n = len(e)
    nums = np.repeat(x.nums, 2)
    nums[1::2] *= 2
    # row 2i meets right row i, row 2i + 1 rows i + 1 .. n - 1
    counts = np.ones(2 * n, np.int64)
    counts[1::2] = np.arange(n - 1, -1, -1)
    ends = np.cumsum(counts)
    shift = np.repeat(np.arange(n), 2) + 1 - ends
    shift[1::2] += counts[1::2]
    return (ctx.operand(np.repeat(e, 2, axis=0), nums, left=True),
            2 * x.maxnum, ends, shift, n * n)


def _hole_rows(slots: list, ctx, e: np.ndarray, x: "_Flat",
               sizes: np.ndarray):
    """The left rows of a Leibniz differential: per term of x (term-major)
    and slot g (slot-minor) where the term has a factor g^k, its hole, with
    its numerator times k and the sign `_leibniz_terms` gives it, meeting
    the slot's block.  The hole comes from the words of its term and of g
    (`ctx.operand` of g's exponent row).  Its sign is the parity of its
    odd-degree bits and of its suffix parities at g's bits: that of
    `_leibniz_terms`, P's degree plus d g crossing the rest g^(k-1) R, but
    for the hole's own bits at g, which add (odd(g) + par(g)) * (k - 1),
    even: k = 1 where g squares to zero, and odd(g) = par(g) where not."""
    cs = np.searchsorted(ctx.cols, slots)
    at = e[:, cs]
    # contiguous copies: `np.nonzero` gives strided views of one buffer,
    # which every `np.take` by them would copy first
    rows, block = map(np.ascontiguousarray, np.nonzero(at))
    k = at[rows, block]
    del at
    term = ctx.operand(e, x.nums, left=False, tag=x.src)
    g = ctx.operand(np.eye(len(ctx.cols), dtype=np.int8)[cs], None, False)
    h = _Operand()
    h.keys = np.take(term.keys, rows, axis=0)
    h.keys -= np.take(g.keys, block, axis=0)
    # the mask words are XORed, scanned and read in place, so that no
    # second copy of them is alive.  g's words are gathered one at a time
    # into `gw_at`, freed while the scan takes a buffer of its own
    # (`np.take` into `out` copies `out` first unless mode is "clip")
    gw_at = np.empty(len(rows), np.uint64)
    h.occ = np.take(term.occ, rows, axis=1)
    for w, gw in zip(h.occ, g.occ):
        w ^= np.take(gw, block, out=gw_at, mode="clip")
    h.sign = np.take(term.sign, rows, axis=1)
    for w, gw in zip(h.sign, g.sign):
        w ^= np.take(gw, block, out=gw_at, mode="clip")
    del gw_at
    flip = np.bitwise_xor.reduce(np.split(h.sign, 2)[0])
    for kind in np.split(h.sign, 2):
        _suffix_parity(kind)
    gw_at = np.empty(len(rows), np.uint64)
    for w, gw in zip(h.sign, g.sign):
        np.take(gw, block, out=gw_at, mode="clip")
        gw_at &= w
        flip ^= gw_at
    del gw_at
    odd = (np.bitwise_count(flip) & 1).astype(bool)
    del flip
    h.nums = x.nums[rows]
    h.nums *= k
    np.negative(h.nums, out=h.nums, where=odd)
    del odd, k, rows, term
    return (h, x.maxnum * int(e.max(initial=0)), *_block_pairs(block, sizes),
            None)


def _sum_of_products(sig, x: "_Flat | None", blocks: list, left_rows
                     ) -> Packed | None:
    """sum_k A_k * B_k, packed and tagged per input of x, or None if a
    guard trips.

    The blocks B_k are the flat terms `blocks`, and
    `left_rows(ctx, e, x, sizes)` gives the left rows of x, whose exponent
    rows are e, among blocks of `sizes` rows: (an `_Operand` over x's
    denominator, a bound on its |numerators|, the rows' pairs as `_pairs`
    takes them, ends and shift, over all blocks' rows in order, and the
    pairs the partition counts, if not those formed), or None if a guard
    trips."""
    if x is None or any(b is None for b in blocks):
        return None
    if not blocks:
        # no pairs, so reached only with BATCH_PAIRS at 0, as tests set it
        ctx = _Context(sig, x.gens[:0], x.gens[:0], x.inputs)
        return Packed(np.zeros((0, ctx.words), np.uint64), x.nums[:0], 1, ctx)
    cols = _unique(np.concatenate([x.gens] + [b.gens for b in blocks]))
    sqz = np.array([sig.sqz[g] for g in cols.tolist()], dtype=bool)
    xmax = _colmax(x, cols)
    bmax = np.max([_colmax(b, cols) for b in blocks], axis=0)
    colmax = xmax + bmax
    if (colmax.max(initial=0) > _EMAX
            or np.maximum(xmax, bmax)[sqz].max(initial=0) > 1):
        return None
    # a live pair has each square-zero generator on one side at most:
    # `_pairs` drops the others before it adds their keys
    colmax[sqz] = 1
    ctx = _Context(sig, cols, colmax, x.inputs)
    sizes = np.array([len(b.nums) for b in blocks], dtype=np.int64)
    rows = left_rows(ctx, _dense(x, ctx), x, sizes)
    if rows is None:
        return None
    a, maxnum, ends, shift, counted = rows
    del rows
    den = lcm(*(b.den for b in blocks))
    bmax = max(b.maxnum * (den // b.den) for b in blocks)
    if maxnum * bmax * min(int(sizes.sum()), len(a.nums)) >= _LIMIT:
        return None
    for blk in blocks:
        blk.nums *= den // blk.den
    b = ctx.operand(np.concatenate([_dense(blk, ctx) for blk in blocks]),
                    np.concatenate([blk.nums for blk in blocks]), left=False)
    pairs = int(ends.max(initial=0))
    step = _step(pairs)
    acc = _Accumulator(ctx.words, step,
                       _buckets(pairs if counted is None else counted))
    for keys, vals in _pairs(a, b, ends, shift, step):
        acc.add(keys, vals)
    del a, b, ends, shift
    return Packed(*acc.result(), x.den * den, ctx)


def _step(pairs: int) -> int:
    """Pairs per vectorised step for a call of `pairs` pairs."""
    return min(STEP_MAX, max(STEP_MIN, pairs // STEPS))


def _buckets(pairs: int) -> int:
    """Accumulator buckets for a call of `pairs` pairs."""
    return BUCKETS if pairs >= PARTITION_PAIRS else 1


def _unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array.  (`np.unique` imports
    `numpy.ma` on its first call, ~2 MiB of RSS and ~0.1 s.)"""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


class _Flat:
    """The terms of one or more dicts as flat arrays: per-term lengths, the
    (generator, exponent) pairs in order, numerators over one denominator,
    and each term's input (`src`).  `src` is None for one input, so that a
    one-input call allocates no tags: with them, the fivebrane benchmark's
    peak RSS rose by 1-8 %, depending on where glibc placed later blocks.
    `inputs` counts the inputs a tag field keeps apart: 1 if not `tagged`."""

    __slots__ = ("inputs", "src", "lens", "gens", "exps", "nums", "den",
                 "maxnum")


def _flat(inputs: list, tagged: bool = True) -> _Flat | None:
    f = _Flat()
    f.inputs = len(inputs) if tagged else 1
    monos = list(chain.from_iterable(inputs))
    coeffs = list(chain.from_iterable(t.values() for t in inputs))
    f.den = den = lcm(*{c.denominator for c in coeffs})
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    f.maxnum = max(map(abs, nums), default=0)
    if f.maxnum >= _LIMIT:
        return None
    f.nums = np.array(nums, dtype=np.int64)
    f.src = (np.repeat(np.arange(len(inputs)), [len(t) for t in inputs])
             if len(inputs) > 1 else None)
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
    e = np.zeros((len(f.lens), len(ctx.cols)), dtype=np.int8)
    rows = np.repeat(np.arange(len(f.lens)), f.lens)
    e[rows, np.searchsorted(ctx.cols, f.gens)] = f.exps
    return e


def _bitmask(bits: np.ndarray) -> np.ndarray:
    """Rows of nonzero / zero entries as little-endian uint64 bit masks,
    word-major: entry [w, i] is word w of row i."""
    packed = np.packbits(bits.astype(bool), axis=1, bitorder="little")
    out = np.zeros((len(bits), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return np.ascontiguousarray(out.view(np.uint64).T)


def _suffix_parity(words: np.ndarray) -> np.ndarray:
    """The bit masks of `_bitmask`, in place, with each bit replaced by the
    parity of the set bits strictly to its right in its row: an XOR scan
    within each word, plus the parity of the later words.  Scanned one
    word at a time, last first, with one word-sized temporary.  Returns
    `words`."""
    tmp = np.empty(words.shape[1:], np.uint64)
    # all ones in a row whose words after the current one have odd parity;
    # a row of one word has none
    later = np.zeros_like(tmp) if len(words) > 1 else None
    for word in words[::-1]:
        for s in (1, 2, 4, 8, 16, 32):
            word ^= np.right_shift(word, np.uint64(s), out=tmp)
        # bit j is now the parity of bits j..63 of the word, so bit 0 is
        # the word's parity
        np.bitwise_and(word, np.uint64(1), out=tmp)
        word >>= np.uint64(1)
        if later is not None:
            word ^= later
            tmp *= ~np.uint64(0)
            later ^= tmp
    return words


class _Operand:
    """One side of a product: numerators, packed keys, and the sign and
    square-zero bit masks that `_Context.operand` describes."""

    __slots__ = ("nums", "keys", "sign", "occ")


class _Context:
    """Column layout, key packing and decoding for one operation of
    `inputs` inputs; several inputs add a tag field after the columns."""

    def __init__(self, sig, cols: np.ndarray, colmax: np.ndarray,
                 inputs: int):
        self.cols = cols
        self.gen_ids = cols.tolist()
        self.inputs = inputs
        self.odd = np.array([sig.odd_bits[g] for g in self.gen_ids], np.int8)
        self.par = np.array([sig.parities[g] for g in self.gen_ids], np.int8)
        self.sqz = np.array([sig.sqz[g] for g in self.gen_ids], np.int8)
        # greedy packing: a field never straddles two 64-bit words
        widths = [max(1, int(m).bit_length()) for m in colmax]
        if inputs > 1:
            widths.append((inputs - 1).bit_length())
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

    def field(self, keys: np.ndarray, c: int) -> np.ndarray:
        """Field c of packed keys: column c, or the tag when c is the
        number of columns."""
        return ((keys[:, self.word[c]] >> np.uint64(self.shift[c]))
                & np.uint64(self.mask[c]))

    def pack(self, e: np.ndarray, tag: np.ndarray | None) -> np.ndarray:
        keys = np.zeros((len(e), self.words), dtype=np.uint64)
        for c in range(e.shape[1]):
            keys[:, self.word[c]] |= (e[:, c].astype(np.uint64)
                                      << np.uint64(self.shift[c]))
        if tag is not None:
            n = len(self.gen_ids)
            keys[:, self.word[n]] |= (tag.astype(np.uint64)
                                      << np.uint64(self.shift[n]))
        return keys

    def operand(self, e: np.ndarray, nums: np.ndarray, left: bool,
                tag: np.ndarray | None = None) -> _Operand:
        """One side of the pair kernel, with its bit masks as uint64 words
        (`_bitmask`), bit c for column c: sign bits and square-zero
        occupancy.  Keys carry `tag`, each row's input, if given.

        Sign bits are a row's odd-degree bits, then its odd-parity bits,
        each kind in whole words; on the left side each is replaced by the
        parity of the bits of its kind strictly to its right
        (`_suffix_parity`).  The Koszul sign of a pair is the parity of
        popcount(left & right), and the pair vanishes when the occupancies
        meet.
        """
        sign = [_bitmask(e & self.odd), _bitmask(e & self.par)]
        if left:
            sign = [_suffix_parity(s) for s in sign]
        op = _Operand()
        op.nums = nums
        op.keys = self.pack(e, tag)
        op.sign = np.concatenate(sign)
        op.occ = _bitmask(e & self.sqz)
        return op

    def find(self, keys: np.ndarray, monos: list) -> np.ndarray:
        """Whether each canonical monomial of `monos`, packed in this
        layout, is the monomial of a row of `keys`, whatever its tag.  A
        monomial that does not fit the layout, with a generator outside
        its columns or an exponent above its field, is none, and is not
        packed."""
        if not len(keys):
            return np.zeros(len(monos), dtype=bool)
        n = len(self.gen_ids)
        if self.inputs > 1:
            keys = keys.copy()
            keys[:, self.word[n]] &= ~np.uint64(self.mask[n] << self.shift[n])
        lens = np.fromiter(map(len, monos), np.int64, len(monos))
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(monos)),
                           np.int64, 2 * int(lens.sum()))
        gens, exps = flat[0::2], flat[1::2]
        term = np.repeat(np.arange(len(monos)), lens)
        cs = np.searchsorted(self.cols, gens)
        np.minimum(cs, len(self.cols) - 1, out=cs)
        fits = ((self.cols[cs] == gens)
                & (exps <= np.array(self.mask, np.int64)[cs]))
        ok = np.ones(len(monos), dtype=bool)
        ok[term[~fits]] = False
        e = np.zeros((len(monos), len(self.cols)), dtype=np.int8)
        e[term[fits], cs[fits]] = exps[fits]
        both = np.concatenate([keys, self.pack(e, None)])
        # equal keys sort rows of `keys` (flag 0) first: a run of equal keys
        # holds a row, one or more, exactly when its first member has flag 0
        flag = np.repeat(np.array([0, 1], np.int8), [len(keys), len(monos)])
        order = np.lexsort((flag, *both.T[::-1]))
        new = _run_starts(np.take(both, order, axis=0))
        has_row = flag[order][new] == 0
        hit = np.empty(len(both), dtype=bool)
        hit[order] = has_row[np.cumsum(new) - 1]
        return hit[len(keys):] & ok

    def decode(self, keys: np.ndarray, nums: np.ndarray, den: int,
               sizes: list) -> list:
        """The canonical dict entries of packed keys and numerators over
        `den`, in the keys' order: one dict per run of `sizes` consecutive
        rows (one run per input of a split call); a tag field is not
        read."""
        it = self._entries(keys, nums, den)
        return [dict(islice(it, k)) for k in sizes]

    def _entries(self, keys: np.ndarray, nums: np.ndarray, den: int):
        """Yield the (monomial, Fraction) entries of `decode`, decoding
        ROWS rows at a time."""
        if not len(nums):
            return
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
            for c in range(len(self.gen_ids)):
                e[:, c] = self.field(block, c)
            rows, cs = np.nonzero(e)
            it = map(table.__getitem__, (offset[cs] + e[rows, cs]).tolist())
            counts = np.bincount(rows, minlength=len(block)).tolist()
            monos = [tuple(islice(it, k)) for k in counts]
            inv = np.searchsorted(uniq, nums[r0:r0 + ROWS])
            yield from zip(monos, map(fracs.__getitem__, inv.tolist()))

    def same_layout(self, other: "_Context") -> bool:
        """Whether keys of this layout and of `other` pack every field in
        the same place, so that equal keys mean equal monomials."""
        return (np.array_equal(self.cols, other.cols)
                and (self.word, self.shift, self.mask)
                == (other.word, other.shift, other.mask))


class Packed:
    """A kernel result kept as arrays: packed keys, distinct and in (hash,
    key) order (`_Accumulator.result`), their nonzero int64 numerators
    over the denominator `den`, and the layout `ctx` the keys are packed
    in.  `decode` and `split` turn it into canonical dict entries in key
    order, the one place that order is paid for; `graded.Element.from_packed`
    defers that to the first read of the element's terms.  In key order,
    terms that share most of their factors are neighbours, so the next
    operation on the decoded terms sees their contributions cancel early.
    `proportional` reads two results as they are, neither decoded nor
    re-sorted, so it decides only for one layout and equal key arrays."""

    __slots__ = ("keys", "nums", "den", "ctx")

    def __init__(self, keys: np.ndarray, nums: np.ndarray, den: int,
                 ctx: _Context):
        self.keys = keys
        self.nums = nums
        self.den = den
        self.ctx = ctx

    def __len__(self) -> int:
        return len(self.nums)

    def decode(self) -> dict:
        """The canonical dict of this result, in key order."""
        order = np.lexsort(self.keys.T[::-1])
        return self.ctx.decode(np.take(self.keys, order, axis=0),
                               self.nums[order], self.den, [len(self)])[0]

    def split(self) -> list:
        """Per input of the call, its result: one canonical dict per input
        (`{}` where its result is 0), each in key order.  A shared call is
        decoded at once, in one pass over its rows sorted by tag, then by
        key (one lexsort): decoding the inputs one by one paid the
        decoder's set-up once per input, about 77 us, 0.38-0.46 s for a
        6,000-input call whose core took 0.045 s."""
        ctx = self.ctx
        if ctx.inputs < 2:
            # no tag field: a call of one input, or of none
            return [self.decode()][:ctx.inputs]
        tags = ctx.field(self.keys, len(ctx.gen_ids)).astype(np.int64)
        order = np.lexsort((*self.keys.T[::-1], tags))
        return ctx.decode(np.take(self.keys, order, axis=0), self.nums[order],
                          self.den, np.bincount(tags, minlength=ctx.inputs)
                          .tolist())


def proportional(lhs: Packed, rhs: Packed) -> Fraction | None:
    """The c with lhs = c * rhs, decided on the arrays, or None when they
    do not show it: a side is empty, the sides differ in layout or in key
    arrays, the numerators are not proportional, or a cross product of
    numerators could reach 2**63.

    Both sides must come from one signature.  With one layout and equal
    key arrays, as d mu7 and mu4^2 have, lhs = c * rhs holds exactly when
    nums_l[i] * nums_r[0] == nums_r[i] * nums_l[0] for every i, with
    c = nums_l[0] * den_r / (nums_r[0] * den_l).  Equal key sets in other
    layouts or row orders answer None too; the caller then compares the
    terms."""
    if (not len(lhs) or not lhs.ctx.same_layout(rhs.ctx)
            or not np.array_equal(lhs.keys, rhs.keys)):
        return None
    nl, nr = lhs.nums, rhs.nums
    if int(np.abs(nl).max()) * int(np.abs(nr).max()) >= 1 << 63:
        return None
    if not np.array_equal(nl * nr[0], nr * nl[0]):
        return None
    return Fraction(int(nl[0]) * rhs.den, int(nr[0]) * lhs.den)


def _pairs(a: _Operand, b: _Operand, ends: np.ndarray, shift: np.ndarray,
           step: int):
    """Yield (keys, values) of the non-vanishing signed products of the
    pairs p of a and b, `step` at a time and in order: pair p belongs to
    the first row i of a with p < ends[i], and to row p + shift[i] of b.
    A step [p0, p1) takes each row's index as many times as it has pairs
    there, min(ends[i], p1) - max(ends[i - 1], p0) (`np.repeat`)."""
    total = int(ends.max(initial=0))
    for p0 in range(0, total, step):
        p1 = min(p0 + step, total)
        # rows lo..hi-1 have pairs in the step: row hi-1 is the first whose
        # pairs reach p1, and ends[lo - 1] <= p0 < ends[lo]
        lo = int(np.searchsorted(ends, p0, "right"))
        hi = int(np.searchsorted(ends, p1, "left")) + 1
        ia = np.repeat(np.arange(lo, hi),
                       np.diff(np.minimum(ends[lo:hi], p1), prepend=p0))
        ib = np.arange(p0, p1) + shift[ia]
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
        keys = np.take(a.keys, ia, axis=0)
        keys += np.take(b.keys, ib, axis=0)
        yield keys, vals


def _hash(keys: np.ndarray) -> np.ndarray:
    """One uint64 word per row of packed keys: its words, each XORed into
    the running word and multiplied by `_HASH_MUL`.  For one word that is
    a bijection, so its keys never collide; the multiply carries every
    bit into the top ones, which pick a key's bucket."""
    hashed = keys[:, 0] * _HASH_MUL
    for w in range(1, keys.shape[1]):
        hashed ^= keys[:, w]
        hashed *= _HASH_MUL
    return hashed


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """True where a row of packed keys differs from the row before it (and
    at the first row), compared one word at a time."""
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:, 0], keys[:-1, 0], out=new[1:])
    for w in range(1, keys.shape[1]):
        new[1:] |= keys[1:, w] != keys[:-1, w]
    return new


class _Bucket:
    """Merged (packed keys, int64 values), distinct keys with nonzero sums
    in (hash, key) order, and the batches waiting for the next merge.

    Batches wait until they outnumber the merged entries (and `floor`), so
    each entry is re-merged a bounded number of times."""

    __slots__ = ("keys", "vals", "pending", "size", "floor")

    def __init__(self, words: int, floor: int):
        self.floor = floor
        self.keys = np.zeros((0, words), dtype=np.uint64)
        self.vals = np.zeros(0, dtype=np.int64)
        self.pending: list = []
        self.size = 0

    def add(self, keys: np.ndarray, vals: np.ndarray):
        self.pending.append((keys, vals))
        self.size += len(vals)
        if self.size >= max(self.floor, len(self.vals)):
            self.merge()

    def merge(self):
        keys = np.concatenate([self.keys] + [k for k, _ in self.pending])
        vals = np.concatenate([self.vals] + [v for _, v in self.pending])
        # only the concatenation stays alive while it is sorted
        self.keys = self.vals = None
        self.pending = []
        self.size = 0
        # one sort, by one uint64 word, `_hash`.  Unless two different keys
        # share a hash, equal keys are then exactly the runs of equal
        # hashes; if some do, a lexsort orders the rows by hash, then by
        # key, so that the order depends on the keys alone.  The hashes are
        # taken again on the sorted rows, one sequential pass, rather than
        # kept alive through the sort and gathered.
        order = np.argsort(_hash(keys))
        keys = np.take(keys, order, axis=0)
        vals = vals[order]
        del order
        hashed = _hash(keys)
        new = _run_starts(keys)
        if (np.count_nonzero(hashed[1:] != hashed[:-1])
                < np.count_nonzero(new[1:])):
            fix = np.lexsort((*keys.T[::-1], hashed))
            keys = np.take(keys, fix, axis=0)
            vals = vals[fix]
            new = _run_starts(keys)
        del hashed
        starts = np.flatnonzero(new)
        sums = np.add.reduceat(vals, starts) if len(starts) else vals[:0]
        keep = sums != 0
        self.keys = np.take(keys, starts[keep], axis=0)
        self.vals = sums[keep]


class _Accumulator:
    """Merges (packed keys, int64 values) batches, dropping zero sums, in
    `buckets` buckets, a power of two up to 256, each merging alone.

    A row goes to the bucket numbered by the top bits of its hash, so the
    buckets in turn list their keys in (hash, key) order, whatever their
    number.  One bucket takes each batch as it comes; several split it by
    one stable argsort of its rows' uint8 bucket numbers (a radix sort) and
    one `np.take`, and each bucket waits on views of its part."""

    def __init__(self, words: int, step: int, buckets: int):
        floor = max(1, 2 * step // buckets)
        self.buckets = [_Bucket(words, floor) for _ in range(buckets)]
        self.shift = np.uint64(64 - buckets.bit_length() + 1)

    def add(self, keys: np.ndarray, vals: np.ndarray):
        if len(self.buckets) == 1:
            self.buckets[0].add(keys, vals)
            return
        ids = (_hash(keys) >> self.shift).astype(np.uint8)
        order = np.argsort(ids, kind="stable")
        ends = np.cumsum(np.bincount(ids, minlength=len(self.buckets)))
        del ids
        keys = np.take(keys, order, axis=0)
        vals = vals[order]
        del order
        lo = 0
        for bucket, hi in zip(self.buckets, ends.tolist()):
            if hi > lo:
                bucket.add(keys[lo:hi], vals[lo:hi])
            lo = hi

    def result(self):
        """The merged (keys, values): distinct keys, nonzero values, in
        (hash, key) order, whichever batches and buckets they came in.  Key
        order is set where it is read, by `Packed.decode` and
        `Packed.split`."""
        for bucket in self.buckets:
            if bucket.pending:
                bucket.merge()
        if len(self.buckets) == 1:
            return self.buckets[0].keys, self.buckets[0].vals
        return (np.concatenate([b.keys for b in self.buckets]),
                np.concatenate([b.vals for b in self.buckets]))

"""Pair sectors: the dense blocks of every operator that conserves the pair differences.

Mode i conserves d_i = n(k_i up) - n(-k_i dn) under H_M and under
K = i G_B, so both, and exp(K), are block diagonal over the 3^M sectors
labelled by the d-vector (Anderson's pseudospin picture, Phys. Rev. 112,
1900, 1958), and a ladder maps each sector to exactly one other.
`PairSectors` labels the sectors of one mode table from the occupation bits
alone and runs the dense routes over their blocks, reading each `XorOp`
from its `entries`: the diagonal blocks of an operator (the H_M spectra),
exp(K) block by block from one batched `np.linalg.eigh` per block size, a
column of exp(K), and the infinity norm of E^T A E - Y or E A E^T - Y over
every sector pair where A or Y stores an entry.  No scipy module is
imported.
"""

from __future__ import annotations

import numpy as np

from .fock import SELFADJOINT_TOL, check_index_width, op_norm_inf
from .model import ModeTable

# a run of blocks through one batched eigendecomposition or product holds at
# most this many entries per array, so the transients of a sector route stay
# near 1 MiB at any M instead of growing with a whole size class
SECTOR_CHUNK = 1 << 14


class PairSectors:
    """The 3^M pair sectors of one mode table, and the dense routes over their blocks.

    A sector with z modes at d_i = 0 holds 2^z states.  Sectors are numbered
    by size class z, then by label, and the states of a sector are ordered
    by index: `sector` and `pos` give each state's sector and its place
    there, `order` lists the states sector by sector, and sector s starts at
    order[offset[s]].  `z`, `first` and `count` give each sector's class and
    each class's first sector and number of sectors.
    """

    def __init__(self, mt: ModeTable):
        m = mt.n_modes
        check_index_width(mt.dim)
        idx = np.arange(mt.dim, dtype=np.int64)
        label = np.zeros(mt.dim, dtype=np.int64)
        zeros = np.zeros(mt.dim, dtype=np.int64)
        for i in range(m):
            d = ((idx >> mt.orb_up(i)) & 1) - ((idx >> mt.orb_dn(mt.pair[i])) & 1)
            label = 3 * label + d + 1
            zeros += d == 0
        self.mt = mt
        order = np.lexsort((label, zeros))
        n_class = np.bincount(zeros, minlength=m + 1)
        start = np.cumsum(n_class) - n_class  # first place in `order` of each class
        self.count = n_class >> np.arange(m + 1)  # sectors per class
        self.first = np.cumsum(self.count) - self.count  # first sector of each class
        self.z = np.repeat(np.arange(m + 1), self.count)  # class of each sector
        rank = np.empty_like(idx)
        rank[order] = idx
        within = rank - start[zeros]
        # held per state for the whole pass, so at the width of the ladders' indices
        self.order = order.astype(np.int32)
        self.sector = (self.first[zeros] + (within >> zeros)).astype(np.int32)
        self.pos = (within & ((1 << zeros) - 1)).astype(np.int32)
        local = np.arange(len(self.z)) - self.first[self.z]  # place of each sector in its class
        self.offset = start[self.z] + (local << self.z)
        # the blocks of every sector, class by class, as one flat array: class z
        # fills [bounds[z], bounds[z + 1]) and sector s starts at base[s]
        self.bounds = np.concatenate(([0], np.cumsum(self.count << 2 * np.arange(m + 1))))
        self.base = self.bounds[self.z] + (local << 2 * self.z)

    def blocks(self, op) -> tuple:
        """(diagonal sector blocks of `op`, largest |entry| of `op` coupling two sectors).

        The blocks come as one (sectors, 2^z, 2^z) array per size class z, each
        a view of one flat array that holds them class by class: 6^M entries.
        """
        row, col, val = op.entries()
        s = self.sector[row]
        inside = s == self.sector[col]
        leak = float(np.max(np.abs(val[~inside]), initial=0.0))
        # an entry coupling two sectors lands in one spare slot past the blocks
        flat = np.where(inside, self.base[s] + (self.pos[row] << self.z[s]) + self.pos[col], self.bounds[-1])
        buf = np.zeros(self.bounds[-1] + 1, dtype=val.dtype)
        buf[flat] = val
        classes = enumerate(zip(self.bounds[:-1], self.bounds[1:]))
        return [buf[lo:hi].reshape(-1, 1 << z, 1 << z) for z, (lo, hi) in classes], leak

    def exponential(self, k) -> tuple:
        """(exp(K) as its sector blocks, largest |entry| of K coupling two sectors) for a real K = -K*.

        Each block A of K is exponentiated exactly from one eigendecomposition
        of the symmetric A^T A = -A^2 = W mu^2 W^T: the even and odd powers of A
        sum to exp(A) = W cos(mu) W^T + A W sinc(mu) W^T, and exp(-K) is the
        transpose.  Every block of a class runs through one batched
        `np.linalg.eigh` per SECTOR_CHUNK entries, written over K's blocks.
        Entries of K that couple two sectors have no place in a block; the
        caller counts the leak in every deviation that reads the blocks.
        """
        if np.iscomplexobj(k) or op_norm_inf(k + k.adjoint()) > SELFADJOINT_TOL:
            raise ValueError("K must be real and anti-selfadjoint for exp(K)")
        out, leak = self.blocks(k)
        for a in out:
            step = max(1, SECTOR_CHUNK // a[0].size)
            for lo in range(0, len(a), step):
                x = a[lo : lo + step]
                mu2, w = np.linalg.eigh(x.transpose(0, 2, 1) @ x)
                mu = np.sqrt(np.maximum(mu2, 0.0))[:, None, :]
                wt = w.transpose(0, 2, 1)
                x[...] = (w * np.cos(mu)) @ wt + x @ ((w * np.sinc(mu / np.pi)) @ wt)
        return out, leak

    def column(self, expk: list, j: int) -> np.ndarray:
        """exp(K) applied to basis state j, read from the column of its sector block."""
        s = self.sector[j]
        z = self.z[s]
        out = np.zeros(self.mt.dim)
        out[self.order[self.offset[s] : self.offset[s] + (1 << z)]] = expk[z][s - self.first[z], :, self.pos[j]]
        return out

    def conjugation_deviation(self, expk: list, op, closed, inverse: bool = False) -> float:
        """op_norm_inf(E^T A E - Y), or of E A E^T if `inverse`, for E = exp(K) as `expk`, A `op`, Y `closed`.

        E is block diagonal, so the rotated A holds one dense block
        E_s^T A_st E_t for each sector pair (s, t) where A stores an entry.
        Every pair where A or Y stores one is formed, pairs that couple two
        sectors included, and the absolute row sums of the differences are
        added over all of them: the result is the norm of the whole
        difference.  The pairs of one block shape run through batched
        products, SECTOR_CHUNK entries at a time.
        """
        n_sec = len(self.z)
        parts = []
        for x in (op, closed):
            row, col, val = x.entries()
            s, t = self.sector[row], self.sector[col]
            # grouped by the class of t, then by s, whose numbering follows its class
            key = (self.z[t] * n_sec + s) * n_sec + t
            ranked = np.argsort(key, kind="stable")
            parts.append((key[ranked], self.pos[row[ranked]], self.pos[col[ranked]], val[ranked]))
        pairs = np.union1d(parts[0][0], parts[1][0])
        s, t = pairs // n_sec % n_sec, pairs % n_sec
        shape = self.z[s] * len(self.count) + self.z[t]
        sums = np.zeros(self.mt.dim)
        runs = np.flatnonzero(np.diff(shape, prepend=-1, append=-1))
        for lo, hi in zip(runs[:-1], runs[1:]):
            zs, zt = self.z[s[lo]], self.z[t[lo]]
            step = max(1, SECTOR_CHUNK >> (zs + max(zs, zt)))
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                left = expk[zs][s[a:b] - self.first[zs]]
                right = expk[zt][t[a:b] - self.first[zt]]
                if inverse:
                    right = right.transpose(0, 2, 1)
                else:
                    left = left.transpose(0, 2, 1)
                blocks = []
                for key, r, c, v in parts:
                    i, j = np.searchsorted(key, pairs[a]), np.searchsorted(key, pairs[b - 1], side="right")
                    x = np.zeros((b - a, 1 << zs, 1 << zt), dtype=v.dtype)
                    x[np.searchsorted(pairs[a:b], key[i:j]), r[i:j], c[i:j]] = v[i:j]
                    blocks.append(x)
                diff = np.abs(left @ blocks[0] @ right - blocks[1]).sum(axis=2)
                np.add.at(sums, self.offset[s[a:b]][:, None] + np.arange(1 << zs), diff)
        return float(sums.max(initial=0.0))

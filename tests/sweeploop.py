"""The node-by-node Gibbs sweep, kept as the byte oracle of ``mcem._Sampler.chain``.

``chain`` is ``_Sampler.start`` and ``_Sampler.chain`` as they were before
the chain screened runs of visits in NumPy: every sweep draws its 2n
uniforms, and every visit is decided in a Python loop from a count table
of Python lists.  It reads the graphon's move tables from
``_Sampler._graphon_tables`` and nothing else of the sampler, and builds
its neighbour lists from ``Network.to_dense``, not from the CSR rows.
Differential tests require the same positions, intervals, occupancies,
visit counts and count table from both, byte for byte.
"""

import math

import numpy as np

from blockmix.mcem import _Sampler
from blockmix.models import _cell_sums


def left_fold(a, b) -> float:
    """0.0 + a[0] b[0] + a[1] b[1] + ..., added left to right.

    The builtin ``sum`` compensates float sums from Python 3.12 on, so it
    would give other doubles there.
    """
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


class SweepLoop:
    def __init__(self, net, g):
        # the neighbours from the dense matrix: directed, a pair joined both
        # ways is one neighbour of weight y_ij + y_ji
        y = net.to_dense()
        if net.directed:
            y = y + y.T
        self.n, self.pair_factor = net.n_nodes, 2.0 if net.directed else 1.0
        self.src, self.dst = np.nonzero(y)
        self.w = y[self.src, self.dst].astype(np.float64)
        self.nbr_lists = [np.flatnonzero(row).tolist() for row in y]
        self.wt_lists = [row[row != 0].astype(np.float64).tolist() for row in y]
        self.__dict__.update(_Sampler._graphon_tables(g))

    def start(self, u):
        z = self.tau.searchsorted(u, side="right") - 1
        cnt = _cell_sums(self.src, z[self.dst], self.w, (self.n, self.K)).tolist()
        return z, np.bincount(z, minlength=self.K), cnt

    def _occ_term(self, occ, kc, d_lq, d_stay):
        return self.pair_factor * (left_fold(occ, d_lq) - d_lq[kc]) + d_stay

    def sweep(self, u, z, occ, cnt, rng):
        n, K = self.n, self.K
        draws = rng.random(2 * n)
        x, coins = draws[0::2], draws[1::2]
        todo = range(n)
        if self.any_full:
            free = self.support[z] <= 1e-15
            u[free] = x[free]
            todo = np.flatnonzero(~free).tolist()
            if not todo:
                return
        lens = self.lens[z]
        xs = x * self.support[z]
        u_star = np.where(xs < self.tau[z], xs, xs + lens)
        kss = (self.tau.searchsorted(u_star, side="right") - 1).tolist()
        kcs, coins, occ_l, u_star = z.tolist(), coins.tolist(), occ.tolist(), u_star.tolist()
        moves = self.moves
        occ_terms = {}
        accepted = False
        for j in todo:
            kc, k, coin = kcs[j], kss[j], coins[j]
            d_pq, d_lq, d_stay = moves[kc][k]
            occ_term = occ_terms.get(key := kc * K + k)
            if occ_term is None:
                occ_terms[key] = occ_term = self._occ_term(occ_l, kc, d_lq, d_stay)
            log_r = left_fold(cnt[j], d_pq) + occ_term
            if log_r >= 0 or coin < math.exp(log_r):
                occ_l[kc] -= 1
                occ_l[k] += 1
                z[j] = k
                for i, w in zip(self.nbr_lists[j], self.wt_lists[j]):
                    row = cnt[i]
                    row[kc] -= w
                    row[k] += w
                u[j] = u_star[j]
                occ_terms.clear()
                accepted = True
        if accepted:
            occ[:] = occ_l

    def chain(self, u, rng, sweeps, n_burn, thinning):
        """(z, occ, visit counts, count table) after ``sweeps`` sweeps from positions u, which it updates."""
        z, occ, cnt = self.start(u)
        counts = np.zeros((self.n, self.K))
        ar = np.arange(self.n)
        for t in range(sweeps):
            self.sweep(u, z, occ, cnt, rng)
            if t >= n_burn and (t - n_burn + 1) % thinning == 0:
                counts[ar, z] += 1
        if not counts.any():
            counts[ar, z] += 1
        return z, occ, counts, np.array(cnt)

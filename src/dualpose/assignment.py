"""Minimum-cost rectangular assignment (linear sum assignment).

An exact port of the shortest-augmenting-path solver of D. F. Crouse, "On
implementing 2D rectangular assignment algorithms", IEEE Transactions on
Aerospace and Electronic Systems 52(4), 2016, in the form that
``scipy.optimize.linear_sum_assignment`` implements.  Each reduced cost,
comparison and dual step is evaluated as scipy evaluates it, so both return
the same pairs, ties included.  Pose sets hold a few to a dozen persons: at that size a scan
of Python lists costs less per step than a numpy call, and importing
``scipy.optimize`` would cost every process far more than the solves.
"""
from __future__ import annotations

import math

import numpy as np


def linear_sum_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of a minimum-total-cost one-to-one pairing of a 2-D matrix.

    Pairs min(n, m) rows with columns, rows in ascending order; an empty
    matrix gives two empty ``intp`` arrays.  ``+inf`` entries mark forbidden
    pairs.  Raises ValueError for input that is not 2-D, for NaN or -inf
    entries, and when no pairing avoids every ``+inf`` entry.  Ties go to a
    deterministic pairing, the one scipy's solver returns; on a constant
    matrix that is the identity.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"expected a matrix (2-D array), got a {c.shape!r} array")
    # A tall matrix is solved as its transpose, so every row gets a column.
    transpose = c.shape[1] < c.shape[0]
    if transpose:
        c = c.T
    nr, nc = c.shape
    if nr == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    if not c.min() > -math.inf:  # false for NaN too
        raise ValueError("matrix contains invalid numeric entries")

    costs = c.tolist()
    inf = math.inf
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    descending = list(range(nc - 1, -1, -1))
    for cur_row in range(nr):
        # Shortest augmenting path from cur_row to an unassigned column.
        spc = [inf] * nc  # shortest path cost to each column
        # Descending order makes a constant matrix pair as the identity.
        remaining = descending[:]
        visited = []  # the path's columns that a row holds
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            row = costs[i]
            ui = u[i]
            lowest = inf
            best = -1
            for j in remaining:
                r = min_val + row[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                else:
                    r = spc[j]
                # On a tie prefer a column that ends the path.
                if r < lowest or (r == lowest and row4col[j] == -1):
                    lowest = r
                    best = j
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            if row4col[best] == -1:
                sink = best
            else:
                # Swap in the last entry, as scipy does: the scan order
                # decides ties.
                index = remaining.index(best)
                remaining[index] = remaining[-1]
                remaining.pop()
                visited.append(best)
                i = row4col[best]

        # Dual updates.  The rows scanned are cur_row and the holders of the
        # visited columns; the sink's step, min_val - spc[sink], is 0.
        u[cur_row] += min_val
        for j in visited:
            step = min_val - spc[j]
            v[j] -= step
            u[row4col[j]] += step

        # Flip the path's assignments.
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return (np.array([col4row[k] for k in order], dtype=np.intp),
                np.array(order, dtype=np.intp))
    return np.arange(nr, dtype=np.intp), np.array(col4row, dtype=np.intp)

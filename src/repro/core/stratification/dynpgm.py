"""DynPgm: dynamic-programming stratification for Neyman allocation.

The Neyman-allocation objective (eq. 5) is not separable across strata
because of the cross term ``Σ_h N_h s_h Σ_{h'<h} N_h' s_h'``.  Following
Section 4.2.1, the algorithm guesses a bound ``t`` on the auxiliary sum
``Σ N_h s_h`` from a geometric grid, runs a dynamic program over the
candidate boundary grid under the constraint ``N_h s_h ≤ t`` for every
stratum, and keeps the best reconstructed design across all guesses
(Theorem 3 bounds the resulting approximation factor).

:func:`dynpgm_design` solves exactly that DP with less work per guess:

* The stratum matrices are end-major: entry ``[i, j]`` is the stratum
  ``[cuts[j], cuts[i])``, so every per-level ``argmin`` over the parent
  ``j`` runs along a contiguous row.  ``s²`` depends on a cut pair only
  through its two pilot ranks, so it is computed once on the ``(m+1)²``
  rank table and gathered.
* The strata that meet ``N_⊔`` and ``m_⊔`` and end at cut ``i`` are those
  starting at ``j < limits[i]``, a prefix of the lower triangle; nothing
  beyond it is built.
* Guesses admitting the same number of feasible strata admit the *same*
  strata (the ``N_h s_h ≤ t`` masks grow with ``t``) and are solved once.
  A stratum a guess does not admit costs ``inf``; the mask is applied
  block by block where the DP reads it, with no per-guess matrix.
* Level 1 only extends the empty prefix (one column) and level ``H`` only
  the final cut (one row).  The levels between run in row blocks over the
  rows that can still reach the final cut within the strata left; the
  reachability is cumulative, so a design with fewer strata still finds
  its parents.

Every DP value is computed with the same float operations in the same order
as the full-square DP.  The states it skips have value ``inf`` or lie on no
path to the final cut, and ``argmin`` returns the first minimum either
way, so the designs are byte-identical.  The original per-guess
implementation is retained as :func:`dynpgm_design_reference`, the
equivalence oracle of the tests.

The two heavy phases run on the usable cores (affinity-aware), on a
``ThreadPoolExecutor`` created inside each :func:`dynpgm_design` call; numpy
releases the GIL in their ufunc, ``take`` and ``argmin`` loops.  The
statistics row blocks are dealt to one task per thread, and each distinct
guess's DP is one task.  With one usable core, or one task, the builtin
``map`` runs the same task functions in the calling thread.  The threads
never change the design:

* a statistics task writes only its own blocks' rows, and its admitted
  counts are integers summed after the map;
* every task allocates its own scratch and DP buffers;
* the DP results come back in bound order, and the cuts, the designs and
  the strict-``<`` pick of the best one are computed on the calling thread,
  as in a serial loop over the guesses.

The pool is shut down (its threads joined) before the call returns, so no
thread outlives a design and a process forked between designs inherits
none.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from repro import obs
from repro.core.stratification.design import (
    InfeasibleDesignError,
    PilotSample,
    StratificationDesign,
    bernoulli_variance_estimate,
    candidate_boundary_cuts,
    default_minimum_stratum_size,
    design_from_cuts,
)
from repro.core.stratification.dynpgm_prop import _reconstruct_cuts

#: Rows per block of the statistics build and the DP levels.  At C ≈ 2,000
#: candidates a block buffer is about 2 MB, the L2 cache of one core; with
#: 512-row blocks a sweep-lss design took about 1.3× as long (2-vCPU Xeon).
_ROW_BLOCK = 128


def _usable_cores() -> int:
    """Cores this process may run on, affinity-aware like ``available_workers``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _auxiliary_sum_grid(population_size: int, num_strata: int, ratio: float) -> np.ndarray:
    """Geometric grid of guesses for the auxiliary sum ``Σ N_h s_h``.

    The auxiliary sum is at most ``H · N / 2`` because the standard deviation
    of 0/1 labels never exceeds one half; the grid spans ``[1, H·N]`` in
    powers of ``1 + ratio``.
    """
    upper = max(num_strata * population_size, 2)
    count = int(np.ceil(np.log(upper) / np.log(1.0 + ratio))) + 1
    return (1.0 + ratio) ** np.arange(count + 1)


def _validate_arguments(num_strata: int, second_stage_samples: int, grid_ratio: float) -> None:
    if num_strata <= 0:
        raise ValueError("num_strata must be positive")
    if second_stage_samples <= 0:
        raise ValueError("second_stage_samples must be positive")
    if grid_ratio <= 0:
        raise ValueError("grid_ratio must be positive")


_NO_FEASIBLE_STRATIFICATION = (
    "no feasible stratification satisfies the minimum-size constraints; "
    "reduce num_strata or the minimums"
)


def _candidate_statistics(
    pilot: PilotSample,
    second_stage_samples: int,
    min_stratum_size: int,
    min_pilot_per_stratum: int,
    include_backward: bool,
    max_candidates: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Column-major full-square stratum matrices of :func:`dynpgm_design_reference`.

    Returns the candidate cuts plus the (weight, cost, feasibility) matrices,
    entry ``[j, i]`` describing the stratum ``[cuts[j], cuts[i])``.
    """
    cuts = candidate_boundary_cuts(pilot, include_backward, max_candidates)
    num_cuts = cuts.size
    ranks = pilot.ranks_at(cuts)
    gamma_at = pilot.gamma[ranks]
    sizes = (cuts[None, :] - cuts[:, None]).astype(np.float64)
    pilot_counts = ranks[None, :] - ranks[:, None]
    positives = gamma_at[None, :] - gamma_at[:, None]
    variances = bernoulli_variance_estimate(positives, pilot_counts)
    deviations = np.sqrt(variances)

    weighted = sizes * deviations  # N_h s_h for every candidate stratum
    n = float(second_stage_samples)
    base_cost = weighted**2 / n - sizes * variances
    feasible = (
        (sizes >= min_stratum_size)
        & (pilot_counts >= min_pilot_per_stratum)
        & np.triu(np.ones((num_cuts, num_cuts), dtype=bool), k=1)
    )
    return cuts, weighted, base_cost, feasible


def _row_blocks(num_rows: int):
    """Consecutive ``[r0, r1)`` row ranges of at most ``_ROW_BLOCK`` rows."""
    for r0 in range(0, num_rows, _ROW_BLOCK):
        yield r0, min(r0 + _ROW_BLOCK, num_rows)


def _live_blocks(live: np.ndarray):
    """Row blocks of :func:`_row_blocks`, each trimmed to its live rows.

    A trimmed block stays inside one statistics block, so it only reads
    entries :func:`_end_major_statistics` wrote.
    """
    for r0, r1 in _row_blocks(live.size):
        rows = np.flatnonzero(live[r0:r1])
        if rows.size:
            yield r0 + int(rows[0]), r0 + int(rows[-1]) + 1


def _end_major_statistics(
    pilot: PilotSample,
    cuts: np.ndarray,
    second_stage_samples: int,
    min_stratum_size: int,
    min_pilot_per_stratum: int,
    bounds: np.ndarray,
    task_map: Callable,
    workers: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """End-major stratum matrices over the candidate cuts.

    Entry ``[i, j]`` describes the stratum ``[cuts[j], cuts[i])``.  Returns
    ``(weights, base_cost, limits, admitted)``: ``weights`` is ``N_h s_h`` on
    the feasible strata and ``inf`` on the infeasible ones; ``base_cost`` is
    ``(N_h s_h)²/n − N_h s_h²``, the bound-independent part of the eq.-5
    cost; ``limits[i]`` ends the feasible prefix ``j < limits[i]`` of row
    ``i``; ``admitted[k]`` counts the feasible strata with ``N_h s_h ≤
    bounds[k]``.  Row ``i`` is only filled up to ``limits`` of the last row
    of its :func:`_row_blocks` block; callers read inside that region.

    The row blocks are dealt round-robin to at most ``workers`` tasks run
    through ``task_map`` (the design's thread pool ``map``, or the builtin
    one); each task writes only its own blocks' rows and returns its own
    admitted counts, which are summed afterwards.
    """
    num_cuts = cuts.size
    n = float(second_stage_samples)
    ranks = pilot.ranks_at(cuts)
    # s² of every pilot-rank interval: rank_variances[b, a] is the stratum
    # holding pilot ranks [a, b).
    rank_range = np.arange(pilot.size + 1)
    rank_variances = bernoulli_variance_estimate(
        pilot.gamma[:, None] - pilot.gamma[None, :], rank_range[:, None] - rank_range[None, :]
    )
    # Sizes and pilot counts both shrink as the start cut moves right, so the
    # feasible strata ending at cut i are exactly those starting before
    # limits[i] (which is nondecreasing in i).
    limits = np.minimum(
        np.arange(num_cuts),
        np.minimum(
            np.searchsorted(cuts, cuts - min_stratum_size, side="right"),
            np.searchsorted(ranks, ranks - min_pilot_per_stratum, side="right"),
        ),
    )

    positions = cuts.astype(np.float64)
    weights = np.empty((num_cuts, num_cuts))
    base_cost = np.empty((num_cuts, num_cuts))

    def fill(blocks: list[tuple[int, int]]) -> np.ndarray:
        """Fill the rows of ``blocks``; return their admitted count per bound."""
        admitted = np.zeros(bounds.size, dtype=np.int64)
        scratch = np.empty((2, _ROW_BLOCK * num_cuts))
        mask_buffer = np.empty(_ROW_BLOCK * num_cuts, dtype=bool)
        for r0, r1 in blocks:
            width = int(limits[r1 - 1])
            shape = (r1 - r0, width)
            sizes, variances = (buffer[: shape[0] * shape[1]].reshape(shape) for buffer in scratch)
            mask = mask_buffer[: shape[0] * shape[1]].reshape(shape)
            np.subtract(positions[r0:r1, None], positions[None, :width], out=sizes)
            np.take(rank_variances[ranks[r0:r1]], ranks[:width], axis=1, out=variances)
            weighted = weights[r0:r1, :width]
            np.sqrt(variances, out=weighted)
            np.multiply(sizes, weighted, out=weighted)
            cost = base_cost[r0:r1, :width]
            np.square(weighted, out=cost)
            np.divide(cost, n, out=cost)
            np.subtract(cost, np.multiply(sizes, variances, out=variances), out=cost)
            np.copyto(weighted, np.inf, where=np.arange(width) >= limits[r0:r1, None])
            # Once a bound admits all the block's feasible strata, so do the
            # larger ones.
            feasible = int(limits[r0:r1].sum())
            for k, bound in enumerate(bounds):
                count = np.count_nonzero(np.less_equal(weighted, bound, out=mask))
                admitted[k] += count
                if count == feasible:
                    admitted[k + 1 :] += count
                    break
        return admitted

    blocks = list(_row_blocks(num_cuts))
    tasks = min(workers, len(blocks))
    admitted = sum(task_map(fill, (blocks[task::tasks] for task in range(tasks))))
    return weights, base_cost, limits, admitted


def _backward_reach(
    weights: np.ndarray, limits: np.ndarray, bound: float, depth: int
) -> list[np.ndarray]:
    """``reach[k]``: the cuts at most ``k`` admitted strata before the final cut.

    The frontier's rows are gathered ``_ROW_BLOCK`` at a time, each against
    the unreached cuts below its last row's limit, so the transient matrix
    is never larger than a DP block.
    """
    final_index = weights.shape[0] - 1
    reached = np.zeros(weights.shape[0], dtype=bool)
    reached[final_index] = True
    reach = [reached.copy()]
    frontier = np.array([final_index])
    for _ in range(depth):
        if frontier.size:
            unreached = np.flatnonzero(~reached[: limits[frontier[-1]]])
            hit = np.zeros(unreached.size, dtype=bool)
            # The frontier is ascending and limits nondecreasing, so a
            # block's last row has its widest feasible prefix.
            for r0, r1 in _row_blocks(frontier.size):
                rows = frontier[r0:r1]
                columns = unreached[: np.searchsorted(unreached, limits[rows[-1]])]
                admitted = (weights[rows[:, None], columns] <= bound) & (
                    columns < limits[rows, None]
                )
                hit[: columns.size] |= admitted.any(axis=0)
            frontier = unreached[hit]
            reached[frontier] = True
        reach.append(reached.copy())
    return reach


@np.errstate(invalid="ignore")
def _solve_dp(
    weights: np.ndarray,
    base_cost: np.ndarray,
    limits: np.ndarray,
    num_strata: int,
    n: float,
    bound: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One guess's DP: parent pointers and the final cut's value per level.

    ``value[i]`` after level ``h`` is the best eq.-5 bound of ``h`` strata
    covering ``[0, cuts[i])``; extending it by an admitted stratum ``[cuts[j],
    cuts[i])`` costs ``(value[j] + base_cost[i, j]) + ((2/n)·weights[i, j]) ·
    aux[j]``, where ``aux`` is the chosen path's ``Σ N_h s_h``, and a stratum
    the guess does not admit costs ``inf``.

    Level ``h`` only computes the cuts that can still reach the final cut
    with the ``H - h`` strata left (a path that stops early, for a design
    with fewer strata, needs fewer), over the parents ``j`` between the first
    and last finite ``value``.  So level 1 reads one column, level ``H`` one
    row, and the levels between a block-trimmed lower triangle.
    """
    num_cuts = weights.shape[0]
    final_index = num_cuts - 1
    buffers = np.empty((2, _ROW_BLOCK * num_cuts))
    parents = np.zeros((num_cuts, num_strata + 1), dtype=np.int64)
    final_values = np.full(num_strata + 1, np.inf)
    reach = _backward_reach(weights, limits, bound, num_strata - 2)

    value = np.full(num_cuts, np.inf)
    value[0] = 0.0
    aux = np.zeros(num_cuts)
    for level in range(1, num_strata + 1):
        finite = np.flatnonzero(np.isfinite(value))
        if finite.size == 0:
            break
        first, last = int(finite[0]), int(finite[-1]) + 1
        live = limits > first
        if level > 1:
            live &= reach[num_strata - level]
        next_value = np.full(num_cuts, np.inf)
        next_aux = np.zeros(num_cuts)
        for r0, r1 in _live_blocks(live):
            width = min(int(limits[r1 - 1]), last)
            shape = (r1 - r0, width - first)
            totals, cross = (buffer[: shape[0] * shape[1]].reshape(shape) for buffer in buffers)
            block_weights = weights[r0:r1, first:width]
            np.add(value[first:width], base_cost[r0:r1, first:width], out=totals)
            np.multiply(block_weights, 2.0 / n, out=cross)
            np.multiply(cross, aux[first:width], out=cross)
            np.add(totals, cross, out=totals)
            # Not admitted; an infeasible stratum's inf weight may have made
            # the cross term inf · 0 = NaN.
            np.copyto(totals, np.inf, where=block_weights > bound)
            chosen = totals.argmin(axis=1)
            block_rows = np.arange(shape[0])
            next_value[r0:r1] = totals[block_rows, chosen]
            chosen += first
            parents[r0:r1, level] = chosen
            next_aux[r0:r1] = aux[chosen] + block_weights[block_rows, chosen - first]
        value, aux = next_value, next_aux
        final_values[level] = value[final_index]
    return parents, final_values


def dynpgm_design(
    pilot: PilotSample,
    num_strata: int,
    second_stage_samples: int,
    min_stratum_size: int | None = None,
    min_pilot_per_stratum: int = 2,
    include_backward: bool = True,
    max_candidates: int | None = 4000,
    grid_ratio: float = 1.0,
) -> StratificationDesign:
    """Find a stratification minimising the Neyman-allocation variance.

    Args:
        pilot: labelled pilot sample with positions in the score ordering.
        num_strata: number of strata ``H``.
        second_stage_samples: second-stage budget ``n``.
        min_stratum_size: minimum objects per stratum (``N_⊔``).
        min_pilot_per_stratum: minimum pilot objects per stratum (``m_⊔``).
        include_backward: also generate backward power-of-two candidates.
        max_candidates: cap on the candidate boundary grid size.
        grid_ratio: ε of the auxiliary-sum grid ``(1 + ε)^i`` — smaller values
            tighten the approximation at the cost of more DP passes.

    Returns:
        The best :class:`StratificationDesign` found (its ``objective_value``
        is the exact eq.-5 objective of the reconstructed cuts, not the DP's
        internal bound).  It has fewer than ``num_strata`` strata when the
        final cut cannot be reached with ``num_strata`` admitted strata.

    Raises:
        InfeasibleDesignError: no stratification meets the minimum sizes.
    """
    _validate_arguments(num_strata, second_stage_samples, grid_ratio)
    if min_stratum_size is None:
        min_stratum_size = default_minimum_stratum_size(
            pilot.population_size, second_stage_samples, num_strata
        )

    cuts = candidate_boundary_cuts(pilot, include_backward, max_candidates)
    num_cuts = cuts.size
    final_index = num_cuts - 1
    bounds = _auxiliary_sum_grid(pilot.population_size, num_strata, grid_ratio)
    workers = _usable_cores()
    # Created per call and joined on exit: no thread outlives a design, so a
    # process forked between designs (the warm pool's workers) inherits none.
    with ThreadPoolExecutor(max_workers=workers, thread_name_prefix="dynpgm") as pool:

        def task_map(function, items):
            items = list(items)
            return (pool.map if workers > 1 and len(items) > 1 else map)(function, items)

        weights, base_cost, limits, admitted_counts = _end_major_statistics(
            pilot,
            cuts,
            second_stage_samples,
            min_stratum_size,
            min_pilot_per_stratum,
            bounds,
            task_map,
            workers,
        )

        guesses = []
        admitted_count = -1
        for bound, admitted in zip(bounds, admitted_counts):
            # The mask {weights <= bound} grows monotonically with the bound, so
            # two guesses admitting the same number of feasible strata admit the
            # *same* strata and would reconstruct the same design: solve once.
            if admitted == admitted_count:
                continue
            admitted_count = admitted
            if (weights[final_index, : limits[final_index]] <= bound).any():
                guesses.append(bound)

        solve = functools.partial(
            _solve_dp, weights, base_cost, limits, num_strata, float(second_stage_samples)
        )
        # Results arrive in bound order; designs are built and compared here,
        # on the calling thread, exactly as in a serial loop over the guesses.
        best_design: StratificationDesign | None = None
        for parents, final_values in task_map(solve, guesses):
            finite_levels = np.flatnonzero(np.isfinite(final_values))
            if finite_levels.size == 0:
                continue
            reconstructed = _reconstruct_cuts(cuts, parents, final_index, int(finite_levels[-1]))
            candidate = design_from_cuts(
                pilot, reconstructed, second_stage_samples, "neyman", algorithm="dynpgm"
            )
            if best_design is None or candidate.objective_value < best_design.objective_value:
                best_design = candidate

    if obs.enabled():
        obs.record_dynpgm_design(num_cuts, len(guesses))
    if best_design is None:
        raise InfeasibleDesignError(_NO_FEASIBLE_STRATIFICATION)
    return best_design


def dynpgm_design_reference(
    pilot: PilotSample,
    num_strata: int,
    second_stage_samples: int,
    min_stratum_size: int | None = None,
    min_pilot_per_stratum: int = 2,
    include_backward: bool = True,
    max_candidates: int | None = 4000,
    grid_ratio: float = 1.0,
) -> StratificationDesign:
    """Original per-guess DynPgm, retained as the equivalence reference.

    Re-runs the full DP for every auxiliary-sum guess with freshly allocated
    transition matrices — exactly the pre-kernel implementation.
    :func:`dynpgm_design` must return exactly the design this returns.
    """
    _validate_arguments(num_strata, second_stage_samples, grid_ratio)
    if min_stratum_size is None:
        min_stratum_size = default_minimum_stratum_size(
            pilot.population_size, second_stage_samples, num_strata
        )

    cuts, weighted, base_cost, feasible = _candidate_statistics(
        pilot,
        second_stage_samples,
        min_stratum_size,
        min_pilot_per_stratum,
        include_backward,
        max_candidates,
    )
    num_cuts = cuts.size
    n = float(second_stage_samples)

    final_index = num_cuts - 1
    best_design: StratificationDesign | None = None
    for bound in _auxiliary_sum_grid(pilot.population_size, num_strata, grid_ratio):
        allowed = feasible & (weighted <= bound)
        if not allowed[:, final_index].any():
            continue
        cost = np.where(allowed, base_cost, np.inf)
        weight_masked = np.where(allowed, weighted, 0.0)

        value = np.full((num_cuts, num_strata + 1), np.inf)
        auxiliary = np.zeros((num_cuts, num_strata + 1))
        parents = np.full((num_cuts, num_strata + 1), -1, dtype=np.int64)
        value[0, 0] = 0.0
        for level in range(1, num_strata + 1):
            previous_value = value[:, level - 1]
            previous_aux = auxiliary[:, level - 1]
            # totals[j, i]: extend the best (level-1)-strata solution ending at
            # candidate j with the stratum [cuts[j], cuts[i]).
            totals = (
                previous_value[:, None]
                + cost
                + (2.0 / n) * weight_masked * previous_aux[:, None]
            )
            value[:, level] = totals.min(axis=0)
            parents[:, level] = totals.argmin(axis=0)
            chosen = parents[:, level]
            auxiliary[:, level] = previous_aux[chosen] + weight_masked[chosen, np.arange(num_cuts)]

        chosen_level = None
        for level in range(num_strata, 0, -1):
            if np.isfinite(value[final_index, level]):
                chosen_level = level
                break
        if chosen_level is None:
            continue
        reconstructed = _reconstruct_cuts(cuts, parents, final_index, chosen_level)
        candidate = design_from_cuts(
            pilot, reconstructed, second_stage_samples, "neyman", algorithm="dynpgm"
        )
        if best_design is None or candidate.objective_value < best_design.objective_value:
            best_design = candidate

    if best_design is None:
        raise InfeasibleDesignError(_NO_FEASIBLE_STRATIFICATION)
    return best_design

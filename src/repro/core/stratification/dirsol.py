"""DirSol: (almost) exact stratification for three strata.

For ``H = 3`` the design problem reduces, for every choice of which pilot
objects delimit the strata, to minimising a bivariate quadratic in the sizes
``(N_1, N_3)`` over a small convex polygon (Appendix A of the paper).  The
quadratic part of the objective is rank one, so its minimum over the polygon
is attained on the boundary; DirSol therefore scans every feasible pilot
pair, minimises the quadratic along each polygon edge in closed form, rounds
the candidates to integer boundaries, and keeps the best design overall.

:func:`dirsol_design` runs the scan through vectorized kernels: the
per-stratum variance estimates for *every* pilot pair come from prefix-sum
arrays over Γ, infeasible pairs are masked out wholesale, and each pair's
rounded corner candidates are scored in one batched evaluation of the
Neyman objective instead of one :func:`design_from_cuts` call per corner.
The original nested-loop implementation is retained verbatim as
:func:`dirsol_design_reference`; the two produce byte-identical designs
(the vectorized scan replays the reference's enumeration order and strict
"first minimum wins" tie-breaking), which the equivalence tests assert.
"""

from __future__ import annotations

import numpy as np

from repro.core.stratification.design import (
    InfeasibleDesignError,
    PilotSample,
    StratificationDesign,
    bernoulli_variance_estimate,
    default_minimum_stratum_size,
    design_from_cuts,
)


def _clip_polygon_below_line(
    vertices: list[tuple[float, float]], limit: float
) -> list[tuple[float, float]]:
    """Clip a convex polygon to the half-plane ``x + y <= limit``."""
    if not vertices:
        return []
    clipped: list[tuple[float, float]] = []
    count = len(vertices)
    for index in range(count):
        current = vertices[index]
        following = vertices[(index + 1) % count]
        current_inside = current[0] + current[1] <= limit + 1e-9
        following_inside = following[0] + following[1] <= limit + 1e-9
        if current_inside:
            clipped.append(current)
        if current_inside != following_inside:
            # Intersection of the edge with x + y = limit.
            dx = following[0] - current[0]
            dy = following[1] - current[1]
            denominator = dx + dy
            if abs(denominator) > 1e-12:
                t = (limit - current[0] - current[1]) / denominator
                clipped.append((current[0] + t * dx, current[1] + t * dy))
    return clipped


def _edge_candidates(
    objective, start: tuple[float, float], end: tuple[float, float]
) -> list[tuple[float, float]]:
    """Candidate minimisers of a quadratic objective along one polygon edge."""
    candidates = [start, end]
    # Sample the interior minimiser of the 1-d quadratic g(t) = f(P0 + t d).
    direction = (end[0] - start[0], end[1] - start[1])
    f0 = objective(start[0], start[1])
    f1 = objective(end[0], end[1])
    midpoint = (start[0] + 0.5 * direction[0], start[1] + 0.5 * direction[1])
    fm = objective(*midpoint)
    # Fit g(t) = a t² + b t + c through t = 0, 0.5, 1.
    a = 2.0 * (f0 - 2.0 * fm + f1)
    b = -3.0 * f0 + 4.0 * fm - f1
    if a > 1e-12:
        t_star = -b / (2.0 * a)
        if 0.0 < t_star < 1.0:
            candidates.append(
                (start[0] + t_star * direction[0], start[1] + t_star * direction[1])
            )
    return candidates


def _validate_inputs(
    pilot: PilotSample, second_stage_samples: int, min_pilot_per_stratum: int
) -> None:
    if second_stage_samples <= 0:
        raise ValueError("second_stage_samples must be positive")
    if pilot.size < 3 * min_pilot_per_stratum:
        raise InfeasibleDesignError(
            f"DirSol needs at least {3 * min_pilot_per_stratum} pilot objects, got {pilot.size}"
        )


_NO_FEASIBLE_DESIGN = "no feasible three-stratum design satisfies the minimum-size constraints"


def dirsol_design(
    pilot: PilotSample,
    second_stage_samples: int,
    min_stratum_size: int | None = None,
    min_pilot_per_stratum: int = 2,
) -> StratificationDesign:
    """Exact-up-to-rounding three-stratum design under Neyman allocation.

    Args:
        pilot: labelled pilot sample with positions in the score ordering.
        second_stage_samples: second-stage budget ``n``.
        min_stratum_size: minimum objects per stratum (``N_⊔``).
        min_pilot_per_stratum: minimum pilot objects per stratum (``m_⊔``).
    """
    _validate_inputs(pilot, second_stage_samples, min_pilot_per_stratum)
    num_strata = 3
    if min_stratum_size is None:
        min_stratum_size = default_minimum_stratum_size(
            pilot.population_size, second_stage_samples, num_strata
        )
    m = pilot.size
    population = pilot.population_size
    positions = pilot.positions
    gamma = pilot.gamma
    n = float(second_stage_samples)
    size_limit = population - min_stratum_size

    # -- vectorized pair statistics -------------------------------------------
    # first_indices[i]: the pilot rank of the last object in stratum 1;
    # third_indices[j]: the pilot rank of the first object in stratum 3.  The
    # loop bounds of the reference implementation already guarantee every
    # stratum holds at least ``min_pilot_per_stratum`` pilot objects.
    first_indices = np.arange(min_pilot_per_stratum - 1, m - 2 * min_pilot_per_stratum)
    third_indices = np.arange(2 * min_pilot_per_stratum, m - min_pilot_per_stratum + 1)
    if first_indices.size == 0 or third_indices.size == 0:
        raise InfeasibleDesignError(_NO_FEASIBLE_DESIGN)

    counts_first = first_indices + 1
    s1_sq_all = bernoulli_variance_estimate(gamma[counts_first], counts_first)
    counts_third = m - third_indices
    s3_sq_all = bernoulli_variance_estimate(gamma[m] - gamma[third_indices], counts_third)
    counts_second = third_indices[None, :] - first_indices[:, None] - 1
    s2_sq_all = bernoulli_variance_estimate(
        gamma[third_indices][None, :] - gamma[counts_first][:, None], counts_second
    )

    # -- vectorized feasibility mask ------------------------------------------
    lower_n1 = np.maximum(min_stratum_size, positions[first_indices] + 1)
    upper_n1 = positions[first_indices + 1]
    lower_n3 = np.maximum(min_stratum_size, population - positions[third_indices])
    upper_n3 = population - positions[third_indices - 1] - 1
    feasible = (
        (third_indices[None, :] >= first_indices[:, None] + min_pilot_per_stratum + 1)
        & (lower_n1 <= upper_n1)[:, None]
        & (lower_n3 <= upper_n3)[None, :]
        & (lower_n1[:, None] + lower_n3[None, :] <= size_limit)
    )

    best_value = np.inf
    best_cuts: np.ndarray | None = None
    # argwhere is row-major, which replays the reference's (first, third)
    # nested loop order; with strict "<" comparisons below, the first
    # candidate attaining the minimum therefore wins in both implementations.
    for pair_i, pair_j in np.argwhere(feasible):
        s1_sq = s1_sq_all[pair_i]
        s2_sq = s2_sq_all[pair_i, pair_j]
        s3_sq = s3_sq_all[pair_j]
        s1, s2, s3 = np.sqrt([s1_sq, s2_sq, s3_sq])

        def objective(n1: float, n3: float) -> float:
            n2 = population - n1 - n3
            weighted = n1 * s1 + n2 * s2 + n3 * s3
            return (
                weighted**2 / n
                - (n1 * s1_sq + n2 * s2_sq + n3 * s3_sq)
            )

        pair_lower_n1 = int(lower_n1[pair_i])
        pair_upper_n1 = int(upper_n1[pair_i])
        pair_lower_n3 = int(lower_n3[pair_j])
        pair_upper_n3 = int(upper_n3[pair_j])
        box = [
            (float(pair_lower_n1), float(pair_lower_n3)),
            (float(pair_upper_n1), float(pair_lower_n3)),
            (float(pair_upper_n1), float(pair_upper_n3)),
            (float(pair_lower_n1), float(pair_upper_n3)),
        ]
        polygon = _clip_polygon_below_line(box, float(size_limit))
        if not polygon:
            continue

        candidates: list[tuple[float, float]] = []
        for index in range(len(polygon)):
            candidates.extend(
                _edge_candidates(
                    objective, polygon[index], polygon[(index + 1) % len(polygon)]
                )
            )

        # Round every candidate corner to its integer neighbours in the
        # reference's enumeration order, then score all surviving corners of
        # this pair in one batched Neyman-objective evaluation.
        corner_n1: list[int] = []
        corner_n3: list[int] = []
        for n1_real, n3_real in candidates:
            for n1 in {int(np.floor(n1_real)), int(np.ceil(n1_real))}:
                for n3 in {int(np.floor(n3_real)), int(np.ceil(n3_real))}:
                    if not (pair_lower_n1 <= n1 <= pair_upper_n1):
                        continue
                    if not (pair_lower_n3 <= n3 <= pair_upper_n3):
                        continue
                    if n1 + n3 > size_limit:
                        continue
                    # Strictly increasing cuts [0, n1, N - n3, N].
                    if n1 <= 0 or n3 <= 0 or population - n3 <= n1:
                        continue
                    corner_n1.append(n1)
                    corner_n3.append(n3)
        if not corner_n1:
            continue

        sizes = np.empty((len(corner_n1), 3), dtype=np.float64)
        sizes[:, 0] = corner_n1
        sizes[:, 2] = corner_n3
        sizes[:, 1] = population - sizes[:, 0] - sizes[:, 2]
        # Mirror ``neyman_objective`` operation for operation so the scores
        # are bitwise identical to what design_from_cuts would report.  The
        # squared stratum-weight sum must go through scalar ``**`` — NumPy
        # squares arrays with a multiply fast path, but squares float64
        # scalars through libm pow, and the two can differ in the last ulp.
        deviations = np.array([s1, s2, s3])
        weighted = sizes * deviations[None, :]
        weighted_sums_sq = np.array([total**2 for total in weighted.sum(axis=1)])
        values = weighted_sums_sq / n - (sizes * deviations[None, :] ** 2).sum(axis=1)

        pair_best = values.min()
        if pair_best < best_value:
            best_value = pair_best
            chosen = int(values.argmin())  # first occurrence, as in the scan
            best_cuts = np.array(
                [0, corner_n1[chosen], population - corner_n3[chosen], population],
                dtype=np.int64,
            )

    if best_cuts is None:
        raise InfeasibleDesignError(_NO_FEASIBLE_DESIGN)
    return design_from_cuts(pilot, best_cuts, second_stage_samples, "neyman", algorithm="dirsol")


def dirsol_design_reference(
    pilot: PilotSample,
    second_stage_samples: int,
    min_stratum_size: int | None = None,
    min_pilot_per_stratum: int = 2,
) -> StratificationDesign:
    """Original scalar DirSol scan, retained as the equivalence reference.

    This is the pre-kernel implementation, byte for byte: a nested Python
    loop over pilot pairs with one :func:`design_from_cuts` evaluation per
    rounded corner candidate.  :func:`dirsol_design` must return exactly the
    design this function returns.
    """
    _validate_inputs(pilot, second_stage_samples, min_pilot_per_stratum)
    num_strata = 3
    if min_stratum_size is None:
        min_stratum_size = default_minimum_stratum_size(
            pilot.population_size, second_stage_samples, num_strata
        )
    m = pilot.size

    population = pilot.population_size
    positions = pilot.positions
    gamma = pilot.gamma
    n = float(second_stage_samples)
    best_design: StratificationDesign | None = None

    for last_in_first in range(min_pilot_per_stratum - 1, m - 2 * min_pilot_per_stratum):
        count_first = last_in_first + 1
        positives_first = gamma[count_first]
        s1_sq = float(
            bernoulli_variance_estimate(
                np.array([positives_first]), np.array([count_first])
            )[0]
        )
        third_range = range(
            last_in_first + min_pilot_per_stratum + 1, m - min_pilot_per_stratum + 1
        )
        for first_in_third in third_range:
            count_third = m - first_in_third
            count_second = first_in_third - last_in_first - 1
            if count_second < min_pilot_per_stratum or count_third < min_pilot_per_stratum:
                continue
            positives_second = gamma[first_in_third] - gamma[count_first]
            positives_third = gamma[m] - gamma[first_in_third]
            s2_sq = float(
                bernoulli_variance_estimate(
                    np.array([positives_second]), np.array([count_second])
                )[0]
            )
            s3_sq = float(
                bernoulli_variance_estimate(
                    np.array([positives_third]), np.array([count_third])
                )[0]
            )
            s1, s2, s3 = np.sqrt([s1_sq, s2_sq, s3_sq])

            lower_n1 = max(min_stratum_size, int(positions[last_in_first]) + 1)
            upper_n1 = int(positions[last_in_first + 1])
            lower_n3 = max(min_stratum_size, population - int(positions[first_in_third]))
            upper_n3 = population - int(positions[first_in_third - 1]) - 1
            size_limit = population - min_stratum_size
            if lower_n1 > upper_n1 or lower_n3 > upper_n3 or lower_n1 + lower_n3 > size_limit:
                continue

            def objective(n1: float, n3: float) -> float:
                n2 = population - n1 - n3
                weighted = n1 * s1 + n2 * s2 + n3 * s3
                return (
                    weighted**2 / n
                    - (n1 * s1_sq + n2 * s2_sq + n3 * s3_sq)
                )

            box = [
                (float(lower_n1), float(lower_n3)),
                (float(upper_n1), float(lower_n3)),
                (float(upper_n1), float(upper_n3)),
                (float(lower_n1), float(upper_n3)),
            ]
            polygon = _clip_polygon_below_line(box, float(size_limit))
            if not polygon:
                continue

            candidates: list[tuple[float, float]] = []
            for index in range(len(polygon)):
                candidates.extend(
                    _edge_candidates(
                        objective, polygon[index], polygon[(index + 1) % len(polygon)]
                    )
                )

            for n1_real, n3_real in candidates:
                for n1 in {int(np.floor(n1_real)), int(np.ceil(n1_real))}:
                    for n3 in {int(np.floor(n3_real)), int(np.ceil(n3_real))}:
                        if not (lower_n1 <= n1 <= upper_n1 and lower_n3 <= n3 <= upper_n3):
                            continue
                        if n1 + n3 > size_limit:
                            continue
                        cuts = np.array([0, n1, population - n3, population], dtype=np.int64)
                        if np.any(np.diff(cuts) <= 0):
                            continue
                        candidate = design_from_cuts(
                            pilot, cuts, second_stage_samples, "neyman", algorithm="dirsol"
                        )
                        if (
                            best_design is None
                            or candidate.objective_value < best_design.objective_value
                        ):
                            best_design = candidate

    if best_design is None:
        raise InfeasibleDesignError(_NO_FEASIBLE_DESIGN)
    return best_design

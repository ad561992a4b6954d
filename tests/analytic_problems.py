"""Small semidefinite programs with closed-form optima.

Shared by the solver unit tests and the acceptance suite.  Every entry
is (name, problem, optimum) with the optimum derivable by hand:
eigenvalue bounds, 2x2 determinant conditions, or the theta number of
the 5-cycle (sqrt 5).
"""

import numpy as np

from randamp.sdp import SdpProblem


def entry_matrix(m: int, i: int, j: int) -> np.ndarray:
    """Symmetric indicator of entry (i, j); pairs <A, X> = 2 X_ij off the
    diagonal and X_ii on it."""
    A = np.zeros((m, m))
    A[i, j] += 1.0
    A[j, i] += 1.0
    if i == j:
        A[i, i] = 1.0
    return A


def analytic_problems() -> list[tuple[str, SdpProblem, float]]:
    probs = []

    probs.append((
        "spectraplex-diag",
        SdpProblem(np.diag([1.0, 2.0]), np.array([np.eye(2)]), [1.0], ("eq",)),
        2.0,
    ))

    probs.append((
        "correlation-extreme",
        SdpProblem(
            entry_matrix(2, 0, 1),
            np.array([entry_matrix(2, 0, 0), entry_matrix(2, 1, 1)]),
            [1.0, 1.0],
            ("eq", "eq"),
        ),
        2.0,
    ))

    # theta number of the 5-cycle
    edges = [(i, (i + 1) % 5) for i in range(5)]
    probs.append((
        "theta-c5",
        SdpProblem(
            np.ones((5, 5)),
            np.array([np.eye(5), *(entry_matrix(5, i, j) for i, j in edges)]),
            [1.0] + [0.0] * len(edges),
            ("eq",) * (1 + len(edges)),
        ),
        float(np.sqrt(5.0)),
    ))

    probs.append((
        "boxed-corner",
        SdpProblem(
            np.diag([1.0, 0.0]),
            np.array([entry_matrix(2, 1, 1), entry_matrix(2, 0, 1), np.diag([1.0, 0.0])]),
            [1.0, 1.0, 2.0],
            ("eq", "eq", "leq"),
        ),
        2.0,
    ))

    # off-diagonal capped by the geometric mean of pinned diagonals
    probs.append((
        "offdiag-gram",
        SdpProblem(
            entry_matrix(2, 0, 1),
            np.array([entry_matrix(2, 0, 0), entry_matrix(2, 1, 1)]),
            [1.0, 4.0],
            ("eq", "eq"),
        ),
        4.0,
    ))

    probs.append((
        "trace-cap",
        SdpProblem(np.eye(3), np.array([np.eye(3)]), [5.0], ("leq",)),
        5.0,
    ))

    probs.append((
        "spectraplex-coupled",
        SdpProblem(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([np.eye(2)]), [1.0], ("eq",)),
        3.0,
    ))

    probs.append((
        "surplus-floor",
        SdpProblem(
            -np.diag([1.0, 0.0]),
            np.array([np.diag([1.0, 0.0]), np.eye(2)]),
            [1.0, 3.0],
            ("geq", "leq"),
        ),
        -1.0,
    ))

    probs.append((
        "independent-caps",
        SdpProblem(
            np.eye(2),
            np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
            [2.0, 3.0],
            ("leq", "leq"),
        ),
        5.0,
    ))

    # AM-GM: 2 X_01 <= X_00 + X_11 = 2 on the PSD cone
    probs.append((
        "amgm-offdiag",
        SdpProblem(
            entry_matrix(3, 0, 1),
            np.array([np.diag([1.0, 1.0, 0.0]), entry_matrix(3, 2, 2)]),
            [2.0, 1.0],
            ("eq", "eq"),
        ),
        2.0,
    ))

    return probs


def infeasible_problem() -> SdpProblem:
    """No PSD matrix has negative trace."""
    return SdpProblem(np.eye(2), np.array([np.eye(2)]), [-1.0], ("eq",))


def unbounded_problem() -> SdpProblem:
    """Maximize the trace with nothing holding it down."""
    return SdpProblem(np.eye(2), np.array([entry_matrix(2, 0, 1)]), [1.0], ("eq",))

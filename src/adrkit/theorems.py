"""Verdict engines: Ringel-dual identification, Cartan-flip minimality, selfduality.

Each checker returns a structured :class:`Verdict` with hypothesis and
evidence entries.  Whenever the hypotheses of a statement hold, its asserted
identities must pass; a failure there would falsify the statement and is
raised as :class:`InternalInconsistencyError` rather than reported as a
negative verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adrcore import (
    LambdaLabel,
    _delta_class,
    cartan_RA_formula,
    cartan_ringel_dual,
    cartan_SA_formula,
    lambda_poset,
    ringel_dual_cartan_from_hom,
    theorem_a_hypotheses,
    tilting_delta_filtration,
    tilting_vector,
)
from .memo import memoized
from .presentation import AlgebraData
from .repmod import is_nakayama, selfinjective_matching


class InternalInconsistencyError(RuntimeError):
    """A theorem-backed identity failed while its hypotheses hold."""


@dataclass(frozen=True)
class Check:
    description: str
    passed: bool
    witness: str | None = None

    def to_dict(self) -> dict:
        return {"description": self.description, "passed": self.passed, "witness": self.witness}


@dataclass(frozen=True)
class Verdict:
    name: str
    holds: bool
    hypotheses: tuple[Check, ...]
    evidence: tuple[Check, ...]
    applicable: bool = True
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.holds and not all(c.passed for c in self.hypotheses + self.evidence):
            raise InternalInconsistencyError(
                f"verdict {self.name} claims to hold with a failing check"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "applicable": self.applicable,
            "hypotheses": [c.to_dict() for c in self.hypotheses],
            "evidence": [c.to_dict() for c in self.evidence],
            "details": self.details,
        }


@memoized
def _flip_mismatch(alg: AlgebraData) -> str | None:
    """First label pair where C(R(R_A)) and C(S_A) disagree under (i,j) -> [i, l_i-j+1].

    Returns None when every entry matches, else the witness
    ``"at (i, j),(k, l): x != y"``.  Needs LL(P_i) = LL(Q_i) for all i, so
    that every flipped label is a label of S_A.  The flip is one permutation
    of label indices, applied to the rows and the columns of C(S_A) at once;
    the first mismatch is the first in row-major order.
    """
    poset = lambda_poset(alg)
    crd = cartan_ringel_dual(alg)
    csa = cartan_SA_formula(alg)
    flip = [csa._row_index[LambdaLabel(i, poset.l(i) - j + 1)] for i, j in poset.labels]
    lhs = np.array(crd.entries)
    rhs = np.array(csa.entries)[np.ix_(flip, flip)]
    mismatch = np.argwhere(lhs != rhs)
    if not mismatch.size:
        return None
    r, c = mismatch[0]
    return f"at {tuple(poset.labels[r])},{tuple(poset.labels[c])}: {lhs[r, c]} != {rhs[r, c]}"


def duality_failures(alg: AlgebraData) -> list[str]:
    """Witnesses against C(R_A) = C(S_{A^op})^T and C(S_A) = C(R_{A^op})^T, labels included.

    D(P_k/rad^l P_k) = soc_l Q^op_k and D(soc_j Q_i) = P^op_i/rad^j P^op_i.
    Q^op_k reads the tagged pass of P_k, and Q_i that of P^op_i
    (``repmod._tagged_pass``), so each identity reads one pass under both
    readers and runs no pass of its own: it checks the transposes, the
    labels and the readers, and the Hom routes guard the pass.  Each witness
    names the first label pair, in row-major order, where a matrix is off
    the transpose of its dual; the list is empty when both identities hold.
    """
    op = alg.opposite()
    out = []
    for name, mat, dual in (
        ("C(R_A) vs C(S_{A^op})", cartan_RA_formula(alg), cartan_SA_formula(op)),
        ("C(S_A) vs C(R_{A^op})", cartan_SA_formula(alg), cartan_RA_formula(op)),
    ):
        labels = mat.row_labels
        if {labels, mat.col_labels, dual.row_labels, dual.col_labels} != {labels}:
            out.append(f"{name}: the label sets differ")
            continue
        bad = np.argwhere(np.array(mat.entries) != np.array(dual.entries).T)
        if len(bad):
            r, c = bad[0]
            out.append(f"{name}: not transposed at {tuple(labels[r])},{tuple(labels[c])}")
    return out


@memoized
def check_theorem_a(alg: AlgebraData) -> Verdict:
    """Cartan-level check of the Ringel-dual identification R(R_A) ~ (R_{A^op})^op.

    Hypotheses: every P_i and Q_i rigid with Loewy length L.  Evidence when
    they hold: the flip equality between C(R(R_A)) and C(S_A), agreement of
    the Delta- and nabla-routes to every tilting class, and agreement of the
    row-arithmetic and closed-form Hom routes to C(R(R_A)).  The verdict is
    memoized on ``alg`` (theorem C's corroboration reads it again); a raise
    is not.
    """
    hyp = theorem_a_hypotheses(alg)
    L = hyp.loewy_length
    n = alg.n

    def agg(desc: str, values, fmt) -> Check:
        bad = [i for i in range(1, n + 1) if not values[i - 1]]
        return Check(desc, not bad, fmt(bad[0]) if bad else None)

    hypotheses = (
        agg(
            "LL(P_i) = L for all i",
            [hyp.ll_p[i - 1] == L for i in range(1, n + 1)],
            lambda i: f"LL(P_{i})={hyp.ll_p[i - 1]} != L={L}",
        ),
        agg(
            "LL(Q_i) = L for all i",
            [hyp.ll_q[i - 1] == L for i in range(1, n + 1)],
            lambda i: f"LL(Q_{i})={hyp.ll_q[i - 1]} != L={L}",
        ),
        agg("P_i rigid for all i", hyp.rigid_p, lambda i: f"P_{i} is not rigid"),
        agg("Q_i rigid for all i", hyp.rigid_q, lambda i: f"Q_{i} is not rigid"),
    )
    if not all(c.passed for c in hypotheses):
        return Verdict(
            name="theorem_a",
            holds=False,
            hypotheses=hypotheses,
            evidence=(),
            details={"first_failure": hyp.first_failure()},
        )

    poset = lambda_poset(alg)
    witness = _flip_mismatch(alg)
    if witness is not None:
        raise InternalInconsistencyError(f"flip equality fails {witness}")
    flip_check = Check(
        "C(R(R_A))[(i,j),(k,l)] = C(S_A)[(i,L-j+1),(k,L-l+1)] for all labels", True
    )

    for label in poset.labels:
        delta_route = _delta_class(alg, tilting_delta_filtration(alg, label))
        if delta_route != tilting_vector(alg, label).values:
            raise InternalInconsistencyError(
                f"tilting Delta-route vector differs from nabla-route at {tuple(label)}"
            )
    route_check = Check("tilting Delta-route equals nabla-route for all labels", True)

    if ringel_dual_cartan_from_hom(alg) != cartan_ringel_dual(alg):
        raise InternalInconsistencyError(
            "closed-form Hom route to C(R(R_A)) differs from the row-arithmetic route"
        )
    hom_check = Check("C(R(R_A)) equals the tilting Hom-dimension matrix", True)

    return Verdict(
        name="theorem_a",
        holds=True,
        hypotheses=hypotheses,
        evidence=(flip_check, route_check, hom_check),
    )


def _b1_b2(alg: AlgebraData) -> tuple[bool, tuple[Check, Check]]:
    """B1: LL(P_i) = LL(Q_i) for all i.  B2: per-index Cartan flip equality."""
    hyp = theorem_a_hypotheses(alg)
    n = alg.n
    bad = [i for i in range(1, n + 1) if hyp.ll_p[i - 1] != hyp.ll_q[i - 1]]
    b1 = Check(
        "B1: LL(P_i) = LL(Q_i) for all i",
        not bad,
        None
        if not bad
        else f"LL(P_{bad[0]})={hyp.ll_p[bad[0] - 1]} != LL(Q_{bad[0]})={hyp.ll_q[bad[0] - 1]}",
    )
    if not b1.passed:
        b2 = Check(
            "B2: C(R(R_A)) matches C(S_A) under (i,j) -> [i, l_i-j+1]",
            False,
            "not evaluated: B1 fails",
        )
        return False, (b1, b2)
    witness = _flip_mismatch(alg)
    b2 = Check(
        "B2: C(R(R_A)) matches C(S_A) under (i,j) -> [i, l_i-j+1]",
        witness is None,
        witness,
    )
    return b1.passed and b2.passed, (b1, b2)


def check_theorem_b(alg: AlgebraData) -> Verdict:
    """Minimality of the rigidity/uniform-length conditions, via B1 and B2.

    On a connected algebra where B1 and B2 hold, all l_i must coincide and all
    P_i, Q_i must be rigid; any failure is theorem-falsifying.  Disconnected
    input gets a not-applicable global verdict plus per-component results.
    """
    if not alg.connected:
        sub = [check_theorem_b(comp) for comp in alg.components()]
        return Verdict(
            name="theorem_b",
            holds=False,
            applicable=False,
            hypotheses=(
                Check("algebra is connected", False, f"{len(sub)} components"),
            ),
            evidence=(),
            details={"components": [v.to_dict() for v in sub]},
        )

    ok, (b1, b2) = _b1_b2(alg)
    hypotheses = (Check("algebra is connected", True), b1, b2)
    if not ok:
        return Verdict(name="theorem_b", holds=False, hypotheses=hypotheses, evidence=())

    hyp = theorem_a_hypotheses(alg)
    evidence = []
    if len(set(hyp.ll_p)) != 1:
        raise InternalInconsistencyError(
            f"B1+B2 hold but Loewy lengths differ: {hyp.ll_p}"
        )
    evidence.append(Check("all l_i are equal", True, f"l={hyp.ll_p[0]}"))
    for idx in range(alg.n):
        if not hyp.rigid_p[idx]:
            raise InternalInconsistencyError(f"B1+B2 hold but P_{idx + 1} is not rigid")
        if not hyp.rigid_q[idx]:
            raise InternalInconsistencyError(f"B1+B2 hold but Q_{idx + 1} is not rigid")
    evidence.append(Check("every P_i and Q_i is rigid", True))
    for a in alg.quiver.arrows:
        i, k = alg.quiver.arrow_endpoints(a.name)
        if i != k and hyp.ll_p[i - 1] != hyp.ll_p[k - 1]:
            raise InternalInconsistencyError(
                f"B1+B2 hold but arrow {a.name}: {i}->{k} links l_{i}={hyp.ll_p[i - 1]} "
                f"to l_{k}={hyp.ll_p[k - 1]}"
            )
    evidence.append(
        Check("Ext^1(L_i, L_k) != 0 (arrow i->k) forces l_k = l_i", True)
    )
    return Verdict(
        name="theorem_b", holds=True, hypotheses=hypotheses, evidence=tuple(evidence)
    )


def ringel_selfdual_verdict(alg: AlgebraData) -> Verdict:
    """R_A is Ringel selfdual exactly when A is selfinjective Nakayama.

    When the verdict holds, the matching permutation P_i ~ Q_sigma(i) is
    attached, and the flip equality of the Ringel-dual identification is
    re-checked per connected component as corroboration.
    """
    sigma = selfinjective_matching(alg)
    nak = is_nakayama(alg)
    selfinj = sigma is not None
    hypotheses = (
        Check("A is selfinjective", selfinj, None if selfinj else "no P_i ~ Q_sigma(i) matching"),
        Check("A is Nakayama", nak, None if nak else "some P_i or Q_i is not uniserial"),
    )
    holds = selfinj and nak
    evidence = []
    details: dict = {}
    if holds:
        details["sigma"] = {str(i): s for i, s in sorted(sigma.items())}
        evidence.append(
            Check("P_i isomorphic to Q_sigma(i)", True, str(sorted(sigma.items())))
        )
        for sub in alg.components():
            if not check_theorem_a(sub).holds:
                raise InternalInconsistencyError(
                    "selfinjective Nakayama algebra fails the Ringel-dual "
                    f"identification hypotheses on component {list(sub.quiver.vertices)}"
                )
        evidence.append(
            Check("flip-equality corroboration on every connected component", True)
        )
    return Verdict(
        name="theorem_c",
        holds=holds,
        hypotheses=hypotheses,
        evidence=tuple(evidence),
        details=details,
    )


def check_opposite_symmetry(alg: AlgebraData) -> Verdict:
    """B1 and B2 hold for A iff they hold for A^op."""
    lhs, lhs_checks = _b1_b2(alg)
    rhs, rhs_checks = _b1_b2(alg.opposite())
    if lhs != rhs:
        raise InternalInconsistencyError(
            f"B1+B2 = {lhs} on A but {rhs} on the opposite algebra"
        )
    evidence = (
        Check(f"B1 and B2 on A evaluate to {lhs}", True, lhs_checks[1].witness),
        Check(f"B1 and B2 on A^op evaluate to {rhs}", True, rhs_checks[1].witness),
    )
    return Verdict(
        name="opposite_symmetry",
        holds=True,
        hypotheses=(),
        evidence=evidence,
        details={"b1_b2": lhs},
    )

"""`currents_exact` as it stood before the crossing oracles read the
generator's `crossings` table: every call walks the displacement records of
every arc and expands each record's `displacement_crossings` on the spot,
and every sum is a running sum of summands (`reference_sums`).  Kept as the
slow reference that the differential tests of the crossing table check
against; nothing in the package imports it.
"""

from __future__ import annotations

from torus_asep.dynamics import build_generator
from torus_asep.model import _check_dims
from torus_asep.observables import WHOLE_ROW, ObservableEntry, ObservableMismatch, ObservableReport, _CommonDenominator
from torus_asep.symbolic import Domain, RatePoint

from reference_sums import SummandDomain
from reference_tables import reference_occupation_currents
from reference_transitions import displacement_crossings


def currents_exact(L: int, n: int, rates: RatePoint | None = None) -> ObservableReport:
    """All five current families, closed form against expectation oracle,
    with the horizontal box and bullet crossing sums read off the
    displacement records."""
    _check_dims(L, n)
    dom = SummandDomain(n, rates)
    zero = dom.zero
    over = _CommonDenominator(L, n, Domain(n, rates))

    def check(name, index, oracle):
        """A full-space numerator over L * Z against its closed form; a
        whole-row closed form sits over Z and is scaled by L."""
        form = over.forms[name]
        if isinstance(form, tuple):
            form = form[index[0] - 1]
        whole = name in WHOLE_ROW
        closed, equal = over.dom.ratio(form, over.z if whole else over.lz), (L * form if whole else form) == oracle
        return ObservableEntry(name, index, closed, over.dom.ratio(oracle, over.lz), equal)

    gen = build_generator(L, n)
    wvals = [dom.weight(m) for m in gen.weights]
    occupation = reference_occupation_currents(gen, rates)
    bullet_edge_num = [occupation[i * L : (i + 1) * L] for i in range(n)]
    v_up_num, v_down_num = occupation[n * L : n * L + n], occupation[n * L + n :]

    edge_cross = [dom.sums(L, terms=True) for _ in range(n)]
    box_col = dom.sums(L, terms=True)
    box_row = [dom.sums(L, terms=True) for _ in range(n)]
    box_swap = [dom.sums(L, terms=True) for _ in range(n)]
    for outs, wv in zip(gen.transitions, wvals):
        for t in outs:
            term = dom.term(wv, t.rate_symbol)
            for d in t.displacements:
                for boundary, sign in displacement_crossings(d, L):
                    if d.species == "bullet":
                        edge_cross[d.label_from - 1].add(boundary, term, sign)
                    else:
                        box_col.add(boundary, term, sign)
                        if not d.jump:
                            row = d.label_from - 1
                            box_row[row].add(boundary, term, sign)
                            if t.kind in ("F1", "B1"):
                                box_swap[row].add(boundary, term, sign)
    bullet_edge_cross = [s.freeze() for s in edge_cross]
    box_col_num = box_col.freeze()
    box_row_num = [s.freeze() for s in box_row]
    box_swap_num = [s.freeze() for s in box_swap]

    for i in range(n):
        for j in range(L):
            if box_swap_num[i][j] != zero:
                raise ObservableMismatch(
                    f"swap-only box crossings do not cancel at row {i + 1}, boundary {j + 1}"
                )
            if bullet_edge_cross[i][j] != bullet_edge_num[i][j]:
                raise ObservableMismatch(
                    f"bullet crossing rate differs from occupation oracle at ({i + 1},{j + 1})"
                )

    entries = [check("bullet_edge_current", (i + 1, j + 1), bullet_edge_num[i][j]) for i in range(n) for j in range(L)]
    entries += [check("bullet_row_current", (i + 1,), sum(bullet_edge_num[i], zero)) for i in range(n)]
    entries += [check("box_column_current", (j + 1,), box_col_num[j]) for j in range(L)]
    for i in range(n):
        up, down = v_up_num[i], v_down_num[i]
        entries.append(check("box_vertical_up", (i + 1,), up))
        entries.append(check("box_vertical_down", (i + 1,), down))
        entries.append(check("box_vertical_net", (i + 1,), up - down))
    entries += [check("box_row_current", (i + 1, j + 1), box_row_num[i][j]) for i in range(n) for j in range(L)]
    report = ObservableReport(L, n, over.dom.mode, entries).require_ok("current")

    for j in range(L):
        if box_col_num[j] + sum((bullet_edge_num[i][j] for i in range(n)), zero) != zero:
            raise ObservableMismatch(f"flux balance fails across boundary {j + 1}")
    return report

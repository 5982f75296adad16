"""The paper's §VI-B / §VII headline claims, computed from our runs.

Each claim is returned as (description, paper value, measured value,
holds?) where *holds* applies the claim's qualitative direction (who
wins), not the absolute number — our substrate is a from-scratch
simulator with stand-in kernels, so shapes are the reproducible part.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.session import SimulationSession
from .figures import _avg_speedup

#: the paper's Fig. 14 averages (percent speedup of CCSI over CSMT)
PAPER_FIG14_AVG = {(2, "NS"): 6.1, (2, "AS"): 8.7,
                   (4, "NS"): 3.5, (4, "AS"): 7.5}
#: the paper's Fig. 15 averages (percent speedup over SMT)
PAPER_FIG15_AVG = {
    (2, "COSI NS"): 7.5, (2, "COSI AS"): 9.8,
    (2, "OOSI NS"): 8.2, (2, "OOSI AS"): 13.0,
    (4, "COSI NS"): 6.4, (4, "COSI AS"): 9.4,
    (4, "OOSI NS"): 7.9, (4, "OOSI AS"): 15.7,
}


@dataclass
class Claim:
    name: str
    paper: float
    measured: float
    holds: bool
    note: str = ""


def evaluate_claims(session: SimulationSession) -> list[Claim]:
    # every claim reads the full 8-policy x 9-workload x {2, 4} matrix
    session.prefetch()
    claims: list[Claim] = []

    def add(name, paper, measured, holds, note=""):
        claims.append(Claim(name, paper, measured, holds, note))

    # --- CCSI over CSMT (Fig. 14 averages) ---
    for nt in (2, 4):
        ns = _avg_speedup(session, "CCSI NS", "CSMT", nt)
        as_ = _avg_speedup(session, "CCSI AS", "CSMT", nt)
        add(
            f"CCSI NS avg speedup over CSMT ({nt}T)",
            PAPER_FIG14_AVG[nt, "NS"],
            ns,
            ns > 0,
            "split-issue must help cluster-level merging",
        )
        add(
            f"CCSI AS avg speedup over CSMT ({nt}T)",
            PAPER_FIG14_AVG[nt, "AS"],
            as_,
            as_ > 0 and as_ >= ns - 0.5,
            "AS should be at least as good as NS",
        )

    # --- COSI / OOSI over SMT (Fig. 15 averages) ---
    for nt in (2, 4):
        avg = {
            pol: _avg_speedup(session, pol, "SMT", nt)
            for pol in ("COSI NS", "COSI AS", "OOSI NS", "OOSI AS")
        }
        for pol, measured in avg.items():
            add(f"{pol} avg speedup over SMT ({nt}T)",
                PAPER_FIG15_AVG[nt, pol], measured, measured > 0)
        cosi_as, oosi_as = avg["COSI AS"], avg["OOSI AS"]
        # COSI within a few percent of OOSI — the paper's core
        # cost/benefit argument (0.7-5.7% across configs)
        gap = oosi_as - cosi_as
        paper_gap = 2.7 if nt == 2 else 5.7
        add(
            f"OOSI AS - COSI AS gap ({nt}T, small means cluster-level "
            "split captures most of the benefit)",
            paper_gap,
            gap,
            gap < 10.0,
        )

    # --- Fig. 16: cluster-merge vs op-merge gap shrinks with split ---
    for nt, paper_csmt_gap, paper_ccsi_gap in ((2, None, None), (4, 27.0, 13.0)):
        smt = session.average_ipc("SMT", nt)
        csmt = session.average_ipc("CSMT", nt)
        ccsi = session.average_ipc("CCSI AS", nt)
        gap_before = 100.0 * (smt / csmt - 1.0)
        gap_after = 100.0 * (smt / ccsi - 1.0)
        if nt == 4:
            add(
                "SMT advantage over CSMT (4T, %)",
                paper_csmt_gap,
                gap_before,
                gap_before > 0,
            )
            add(
                "SMT advantage over CCSI AS (4T, %) — split narrows it",
                paper_ccsi_gap,
                gap_after,
                gap_after < gap_before,
            )
        else:
            add(
                "CCSI AS ~ SMT on 2T (paper: 'practically the same, in "
                "fact slightly better')",
                0.0,
                gap_after,
                gap_after < gap_before,
            )
    return claims


def render_claims(claims: list[Claim]) -> str:
    out = ["Paper claims vs measured (shape-level reproduction):", ""]
    for c in claims:
        status = "HOLDS " if c.holds else "DIFFERS"
        paper = f"{c.paper:6.1f}" if c.paper is not None else "   n/a"
        out.append(
            f"[{status}] {c.name}\n"
            f"          paper {paper}   measured {c.measured:6.1f}"
            + (f"   ({c.note})" if c.note else "")
        )
    return "\n".join(out)

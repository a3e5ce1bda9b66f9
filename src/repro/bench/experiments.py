"""Experiment definitions: one spec per table/figure of the paper's §6.

Each :class:`Experiment` names the datasets, methods, workloads, metric
and per-method budgets needed to regenerate one artifact.  The CLI
(:mod:`repro.cli`) and the pytest benchmarks both consume these specs,
so "what exactly does Table 5 run?" has a single answer in code.

Budgets encode the scaled-down equivalents of the paper's resource
limits (32 GB RAM, 24 h): methods whose memory footprint explodes at
scale get size budgets that trip on the same dataset families where the
paper reports "—".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..datasets.catalog import LARGE_SUITE, SMALL_SUITE
from .harness import BuildBudget

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment", "PAPER_METHODS"]

#: The method columns of the paper's Tables 2-7, in paper order.
PAPER_METHODS: List[str] = [
    "GL", "GL*", "PT", "PT*", "KR", "PW8", "INT", "2HOP", "PL", "TF", "HL", "DL",
]


@dataclass
class Experiment:
    """A reproducible experiment spec for one paper artifact."""

    exp_id: str
    title: str
    datasets: List[str]
    methods: List[str]
    metric: str  # "query" | "construction" | "index_size" | "datasets"
    workloads: List[str] = field(default_factory=lambda: ["equal"])
    queries: int = 10_000
    budgets: Dict[str, BuildBudget] = field(default_factory=dict)
    notes: str = ""


def _small_budgets() -> Dict[str, BuildBudget]:
    """Budgets for the small suite: only K-Reach's known failures trip."""
    return {
        # Paper Table 2: K-Reach reports "—" exactly on arxiv (cover TC
        # too dense) and p2p (cover itself too large); these two budgets
        # reproduce that pair.
        "KR": BuildBudget(
            params={
                "max_cover_closure_bits": 3_800_000,
                "max_cover_tc_entries": 60_000,
            }
        ),
        "2HOP": BuildBudget(time_s=300.0),
    }


def _large_budgets() -> Dict[str, BuildBudget]:
    """Budgets for the large suite (scaled 32 GB / 24 h equivalents)."""
    return {
        # K-Reach fails on every large graph in the paper.
        "KR": BuildBudget(params={"max_cover_closure_bits": 400_000}),
        # 2HOP materialises the full TC: bit budget + ground-set budget.
        "2HOP": BuildBudget(
            time_s=240.0,
            params={"max_tc_bits": 150_000_000, "max_tc_pairs": 1_000_000},
        ),
        # PT's interval closures blow up outside chain/tree families;
        # this budget reproduces the paper's completion set exactly
        # (citeseer, mapped_100K, mapped_1M, uniprotenc_22m).
        "PT": BuildBudget(params={"max_storage_ints": 200_000}),
        # INT survives everywhere except the densest citation closure.
        "INT": BuildBudget(params={"max_storage_ints": 1_200_000}),
    }


def _experiments() -> Dict[str, Experiment]:
    exps = [
        Experiment(
            exp_id="table1",
            title="Table 1: datasets (paper vs stand-in sizes)",
            datasets=SMALL_SUITE + LARGE_SUITE,
            methods=[],
            metric="datasets",
            workloads=[],
            notes="Prints paper |V|,|E| next to the synthetic stand-in sizes.",
        ),
        Experiment(
            exp_id="table2",
            title="Table 2: query time (ms) — equal workload, small graphs",
            datasets=list(SMALL_SUITE),
            methods=list(PAPER_METHODS),
            metric="query",
            workloads=["equal"],
            budgets=_small_budgets(),
        ),
        Experiment(
            exp_id="table3",
            title="Table 3: query time (ms) — random workload, small graphs",
            datasets=list(SMALL_SUITE),
            methods=list(PAPER_METHODS),
            metric="query",
            workloads=["random"],
            budgets=_small_budgets(),
        ),
        Experiment(
            exp_id="table4",
            title="Table 4: construction time (ms) — small graphs",
            datasets=list(SMALL_SUITE),
            methods=list(PAPER_METHODS),
            metric="construction",
            workloads=[],
            budgets=_small_budgets(),
        ),
        Experiment(
            exp_id="table5",
            title="Table 5: query time (ms) — equal workload, large graphs",
            datasets=list(LARGE_SUITE),
            methods=list(PAPER_METHODS),
            metric="query",
            workloads=["equal"],
            budgets=_large_budgets(),
        ),
        Experiment(
            exp_id="table6",
            title="Table 6: query time (ms) — random workload, large graphs",
            datasets=list(LARGE_SUITE),
            methods=list(PAPER_METHODS),
            metric="query",
            workloads=["random"],
            budgets=_large_budgets(),
        ),
        Experiment(
            exp_id="table7",
            title="Table 7: construction time (ms) — large graphs",
            datasets=list(LARGE_SUITE),
            methods=list(PAPER_METHODS),
            metric="construction",
            workloads=[],
            budgets=_large_budgets(),
        ),
        Experiment(
            exp_id="figure3",
            title="Figure 3: index size (k ints) — small graphs",
            datasets=list(SMALL_SUITE),
            methods=list(PAPER_METHODS),
            metric="index_size",
            workloads=[],
            budgets=_small_budgets(),
        ),
        Experiment(
            exp_id="figure4",
            title="Figure 4: index size (k ints) — large graphs",
            datasets=list(LARGE_SUITE),
            methods=list(PAPER_METHODS),
            metric="index_size",
            workloads=[],
            budgets=_large_budgets(),
        ),
        Experiment(
            exp_id="ablation-rank",
            title="Ablation: DL rank functions (label size, k ints)",
            datasets=["agrocyc", "arxiv", "kegg", "citeseer", "web"],
            methods=["DL"],  # handled specially by the CLI: one run per order
            metric="index_size",
            workloads=[],
            notes="Compares degree_product / degree_sum / random / topo_center.",
        ),
        Experiment(
            exp_id="ablation-backbone",
            title="Ablation: HL locality eps and core size",
            datasets=["agrocyc", "arxiv", "citeseer"],
            methods=["HL", "TF"],
            metric="index_size",
            workloads=[],
            notes="TF is HL at eps=1; the gap shows what eps=2 locality buys.",
        ),
        Experiment(
            exp_id="ablation-labelstore",
            title="Ablation: label storage (sorted-vector / hybrid / masks / hash-sets)",
            datasets=["agrocyc", "arxiv", "kegg"],
            methods=["DL"],
            metric="query",
            workloads=["equal"],
            notes="Reproduces the §1 claim that sorted vectors close the gap.",
        ),
    ]
    return {e.exp_id: e for e in exps}


EXPERIMENTS: Dict[str, Experiment] = _experiments()


def get_experiment(exp_id: str) -> Experiment:
    """Look up an experiment spec by id (e.g. ``table2``)."""
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}") from None

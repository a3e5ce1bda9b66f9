"""Named synthetic stand-ins for every dataset in the paper's Table 1.

The paper evaluates 14 "small" and 13 "large" real graphs.  The raw
files are not available offline, so each entry here pairs the paper's
dataset (name, |V|, |E| of its DAG) with a generator stand-in chosen to
match the dataset's *structural family* — the property that drives index
behaviour — at a scale pure Python can build quickly:

========  ===========================  ===============================
family    paper datasets               generator
========  ===========================  ===============================
metabolic agrocyc anthra ecoo hpycyc   ``sparse_dag`` (m ≈ n, shallow,
          human kegg mtbrv vchocyc      forest-like with shortcuts)
          amaze xmark nasa reactome
citation  arxiv citeseer citeseerx     ``citation_dag`` (preferential
          cit-Patents                   attachment, deep, heavy tail)
web/soc   email p2p lj web wiki        ``powerlaw_digraph`` (cyclic;
                                        condensed to a bow-tie DAG)
RDF/onto  go_uniprot uniprotenc_*      ``ontology_dag`` (child->parent
          mapped_*                      taxonomy; tiny ancestor sets)
                                        / ``chain_forest_dag``
========  ===========================  ===============================

Scaling: the small suite is ~1/8 of paper scale and the large suite is
~1/100 to ~1/1000, but the *ordering* of sizes inside each suite follows
the paper, so "harder" datasets stay comparatively harder.  The same
structural drivers (density, depth, degree skew) are preserved, which is
what the paper's qualitative conclusions rest on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from ..graph.digraph import DiGraph
from ..graph.scc import condense
from ..graph.topo import is_dag
from ..graph import generators as gen

__all__ = ["Dataset", "DATASETS", "SMALL_SUITE", "LARGE_SUITE", "load", "dataset_names"]


@dataclass(frozen=True)
class Dataset:
    """A catalog entry: a paper dataset and its synthetic stand-in."""

    name: str
    suite: str  # "small" | "large"
    paper_n: int
    paper_m: int
    family: str
    builder: Callable[[], DiGraph] = field(compare=False)
    cyclic: bool = False  # stand-in generator may emit cycles; condense on load

    def build(self) -> DiGraph:
        """Instantiate the stand-in DAG (condensing cyclic generators)."""
        g = self.builder()
        if self.cyclic:
            g = condense(g).dag
        if not is_dag(g):
            raise AssertionError(f"stand-in for {self.name} is not a DAG")
        return g


def _d(name, suite, paper_n, paper_m, family, builder, cyclic=False) -> Dataset:
    return Dataset(
        name=name,
        suite=suite,
        paper_n=paper_n,
        paper_m=paper_m,
        family=family,
        builder=builder,
        cyclic=cyclic,
    )


DATASETS: Dict[str, Dataset] = {
    d.name: d
    for d in [
        # ---------------- small suite (paper Table 1, left) ----------------
        _d("agrocyc", "small", 12_684, 13_408, "metabolic",
           lambda: gen.sparse_dag(1600, extra_edge_ratio=0.06, seed=101)),
        _d("amaze", "small", 3_710, 3_600, "metabolic",
           lambda: gen.sparse_dag(930, extra_edge_ratio=0.02, seed=102)),
        _d("anthra", "small", 12_499, 13_104, "metabolic",
           lambda: gen.sparse_dag(1560, extra_edge_ratio=0.05, seed=103)),
        _d("arxiv", "small", 21_608, 116_805, "citation",
           lambda: gen.citation_dag(2200, out_per_vertex=5.4, seed=104)),
        _d("ecoo", "small", 12_620, 13_350, "metabolic",
           lambda: gen.sparse_dag(1580, extra_edge_ratio=0.06, seed=105)),
        _d("hpycyc", "small", 4_771, 5_859, "metabolic",
           lambda: gen.sparse_dag(1190, extra_edge_ratio=0.23, seed=106)),
        _d("human", "small", 38_811, 39_576, "metabolic",
           lambda: gen.sparse_dag(3900, extra_edge_ratio=0.02, seed=107)),
        _d("kegg", "small", 3_617, 3_908, "metabolic",
           lambda: gen.sparse_dag(920, extra_edge_ratio=0.08, seed=108)),
        _d("mtbrv", "small", 9_602, 10_245, "metabolic",
           lambda: gen.sparse_dag(1400, extra_edge_ratio=0.07, seed=109)),
        _d("nasa", "small", 5_605, 7_735, "metabolic",
           lambda: gen.sparse_dag(1300, extra_edge_ratio=0.38, seed=110)),
        _d("p2p", "small", 48_438, 55_349, "web",
           lambda: gen.random_dag(4100, 4700, seed=111)),
        _d("reactome", "small", 901, 846, "metabolic",
           lambda: gen.sparse_dag(901, extra_edge_ratio=0.0, seed=112)),
        _d("vchocyc", "small", 9_491, 10_143, "metabolic",
           lambda: gen.sparse_dag(1350, extra_edge_ratio=0.07, seed=113)),
        _d("xmark", "small", 6_080, 7_028, "metabolic",
           lambda: gen.sparse_dag(1250, extra_edge_ratio=0.16, seed=114)),
        # ---------------- large suite (paper Table 1, right) ---------------
        _d("citeseer", "large", 693_947, 312_282, "citation",
           lambda: gen.citation_dag(7000, out_per_vertex=0.5, min_cites=0, seed=201)),
        _d("citeseerx", "large", 6_540_399, 15_011_259, "citation",
           lambda: gen.citation_dag(16000, out_per_vertex=2.3, min_cites=0, seed=202)),
        _d("cit-Patents", "large", 3_774_768, 16_518_947, "citation",
           lambda: gen.citation_dag(12000, out_per_vertex=4.4, min_cites=0, seed=203)),
        _d("email", "large", 231_000, 223_004, "web",
           lambda: gen.powerlaw_digraph(10500, 10200, seed=204), cyclic=True),
        _d("go_uniprot", "large", 6_967_956, 34_770_235, "ontology",
           lambda: gen.ontology_dag(15000, extra_parent_ratio=1.5, roots=40, seed=205)),
        _d("lj", "large", 971_232, 1_024_140, "web",
           lambda: gen.powerlaw_digraph(13000, 13800, seed=206), cyclic=True),
        _d("mapped_100K", "large", 2_658_702, 2_660_628, "rdf",
           lambda: gen.chain_forest_dag(9000, chain_len=60, merge_ratio=0.001, seed=207)),
        _d("mapped_1M", "large", 9_387_448, 9_440_404, "rdf",
           lambda: gen.chain_forest_dag(20000, chain_len=80, merge_ratio=0.002, seed=208)),
        _d("uniprotenc_100m", "large", 16_087_295, 16_087_293, "ontology",
           lambda: gen.ontology_dag(22000, extra_parent_ratio=0.0, roots=2, seed=209)),
        _d("uniprotenc_150m", "large", 25_037_600, 25_037_598, "ontology",
           lambda: gen.ontology_dag(26000, extra_parent_ratio=0.0, roots=2, seed=210)),
        _d("uniprotenc_22m", "large", 1_595_444, 1_595_442, "ontology",
           lambda: gen.ontology_dag(12000, extra_parent_ratio=0.0, roots=2, seed=211)),
        _d("web", "large", 371_764, 517_805, "web",
           lambda: gen.powerlaw_digraph(12000, 16700, seed=212), cyclic=True),
        _d("wiki", "large", 2_281_879, 2_311_570, "web",
           lambda: gen.powerlaw_digraph(18000, 18300, seed=213), cyclic=True),
    ]
}

SMALL_SUITE: List[str] = [d.name for d in DATASETS.values() if d.suite == "small"]
LARGE_SUITE: List[str] = [d.name for d in DATASETS.values() if d.suite == "large"]


@lru_cache(maxsize=None)
def load(name: str) -> DiGraph:
    """Build (and memoise) the stand-in DAG for a named dataset."""
    try:
        spec = DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise KeyError(f"unknown dataset {name!r}; known: {known}") from None
    return spec.build()


def dataset_names(suite: Optional[str] = None) -> List[str]:
    """All dataset names, optionally filtered by suite."""
    if suite is None:
        return list(DATASETS)
    return [d.name for d in DATASETS.values() if d.suite == suite]


def table1_rows() -> List[Tuple[str, str, int, int, int, int]]:
    """Rows for the Table-1 reproduction: paper sizes vs stand-in sizes."""
    rows = []
    for name, spec in DATASETS.items():
        g = load(name)
        rows.append((name, spec.suite, spec.paper_n, spec.paper_m, g.n, g.m))
    return rows

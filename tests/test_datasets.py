"""Table-2 dataset stand-ins."""
import pytest

from repro.graphs import datasets as D
from repro.graphs.generators import to_spark


def test_fifteen_datasets():
    assert len(D.SPECS) == 15
    assert [s.name for s in D.SPECS] == [
        "ps", "ye", "wn", "uk", "sf", "bk", "tw", "bs",
        "gg", "hm", "wt", "lj", "dl", "fr", "hg",
    ]


@pytest.mark.parametrize("name", [s.name for s in D.SPECS])
def test_stand_in_builds(name):
    pdf = D.dataset_edges_pdf(name, "test")
    assert len(pdf) > 0
    assert (pdf.src != pdf.dst).all()
    assert not pdf.duplicated(["src", "dst"]).any()


@pytest.mark.parametrize("name", [s.name for s in D.SPECS])
def test_deterministic(name):
    a = D.dataset_edges_pdf(name, "test")
    b = D.dataset_edges_pdf(name, "test")
    assert a.equals(b)


def test_relative_density_ordering_preserved():
    """The paper's densest (ps, hm) vs sparsest (tw, wt) ordering survives."""
    def davg(name):
        pdf = D.dataset_edges_pdf(name, "test")
        n_v = len(set(pdf.src) | set(pdf.dst))
        return len(pdf) / n_v

    assert davg("ps") > davg("bk") > davg("tw") * 0.9
    assert davg("hm") > davg("wt")



def test_spark_loading(spark):
    pdf = D.dataset_edges_pdf("tw", "test")
    df = to_spark(spark, pdf)
    assert df.dtypes == [("src", "bigint"), ("dst", "bigint")]
    assert df.count() == len(pdf)

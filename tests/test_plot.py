import xml.etree.ElementTree as ET
from xml.dom import minidom

import numpy as np
import pytest

from cumbia import (
    BiplotCoordinates,
    CumbiaConfig,
    DataMatrix,
    ParameterError,
    classical_mds,
    cumbia,
    emit_scatter,
    pca_biplot,
)


@pytest.fixture
def embedding():
    return cumbia(np.eye(2) + 0.1, CumbiaConfig(k_samples=1), dims=2)


def test_marker_per_object(tmp_path, embedding):
    out = tmp_path / "plot.svg"
    emit_scatter(embedding, 0, 1, out=str(out))
    text = out.read_text()
    assert text.count('class="marker"') == 4
    assert text.count("<circle") == 2
    assert text.count("<path") == 2


def test_axis_labels_are_one_based(tmp_path, embedding):
    out = tmp_path / "plot.svg"
    emit_scatter(embedding, 0, 1, out=str(out))
    text = out.read_text()
    assert "Component 1" in text
    assert "Component 2" in text


def test_identical_inputs_identical_bytes(tmp_path, embedding):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    emit_scatter(embedding, 0, 1, out=str(a))
    emit_scatter(embedding, 0, 1, out=str(b))
    assert a.read_bytes() == b.read_bytes()


def test_component_out_of_range(tmp_path, embedding):
    with pytest.raises(ParameterError, match="out of range"):
        emit_scatter(embedding, 0, 5, out=str(tmp_path / "x.svg"))


def test_color_by_categories(tmp_path, embedding):
    out = tmp_path / "c.svg"
    emit_scatter(embedding, 0, 1, color_by=["hot", "cold", "hot", "cold"],
                 out=str(out))
    text = out.read_text()
    # two categories resolve to the first two palette entries
    assert text.count("#1f77b4") >= 2
    assert text.count("#d62728") >= 2


def test_color_by_length_mismatch(tmp_path, embedding):
    with pytest.raises(ParameterError):
        emit_scatter(embedding, 0, 1, color_by=["a"], out=str(tmp_path / "x.svg"))


def test_biplot_input(tmp_path):
    rng = np.random.default_rng(3)
    bp = pca_biplot(rng.standard_normal((4, 3)), alpha=1.0)
    out = tmp_path / "bp.svg"
    emit_scatter(bp, 0, 1, out=str(out))
    assert out.read_text().count('class="marker"') == 7


def test_biplot_columns_beyond_the_plotted_two_do_not_matter(tmp_path):
    bp = pca_biplot(np.random.default_rng(5).standard_normal((6, 9)))
    assert bp.s == 6
    cut = BiplotCoordinates(bp.sample_coords[:, :2].copy(),
                            bp.variable_coords[:, :2].copy(), bp.alpha, 2,
                            bp.object_kinds, bp.object_labels)
    wide, narrow = tmp_path / "wide.svg", tmp_path / "narrow.svg"
    emit_scatter(bp, 0, 1, out=str(wide))
    emit_scatter(cut, 0, 1, out=str(narrow))
    assert wide.read_bytes() == narrow.read_bytes()
    assert wide.read_text().endswith("</svg>\n")


def test_degenerate_range_still_renders(tmp_path):
    emb = classical_mds(np.array([[0.0, 2.0], [2.0, 0.0]]), dims=1)
    # both objects share the same second coordinate once padded
    out = tmp_path / "d.svg"
    emit_scatter(emb, 0, 0, out=str(out))
    assert out.read_text().count('class="marker"') == 2


@pytest.mark.parametrize("label", ["A&B", "<v>", "s\r1"])
def test_markup_in_labels_is_escaped(tmp_path, label):
    bp = pca_biplot(DataMatrix(np.random.default_rng(7).standard_normal((3, 3)),
                               variable_labels=[label, "b", "c"]))
    out = tmp_path / "m.svg"
    emit_scatter(bp, 0, 1, color_by=[label, "x", "x", "x", "y", "y"],
                 out=str(out))
    titles = minidom.parse(str(out)).getElementsByTagName("title")
    assert [t.firstChild.data for t in titles][3] == label


def test_characters_xml_forbids_in_labels_are_replaced(tmp_path):
    # a control character in a table's label cell reaches the title as is
    bp = pca_biplot(DataMatrix(np.random.default_rng(8).standard_normal((3, 3)),
                               sample_labels=["a\x01b", "c\uffff", "d"]))
    out = tmp_path / "f.svg"
    emit_scatter(bp, 0, 1, out=str(out))
    titles = ET.parse(out).getroot().iter("{http://www.w3.org/2000/svg}title")
    assert [t.text for t in titles][:3] == ["a\ufffdb", "c\ufffd", "d"]
